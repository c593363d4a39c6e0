"""Training loop: FP32 master weights, SGD with momentum, mixed precision.

The solver state (weights, velocities, weight gradients) is FP32
throughout; quantized weight copies are refreshed from the masters after
every update, so the integer kernels always see Q_w of the current
weights.  Weight-gradient tensors themselves are never quantized.  There
is no loss scaling: error tensors are quantized with their own shared
exponent, which tracks their magnitude as gradients shrink.
"""

from __future__ import annotations

import dataclasses
import time
import typing
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .arith import OverflowPolicy, Strict, check_strict_chain, policy_from_name
from .kernels import BlockingParams, ConvSpec, chain_length
from .layers import (AvgPool, BatchNorm, Conv, Dense, Flatten, Layer, MaxPool,
                     Model, Quantizers, ReLU, Residual, RunContext, to_fp32)
from .tensor import QuantConfig, rounding_from_name

# === configuration ===


def _check_type(where: str, value, hint) -> None:
    """Reject a JSON value that is not of type hint: bool, int, float (an
    int is accepted), str, dict, or an Optional or List of one of these."""
    if typing.get_origin(hint) is Union:        # Optional[X]
        if value is None:
            return
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is list and isinstance(value, list):
        for item in value:
            _check_type(f"{where} items", item, typing.get_args(hint)[0])
        return
    expected = typing.get_origin(hint) or hint
    accepted = (int, float) if hint is float else expected
    if not isinstance(value, accepted) or (hint is bool) != isinstance(value, bool):
        raise ValueError(f"{where} must be {expected.__name__}, got {type(value).__name__}")


class _LayerKeys:
    """One layer object of a config, read key by key.  Each read checks the
    value's type and, given ``lo``, that it is at least lo; a missing required
    key, or a key no read asked for, is an error naming the layer by its path,
    so the reads in build_model are the one list of each layer type's keys."""

    def __init__(self, spec: dict, path: str):
        self.spec, self.path, self.where, self.read = spec, path, path, set()
        self.where = f"{path} ({self('type', str)})"

    def __call__(self, key: str, hint, default=..., lo=None):
        self.read.add(key)
        if key not in self.spec:
            if default is ...:
                raise ValueError(f"{self.where}: missing required key {key!r}")
            return default
        value = self.spec[key]
        _check_type(f"{self.where}: {key}", value, hint)
        if lo is not None and value < lo:
            raise ValueError(f"{self.where}: {key} must be >= {lo}, got {value}")
        return value

    def close(self) -> None:
        unknown = sorted(set(self.spec) - self.read)
        if unknown:
            raise ValueError(f"{self.where}: unknown keys {unknown}")


@dataclasses.dataclass
class TrainConfig:
    """Run configuration, loadable from a JSON dict."""

    layers: List[dict] = dataclasses.field(default_factory=list)
    loss: str = "softmax_xent"
    epochs: int = 1
    batch_size: int = 64
    base_lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    lr_gamma: float = 0.1
    step_epochs: List[int] = dataclasses.field(default_factory=list)
    bit_width: int = 16
    pre_shift: int = 1
    rounding: str = "nearest"
    rounding_w: Optional[str] = None     # per-role overrides
    rounding_e: Optional[str] = None
    policy: str = "empirical"
    chain_block: int = 208
    max_chain: Optional[int] = None
    shadow_check: bool = False
    icblk: Optional[int] = None
    rb_size: int = 28

    def __post_init__(self):
        for name, hint in typing.get_type_hints(TrainConfig).items():
            _check_type(name, getattr(self, name), hint)
        if self.loss not in _LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}; "
                             f"expected one of {', '.join(_LOSSES)}")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if not self.layers:
            raise ValueError("config must list at least one layer")
        # what a run builds from the other fields checks them; build_model
        # checks the layers
        make_policy(self)
        make_quantizers(self, seed=0)
        BlockingParams(8 if self.icblk is None else self.icblk, self.rb_size)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def parse_config(raw: dict) -> TrainConfig:
    known = {f.name for f in dataclasses.fields(TrainConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return TrainConfig(**raw)


def make_policy(cfg: TrainConfig) -> OverflowPolicy:
    return policy_from_name(cfg.policy, cfg.max_chain, cfg.chain_block, cfg.shadow_check)


def make_quantizers(cfg: TrainConfig, seed: int) -> Quantizers:
    def qc(role: str) -> QuantConfig:
        try:
            mode = rounding_from_name(getattr(cfg, role) or cfg.rounding, seed=seed)
        except ValueError as e:
            raise ValueError(f"{role}: {e}") from None
        return QuantConfig(bit_width=cfg.bit_width, rounding=mode,
                           pre_shift=cfg.pre_shift)

    # All three tensor kinds feed multiplier inputs, so all share pre_shift.
    return Quantizers(qc("rounding"), qc("rounding_w"), qc("rounding_e"))


# === model construction ===


def build_model(cfg: TrainConfig, in_shape: Tuple[int, ...], ctx: RunContext,
                rng: np.random.Generator, precision: str = "dfp16") -> Model:
    """Instantiate the layer pipeline, tracking shapes for weight allocation.

    precision "fp32" forces every layer to the FP32 path; "dfp16" honors
    per-layer precision fields (default "dfp" for conv/fc/batchnorm).  In
    both modes a conv or fc whose own precision is "dfp" gets the blocking
    of each pass (fprop, wgrad at cfg.batch_size, bprop) checked here,
    naming the layer.  Under Strict its longest chain must also pass the
    kernels' magnitude check for the smallest maxima quantize can give a
    nonzero tensor, 2**(P-2-pre_shift): a chain that cannot would fail at
    the first DFP16 step whatever the data.
    """
    if precision not in ("fp32", "dfp16"):
        raise ValueError(f"unknown precision mode {precision!r}")

    counters: Dict[str, int] = {}

    def fresh_name(kind: str) -> str:
        counters[kind] = counters.get(kind, 0) + 1
        return f"{kind}{counters[kind]}"

    least = 1 << (cfg.bit_width - 2 - cfg.pre_shift)

    def mode(own: str) -> str:
        return "fp32" if precision == "fp32" else own

    def own_precision(key: _LayerKeys) -> str:
        own = key("precision", str, "dfp")
        if own not in ("dfp", "fp32"):
            raise ValueError(f"{key.where}: precision must be 'dfp' or 'fp32', got {own!r}")
        return own

    def check_chains(key: _LayerKeys, specs: List[ConvSpec]) -> None:
        try:
            chain = max(chain_length(s, ctx.blocking_for(s)) for s in specs)
            if isinstance(ctx.policy, Strict):
                check_strict_chain(chain, least, least)
        except ValueError as e:
            raise ValueError(f"{key.where}: {e}") from None

    def build(specs: List[dict], shape, path: str,
              first_conv_seen=[False]) -> Tuple[List[Layer], tuple]:
        out: List[Layer] = []
        for i, spec in enumerate(specs):
            key = _LayerKeys(spec, f"{path}[{i}]")
            kind = key("type", str)
            if kind == "conv":
                if len(shape) != 3:
                    raise ValueError(f"{key.where}: requires CHW input, have {shape}")
                name = key("name", str, fresh_name("conv"))
                k, pad, stride = key("kernel", int), key("pad", int, 0), key("stride", int, 1)
                out_ch = key("out_ch", int)
                try:
                    cspec = ConvSpec(shape[0], out_ch, shape[1], shape[2], k, k, stride, pad)
                except ValueError as e:
                    raise ValueError(f"{key.where}: {e}") from None
                first = not first_conv_seen[0]
                first_conv_seen[0] = True
                own, bias = own_precision(key), key("bias", bool, False)
                try:
                    layer = Conv(ctx, name, cspec.in_ch, cspec.out_ch, k, cspec.stride, pad,
                                 precision=mode(own), bias=bias, first=first, rng=rng)
                except ValueError as e:
                    raise ValueError(f"{key.where}: {e}") from None
                if own == "dfp":
                    check_chains(key, layer.pass_specs(shape, cfg.batch_size))
                shape = (cspec.out_ch, cspec.oh, cspec.ow)
            elif kind == "fc":
                feat = int(np.prod(shape))
                if len(shape) != 1:
                    raise ValueError(f"{key.where}: requires flattened input, have {shape}")
                out_features, own = key("out_features", int, lo=1), own_precision(key)
                layer = Dense(ctx, key("name", str, fresh_name("fc")), feat, out_features,
                              precision=mode(own), bias=key("bias", bool, True), rng=rng)
                if own == "dfp":
                    check_chains(key, layer.pass_specs(shape, cfg.batch_size))
                shape = (out_features,)
            elif kind == "batchnorm":
                layer = BatchNorm(ctx, key("name", str, fresh_name("bn")),
                                  shape[0], precision=mode(own_precision(key)),
                                  eps=key("eps", float, 1e-5),
                                  momentum=key("momentum", float, 0.1))
            elif kind == "relu":
                layer = ReLU(ctx, key("name", str, fresh_name("relu")))
            elif kind in ("maxpool", "avgpool"):
                k = key("kernel", int, lo=1)
                name = key("name", str, fresh_name("pool"))
                if len(shape) != 3 or shape[1] % k or shape[2] % k:
                    raise ValueError(f"{key.where}: pool {k} does not tile input {shape}")
                layer = (MaxPool if kind == "maxpool" else AvgPool)(ctx, name, k)
                shape = (shape[0], shape[1] // k, shape[2] // k)
            elif kind == "flatten":
                layer = Flatten(ctx, key("name", str, fresh_name("flatten")))
                shape = (int(np.prod(shape)),)
            elif kind == "residual":
                body, bshape = build(key("body", List[dict]), shape, f"{key.path}.body",
                                     first_conv_seen)
                if bshape != shape:
                    raise ValueError(
                        f"{key.where}: body maps {shape} -> {bshape}; shapes must match")
                layer = Residual(ctx, key("name", str, fresh_name("res")), body)
            else:
                raise ValueError(f"{key.where}: unknown layer type")
            key.close()
            out.append(layer)
        return out, shape

    # construction-time weight quantization runs in its own phase so the
    # initial q_w draws never share a stream with the first training step
    phase = ctx.q.phase
    ctx.q.phase = 2
    try:
        layers, _ = build(cfg.layers, tuple(in_shape), "layers")
        return Model(layers, ctx)
    finally:
        ctx.q.phase = phase


# === losses ===


def softmax_xent(logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch; returns (loss, dloss/dlogits)."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    eps = np.float32(1e-30)
    loss = float(-np.log(p[np.arange(n), labels] + eps).mean())
    g = p.copy()
    g[np.arange(n), labels] -= np.float32(1.0)
    return loss, (g / np.float32(n)).astype(np.float32)


def mse(outputs: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean squared error over all elements; returns (loss, grad)."""
    targets = np.asarray(targets, np.float32).reshape(outputs.shape)
    diff = outputs - targets
    loss = float(np.mean(diff.astype(np.float64) ** 2))
    return loss, (diff * np.float32(2.0 / diff.size)).astype(np.float32)


_LOSSES: Dict[str, Callable] = {"softmax_xent": softmax_xent, "mse": mse}


# === solver ===


def sgd_step(model: Model, lr: float, momentum: float, weight_decay: float) -> None:
    """FP32 SGD with momentum: v = m*v + (g + wd*w); w -= lr*v.

    Refreshes the quantized weight copies afterwards, so consumers always
    see Q_w of the updated masters.
    """
    lr32, m32, wd32 = np.float32(lr), np.float32(momentum), np.float32(weight_decay)
    updates = []
    for layer in model.iter_layers():
        params, grads, vel = layer.params(), layer.grads(), layer.velocities()
        for name, p in params.items():
            g = grads.get(name)
            if g is None:
                raise RuntimeError(f"{layer.name}.{name}: missing gradient")
            g = np.asarray(g, np.float32)
            if not np.all(np.isfinite(g)):
                raise TrainingDivergence(
                    f"non-finite gradient in {layer.name}.{name}", [])
            updates.append((p, g, vel[name]))
    # Every gradient is checked before any parameter or velocity moves.
    for p, g, v in updates:
        if weight_decay:
            g = g + wd32 * p
        v[...] = m32 * v + g
        p[...] = p - lr32 * v
    model.refresh_quantized()


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    """Step decay: multiply base_lr by lr_gamma at each listed epoch."""
    drops = sum(1 for e in cfg.step_epochs if epoch >= e)
    return cfg.base_lr * (cfg.lr_gamma ** drops)


# === divergence reporting ===


class TrainingDivergence(RuntimeError):
    """Raised when the loss or a gradient goes non-finite.

    Carries per-layer activation summaries (name, min, max, finite fraction)
    from a replay of the failing batch for offline inspection.
    """

    def __init__(self, message: str, report: List[dict]):
        super().__init__(message)
        self.report = report


def _activation_report(model: Model, x: np.ndarray) -> List[dict]:
    trace: list = []
    model.forward(x, train=True, trace=trace)
    report = []
    for name, act in trace:
        arr = to_fp32(act).astype(np.float64)
        report.append({
            "layer": name,
            "min": float(arr.min()),
            "max": float(arr.max()),
            "finite_fraction": float(np.isfinite(arr).mean()),
        })
    return report


# === evaluation and the loop ===


def evaluate(model: Model, x: np.ndarray, y: np.ndarray, loss_name: str,
             batch_size: int, eval_tag: int = 0) -> float:
    """Validation metric: accuracy for classification, -MSE for regression
    (so that higher is always better in the metrics column)."""
    q = model.ctx.q
    phase, it = q.phase, q.iteration
    q.phase = 1
    try:
        loss_fn = _LOSSES[loss_name]
        correct = 0.0
        sq_sum, count = 0.0, 0
        n = x.shape[0]
        for b0 in range(0, n, batch_size):
            # distinct iteration tag per eval batch keeps tensor ids unique
            q.iteration = eval_tag * (1 << 20) + b0 // batch_size
            xb = x[b0: b0 + batch_size]
            yb = y[b0: b0 + batch_size]
            out = model.forward(xb, train=False)
            if loss_name == "softmax_xent":
                correct += float((out.argmax(axis=1) == yb).sum())
            else:
                l, _ = loss_fn(out, yb)
                sq_sum += l * out.size
                count += out.size
        if loss_name == "softmax_xent":
            return correct / n
        return -sq_sum / count
    finally:
        q.phase, q.iteration = phase, it


def train_loop(model: Model, cfg: TrainConfig, train_x: np.ndarray,
               train_y: np.ndarray, val_x: np.ndarray, val_y: np.ndarray,
               seed: int, rows: Optional[List[dict]] = None) -> List[dict]:
    """Run SGD for cfg.epochs; returns one metrics row per iteration,
    appended to `rows` (a new list if None) as each iteration completes, so
    a run that raises leaves there the rows of the iterations it finished.

    Row keys: iteration, epoch, train_loss, val_acc (empty except on each
    epoch's final iteration), overflow_count (cumulative), wall_ms (the
    training step alone; validation is not timed).
    Shuffling uses a dedicated seeded stream, so a fixed seed fixes the
    batch schedule regardless of precision mode.
    """
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    loss_fn = _LOSSES[cfg.loss]
    q = model.ctx.q
    rows = [] if rows is None else rows
    n = train_x.shape[0]
    bs = cfg.batch_size
    if n < bs:
        raise ValueError(f"training split ({n}) smaller than batch size ({bs})")
    iteration = 0
    batches = n // bs  # ragged tail dropped to keep batch shapes static
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        lr = lr_at(cfg, epoch)
        for b in range(batches):
            t0 = time.perf_counter()
            idx = perm[b * bs: (b + 1) * bs]
            xb, yb = train_x[idx], train_y[idx]
            q.phase, q.iteration = 0, iteration
            out = model.forward(xb, train=True)
            loss, dout = loss_fn(out, yb)
            if not np.isfinite(loss):
                raise TrainingDivergence(
                    f"non-finite loss {loss} at iteration {iteration}",
                    _activation_report(model, xb))
            model.backward(dout)
            sgd_step(model, lr, cfg.momentum, cfg.weight_decay)
            iteration += 1
            wall_ms = (time.perf_counter() - t0) * 1e3
            val = ""
            if b == batches - 1:
                val = evaluate(model, val_x, val_y, cfg.loss, bs, eval_tag=epoch)
            rows.append({
                "iteration": iteration,
                "epoch": epoch,
                "train_loss": loss,
                "val_acc": val,
                "overflow_count": model.ctx.stats.overflow_count,
                "wall_ms": wall_ms,
            })
    return rows
