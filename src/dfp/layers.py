"""Mixed-precision network layers over the integer kernels.

Data flow per training step: each DFP compute layer consumes quantized
activations (Q_a) and quantized weights (Q_w), runs the integer kernels,
and produces an FP32 output; elementwise post-ops (ReLU, residual adds)
ride in FP32 and the result is re-quantized before the next DFP consumer.
On the way back, incoming FP32 output-gradients are quantized (Q_e) before
the integer backward kernels, while weight gradients stay FP32 end to end
and feed an FP32 solver over FP32 master weights.

A fully connected layer is a 1x1 convolution over n 1x1 images, so every
conv and fc runs the same FP32 and DFP passes, and every DFP conv and fc
quantizes and lowers its weights once per update (refresh_quantized).

Layers marked fp32 never quantize anything, so a model whose layers are all
fp32 is a plain FP32 trainer.  Max pooling operates directly on the integer
elements when its input is quantized (under one shared exponent the integers
order as their values do): np.maximum over strided views, plus, in training
only, the index of each window's first maximum for the backward pass.
Average pooling and batch-norm statistics are FP32; batch norm forms x - mean
once, takes the variance from it in np.var's own order and runs its scale,
shift and backward chain in place, with the bits of the np.mean / np.var
formulation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from typing import Dict, List, Optional, Union

import numpy as np

from .arith import Empirical
from .kernels import (BlockingParams, ConvSpec, KernelStats, PackedWeights, conv_fprop,
                      default_blocking, fp32_input_grad, gemm_dfp, im2col, pack_weights)
from .tensor import DfpTensor, QuantConfig, dequantize, quantize

Activation = Union[np.ndarray, DfpTensor]


def to_fp32(x: Activation) -> np.ndarray:
    if isinstance(x, DfpTensor):
        return dequantize(x)
    return np.asarray(x, dtype=np.float32)


# === quantizer bookkeeping ===


class Quantizers:
    """Q_a / Q_w / Q_e operators, one format cfg for all, with stable tensor ids.

    Tensor ids are composed from (phase, iteration, layer slot, role) so
    stochastic rounding draws are unique per quantization event and
    independent of execution interleaving.
    """

    _ROLES = {"q_a": 0, "q_w": 1, "q_e": 2}
    _PHASES = ("train", "eval", "weight init")

    def __init__(self, cfg: QuantConfig):
        self.cfg = cfg
        self.phase = 0       # 0 train, 1 eval, 2 weight init
        self.iteration = 0
        self._slots: Dict[str, int] = {}

    def _tid(self, layer: str, kind: str) -> int:
        slot = self._slots.setdefault(layer, len(self._slots))
        return (((self.phase << 40) + self.iteration) << 12 | slot) << 2 | self._ROLES[kind]

    def where(self, layer: str, what: str) -> str:
        """Where an error happened: layer, what it did (a role, a pass or a
        statistic), phase and iteration."""
        return f"{layer} {what}, {self._PHASES[self.phase]} phase, iteration {self.iteration}"

    @contextlib.contextmanager
    def located(self, layer: str, what: str):
        """Re-raise a ValueError or OverflowError with where() in front."""
        try:
            yield
        except (ValueError, OverflowError) as exc:
            raise type(exc)(f"{self.where(layer, what)}: {exc}") from exc

    def _apply(self, kind: str, layer: str, values) -> DfpTensor:
        """quantize under this event's tensor id; an error says where it happened."""
        with self.located(layer, kind):
            return quantize(values, self.cfg, tensor_id=self._tid(layer, kind))

    def q_a(self, layer: str, values) -> DfpTensor:
        return self._apply("q_a", layer, values)

    def q_w(self, layer: str, values) -> DfpTensor:
        return self._apply("q_w", layer, values)

    def q_e(self, layer: str, values) -> DfpTensor:
        return self._apply("q_e", layer, values)


@dataclasses.dataclass
class RunContext:
    """Shared per-run state: quantizers, kernel policy, counters, and the one
    gateway from the layers to the integer kernels.  The gateway calls the
    kernels by their names in this module, where the benchmark's tracer
    patches them."""

    q: Quantizers
    policy: Empirical = dataclasses.field(default_factory=Empirical)
    # Selects nothing: the kernels have one engine.  Kept only because
    # benchmark/harness.py:121 passes engine="fast"; it goes with that
    # keyword in the next change to the benchmark.
    engine: str = "fast"
    icblk: Optional[int] = None    # explicit chain-block override
    rb_size: int = 28
    stats: KernelStats = dataclasses.field(default_factory=KernelStats)

    def __post_init__(self):
        if self.engine != "fast":
            raise ValueError(f"engine={self.engine!r}: the kernels have one engine, 'fast'")

    def blocking_for(self, spec: ConvSpec) -> BlockingParams:
        return default_blocking(spec, self.policy, self.rb_size, self.icblk)

    def conv(self, x: DfpTensor, w: PackedWeights, spec: ConvSpec, layer: str,
             pass_name: str) -> np.ndarray:
        """conv_fprop of x with lowered weights w under this run's blocking
        and policy, for layer's pass (fprop or bprop); its counters join the
        run's, and an error names the layer and pass."""
        with self.q.located(layer, pass_name):
            out, st = conv_fprop(x, w, spec, self.blocking_for(spec), self.policy)
        self.stats.merge(st)
        return out

    def gemm(self, a: DfpTensor, b: DfpTensor, layer: str, pass_name: str) -> np.ndarray:
        """The weight-gradient GEMM, A (M x KK) times B (KK x N), blocked
        like the equivalent 1x1 conv; otherwise as conv."""
        spec = ConvSpec(a.shape[1], b.shape[1], 1, 1, 1, 1)
        with self.q.located(layer, pass_name):
            out, st = gemm_dfp(a, b, self.blocking_for(spec), self.policy)
        self.stats.merge(st)
        return out


# === layers ===


def _dilate_errors(e: DfpTensor, stride: int) -> DfpTensor:
    if stride == 1:
        return e
    n, k, oh, ow = e.elements.shape
    d = np.zeros((n, k, (oh - 1) * stride + 1, (ow - 1) * stride + 1), np.int16)
    d[:, :, ::stride, ::stride] = e.elements
    return DfpTensor(d, e.shared_exponent, e.bit_width)


class Layer:
    """Base layer; precision is "dfp", "fp32", or None for transparent ops."""

    precision: Optional[str] = None

    def __init__(self, ctx: RunContext, name: str):
        self.ctx = ctx
        self.name = name

    def forward(self, x: Activation, train: bool) -> Activation:
        raise NotImplementedError

    def backward(self, g: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> Dict[str, np.ndarray]:
        return {}

    def grads(self) -> Dict[str, np.ndarray]:
        return {}

    def velocities(self) -> Dict[str, np.ndarray]:
        return {}

    def refresh_quantized(self) -> None:
        pass

    def iter_layers(self):
        yield self


class Conv(Layer):
    """2D convolution: FP32 master weight W (K, C, KH, KW), optional FP32
    bias and SGD state, and optionally a DFP compute path, whose weights are
    quantized and lowered once per update (refresh_quantized) to the
    forward and input-gradient weight matrices."""

    flat = False   # Dense: n feature vectors in and out, as n 1x1 images

    def __init__(self, ctx, name, in_ch, out_ch, kernel, stride=1, pad=0,
                 precision="dfp", bias=False, first=False, rng=None):
        if precision == "dfp" and not first and pad > kernel - 1:
            # the DFP input gradient is a convolution with pad kernel-1-pad
            raise ValueError(f"{name}: pad {pad} > kernel-1 is unsupported "
                             f"by the DFP input-gradient pass")
        super().__init__(ctx, name)
        self.precision = precision
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kh = self.kw = kernel
        self.stride, self.pad = stride, pad
        self.first = first  # the input layer skips the input-gradient pass
        w_shape = (out_ch, in_ch) if self.flat else (out_ch, in_ch, kernel, kernel)
        std = float(np.sqrt(2.0 / math.prod(w_shape[1:])))
        self.W = (rng.standard_normal(w_shape) * std).astype(np.float32)
        self.b = np.zeros(out_ch, np.float32) if bias else None
        self._vel = {k: np.zeros_like(v) for k, v in self.params().items()}
        self.gW = None
        self.gb = None
        self._spec_cache: Optional[ConvSpec] = None
        self.w_fwd: Optional[PackedWeights] = None   # forward weight matrix
        self.w_bwd: Optional[PackedWeights] = None   # flipped, for bprop

    def params(self):
        p = {"W": self.W}
        if self.b is not None:
            p["b"] = self.b
        return p

    def grads(self):
        g = {"W": self.gW}
        if self.b is not None:
            g["b"] = self.gb
        return g

    def velocities(self):
        return self._vel

    def _spec(self, h, w) -> ConvSpec:
        return ConvSpec(self.in_ch, self.out_ch, h, w, self.kh, self.kw,
                        self.stride, self.pad)

    def _bprop_spec(self, spec: ConvSpec) -> ConvSpec:
        # the errors, dilated by the stride, convolved with pad kernel-1-pad
        return ConvSpec(self.out_ch, self.in_ch, (spec.oh - 1) * self.stride + 1,
                        (spec.ow - 1) * self.stride + 1, self.kh, self.kw, 1,
                        self.kh - 1 - self.pad)

    def refresh_quantized(self):
        if self.precision != "dfp":
            return
        w = self.ctx.q.q_w(
            self.name, self.W.reshape(self.out_ch, self.in_ch, self.kh, self.kw))
        self.w_fwd = pack_weights(w)
        if not self.first:   # taps flipped, channels transposed
            flipped = w.elements[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            self.w_bwd = pack_weights(DfpTensor(flipped, w.shared_exponent, w.bit_width))

    def forward(self, x, train):
        if self.flat:
            if len(x.shape) != 2:
                raise ValueError(f"{self.name}: expected flattened input, got shape {x.shape}")
            x = (DfpTensor(x.elements.reshape(*x.shape, 1, 1), x.shared_exponent, x.bit_width)
                 if isinstance(x, DfpTensor) else np.reshape(x, (*x.shape, 1, 1)))
        if self.precision == "dfp":
            a_q = x if isinstance(x, DfpTensor) else self.ctx.q.q_a(self.name, to_fp32(x))
            spec = self._spec(a_q.shape[2], a_q.shape[3])
            if self.w_fwd is None:
                self.refresh_quantized()
            out = self.ctx.conv(a_q, self.w_fwd, spec, self.name, "fprop")
            self._a_q, self._cols, self._spec_cache = a_q, None, spec
        else:
            xf = to_fp32(x)
            spec = self._spec(xf.shape[2], xf.shape[3])
            cols = im2col(xf, spec)
            wmat = self.W.reshape(self.out_ch, -1)
            out = (cols @ wmat.T).reshape(xf.shape[0], spec.oh, spec.ow, self.out_ch)
            out = np.ascontiguousarray(out.transpose(0, 3, 1, 2))
            self._a_q, self._cols, self._spec_cache = None, cols, spec
        if self.b is not None:
            out += self.b.reshape(1, -1, 1, 1)
        return out.reshape(out.shape[:2]) if self.flat else out

    def backward(self, g):
        spec = self._spec_cache
        if spec is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        g = np.asarray(g, np.float32).reshape(-1, self.out_ch, spec.oh, spec.ow)
        n = g.shape[0]
        if self.b is not None:
            self.gb = g.sum(axis=(0, 2, 3))
        gx = None
        if self.precision == "dfp":
            e_q = self.ctx.q.q_e(self.name, g)
            # Weight gradient: GEMM over the minibatch x spatial reduction,
            # chunked like any other chain; output stays FP32 (never quantized).
            # The activations are lowered in chunks of grp channels, which
            # divides C, so the GEMM's shape is that of the (c, kh, kw)
            # lowering; its columns, in (c//grp, kh, kw, c%grp) order, are put
            # back in place in the GEMM's own output, which gW stays a view of.
            e_mat = DfpTensor(
                np.ascontiguousarray(e_q.elements.transpose(1, 0, 2, 3)).reshape(self.out_ch, -1),
                e_q.shared_exponent, e_q.bit_width)
            grp = math.gcd(self.in_ch, 16)
            a_cols = DfpTensor(im2col(self._a_q.elements, spec, grp),
                               self._a_q.shared_exponent, self._a_q.bit_width)
            gw = self.ctx.gemm(e_mat, a_cols, self.name, "wgrad")
            if grp > 1 and self.kh * self.kw > 1:
                gw[...] = gw.reshape(self.out_ch, -1, self.kh, self.kw, grp).transpose(
                    0, 1, 4, 2, 3).reshape(self.out_ch, -1)
            self.gW = gw.reshape(self.W.shape)
            if not self.first:
                # Input gradient: convolve dilated errors with the flipped,
                # channel-transposed quantized weights.
                gx = self.ctx.conv(_dilate_errors(e_q, self.stride), self.w_bwd,
                                   self._bprop_spec(spec), self.name, "bprop")
        else:
            g_mat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, self.out_ch)
            self.gW = (g_mat.T @ self._cols).reshape(self.W.shape)
            if not self.first:
                gx = fp32_input_grad(g_mat, self.W.reshape(self.out_ch, -1), spec)
        if gx is None:
            gx = np.zeros((n, self.in_ch, spec.h, spec.w), np.float32)
        return gx.reshape(n, -1) if self.flat else gx


class Dense(Conv):
    """Fully connected layer: a 1x1 convolution over n 1x1 images, with an
    (out_features, in_features) master W and, by default, an FP32 bias.
    Feature vectors become 1x1 images on the way in and back on the way
    out; every pass is Conv's."""

    flat = True

    def __init__(self, ctx, name, in_features, out_features, precision="fp32",
                 bias=True, rng=None):
        super().__init__(ctx, name, in_features, out_features, 1, precision=precision,
                         bias=bias, rng=rng)


class BatchNorm(Layer):
    """Batch normalization with FP32 statistics and FP32 scale/shift.

    Quantized inputs are up-converted before the mean/variance reduction;
    gamma and beta live with the FP32 master weights and are never
    quantized.  Running statistics use the biased batch variance.

    Each pass makes the operations of the plain formulation (x.mean,
    x.var, (x - mean) * inv, gamma * x-hat + beta) in the same order, so
    every bit is the same, but with fewer full-size temporaries: x - mean is
    formed once, in a dequantized input's own buffer, and serves both the
    variance and x-hat; the rest runs in place.

    In a training pass, a batch mean or variance or an updated running
    statistic that is not finite is a ValueError naming the layer, the
    statistic, the phase and the iteration.
    """

    def __init__(self, ctx, name, channels, precision="dfp", eps=1e-5, momentum=0.1):
        super().__init__(ctx, name)
        self.precision = precision
        self.eps = np.float32(eps)
        self.momentum = np.float32(momentum)
        self.gamma = np.ones(channels, np.float32)
        self.beta = np.zeros(channels, np.float32)
        self.running_mean = np.zeros(channels, np.float32)
        self.running_var = np.ones(channels, np.float32)
        self._vel = {"gamma": np.zeros_like(self.gamma), "beta": np.zeros_like(self.beta)}
        self.ggamma = None
        self.gbeta = None

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def grads(self):
        return {"gamma": self.ggamma, "beta": self.gbeta}

    def velocities(self):
        return self._vel

    def _shape(self, xf):
        if xf.ndim == 2:
            return (0,), (1, -1)
        if xf.ndim == 4:
            return (0, 2, 3), (1, -1, 1, 1)
        raise ValueError(f"{self.name}: rank {xf.ndim} input unsupported")

    def forward(self, x, train):
        if self.precision == "dfp" and not isinstance(x, DfpTensor):
            x = self.ctx.q.q_a(self.name, to_fp32(x))
        xf = to_fp32(x)
        axes, bshape = self._shape(xf)
        m = xf.size // xf.shape[1]
        if train and xf.shape[0] < 2:
            raise ValueError(f"{self.name}: training batch must have >= 2 samples")
        # an overflowing training statistic is reported by the check below, not by numpy
        with np.errstate(over="ignore", invalid="ignore") if train else contextlib.nullcontext():
            mu = xf.mean(axis=axes) if train else self.running_mean
            # a dequantized input is this layer's own copy, so x - mean may overwrite it
            xhat = np.subtract(xf, mu.reshape(bshape),
                               out=xf if isinstance(x, DfpTensor) else None)
            out = np.empty_like(xhat)
            if not train:
                var = self.running_var
            else:
                # np.var's own steps on x - mean: square, sum, then divide in the
                # dtype that float32 / intp promotes to, stored back as float32
                var = np.add.reduce(np.square(xhat, out=out), axis=axes)
                np.true_divide(var, np.intp(m), out=var, casting="unsafe")
                one = np.float32(1.0)
                self.running_mean[...] = ((one - self.momentum) * self.running_mean
                                          + self.momentum * mu)
                self.running_var[...] = ((one - self.momentum) * self.running_var
                                         + self.momentum * var)
                for stat, v in (("batch mean", mu), ("batch variance", var),
                                ("running mean", self.running_mean),
                                ("running variance", self.running_var)):
                    if not np.isfinite(v).all():
                        c = int(np.argmin(np.isfinite(v)))
                        raise ValueError(f"{self.ctx.q.where(self.name, stat)}: "
                                         f"{v[c]} in channel {c} is not finite")
        inv = np.float32(1.0) / np.sqrt(var + self.eps)
        xhat *= inv.reshape(bshape)
        np.multiply(self.gamma.reshape(bshape), xhat, out=out)
        out += self.beta.reshape(bshape)
        self._xhat, self._inv, self._axes, self._bshape, self._m = xhat, inv, axes, bshape, m
        return out

    def backward(self, g):
        g = np.asarray(g, np.float32)
        axes, bshape, xhat = self._axes, self._bshape, self._xhat
        self.gbeta = g.sum(axis=axes)
        t = g * xhat
        self.ggamma = t.sum(axis=axes)
        m = np.float32(self._m)
        coef = (self.gamma * self._inv / m).reshape(bshape)
        np.multiply(xhat, self.ggamma.reshape(bshape), out=t)
        gx = m * g
        gx -= self.gbeta.reshape(bshape)
        gx -= t
        gx *= coef
        return gx


class ReLU(Layer):
    """max(0, x); exact on quantized inputs since zero is representable."""

    def forward(self, x, train):
        if isinstance(x, DfpTensor):
            self._mask = x.elements > 0
            return DfpTensor(np.maximum(x.elements, 0), x.shared_exponent, x.bit_width)
        xf = to_fp32(x)
        self._mask = xf > 0
        return xf * self._mask

    def backward(self, g):
        return np.asarray(g, np.float32) * self._mask


class MaxPool(Layer):
    """Non-overlapping max pooling; runs directly on integer elements for
    quantized inputs, where a shared exponent orders the integers as it
    orders the values they stand for.

    Each output is the first maximum of its window in row-major window
    order, as argmax gives on finite input, ties and mixed -0.0/+0.0
    included.  A training forward pass keeps the window index m = i*k + j
    of that maximum, in one byte for k <= 16, for the backward pass, which
    routes each output gradient to it and writes +0.0 everywhere else; an
    eval pass keeps no index, and backward after it is an error.

    Integers: the output is np.maximum over the k*k strided views, and the
    index m that of the first view equal to it, found as the largest weight
    k*k-1-m among the views that are.  Equal integers have equal bits, so
    value and index are those of a strictly-greater scan.  Floats keep that
    scan, since np.maximum may return either zero when -0.0 meets +0.0: it
    takes a view's value only where it is strictly greater.

    The float scan and the backward pass select by bit masks on unsigned
    views: np.where branches per element and costs several times more on
    the random masks pooling makes."""

    def __init__(self, ctx, name, kernel):
        super().__init__(ctx, name)
        self.k = kernel
        self._idx = None

    def forward(self, x, train):
        arr = x.elements if isinstance(x, DfpTensor) else to_fp32(x)
        k = self.k
        self._in_shape = arr.shape
        last = k * k - 1
        views = [arr[:, :, m // k::k, m % k::k] for m in range(last + 1)]
        idx = np.zeros(views[0].shape, np.min_scalar_type(last)) if train else None
        out = views[0].copy()
        if isinstance(x, DfpTensor):
            for v in views[1:]:
                np.maximum(out, v, out=out)
            if train:   # idx = last - max over m of (last - m) * (view m == out)
                eq = np.empty(out.shape, bool)
                w = np.empty(out.shape, idx.dtype)
                for m in range(last):
                    np.multiply(np.equal(views[m], out, out=eq), idx.dtype.type(last - m), out=w)
                    np.maximum(idx, w, out=idx)
                np.subtract(idx.dtype.type(last), idx, out=idx)
        else:
            bits = np.dtype(f"u{arr.itemsize}")
            out_bits = out.view(bits)
            for m in range(1, last + 1):
                v = views[m]
                gt = v > out
                flip = np.bitwise_xor(out_bits, v.view(bits))
                flip *= gt
                out_bits ^= flip                   # out = where(gt, v, out)
                if train:   # m grows, so the last view strictly greater wins
                    np.maximum(idx, gt * idx.dtype.type(m), out=idx)
        self._idx = idx
        if isinstance(x, DfpTensor):
            return DfpTensor(out, x.shared_exponent, x.bit_width)
        return out

    def backward(self, g):
        if self._idx is None:
            raise RuntimeError(f"{self.name}: backward without a training forward pass")
        g_bits = np.asarray(g, np.float32).view(np.uint32)
        k = self.k
        z = np.empty(self._in_shape, np.float32)
        z_bits = z.view(np.uint32)
        for m in range(k * k):
            np.multiply(g_bits, self._idx == m, out=z_bits[:, :, m // k::k, m % k::k])
        return z


class AvgPool(Layer):
    """Non-overlapping average pooling; always up-converts to FP32.

    The forward pass sums strided views in the order numpy's mean takes:
    each window row over its columns from +0.0, the row sums in row order,
    then a division by k*k.  For a one-column output or k >= 8 numpy
    reorders its reduction, and the last bits may differ from its mean."""

    def __init__(self, ctx, name, kernel):
        super().__init__(ctx, name)
        self.k = kernel

    def forward(self, x, train):
        xf = to_fp32(x)
        n, c, h, w = xf.shape
        k = self.k
        self._in_shape = xf.shape
        win = xf.reshape(n, c, h // k, k, w // k, k)
        for i in range(k):
            row = win[:, :, :, i, :, 0] + np.float32(0)
            for j in range(1, k):
                row += win[:, :, :, i, :, j]
            if i == 0:
                total = row
            else:
                total += row
        total /= np.float32(k * k)
        return total

    def backward(self, g):
        k = self.k
        g = np.asarray(g, np.float32) * np.float32(1.0 / (k * k))
        z = np.empty(self._in_shape, np.float32)
        for m in range(k * k):
            z[:, :, m // k::k, m % k::k] = g
        return z


class Flatten(Layer):
    def forward(self, x, train):
        if isinstance(x, DfpTensor):
            self._in_shape = x.shape
            return DfpTensor(x.elements.reshape(x.shape[0], -1),
                             x.shared_exponent, x.bit_width)
        xf = to_fp32(x)
        self._in_shape = xf.shape
        return xf.reshape(xf.shape[0], -1)

    def backward(self, g):
        return np.asarray(g, np.float32).reshape(self._in_shape)


class Residual(Layer):
    """y = x + body(x); the skip connection is added in FP32 before any
    re-quantization of the block output."""

    def __init__(self, ctx, name, body: List[Layer]):
        super().__init__(ctx, name)
        self.body = body
        self.precision = next(
            (l.precision for l in body if l.precision is not None), None)

    def iter_layers(self):
        yield self
        for l in self.body:
            yield from l.iter_layers()

    def forward(self, x, train):
        x0 = to_fp32(x)
        y = x
        for l in self.body:
            y = l.forward(y, train)
        return x0 + to_fp32(y)

    def backward(self, g):
        g = np.asarray(g, np.float32)
        gb = g
        for l in reversed(self.body):
            gb = l.backward(gb)
        return gb + g


# === model container ===


class Model:
    """A layer pipeline with the quantization boundaries compiled in.

    An activation is re-quantized after the producing stage (post-ReLU, in
    FP32) only when the next layer to read it consumes integers: a DFP
    compute layer, or max pooling, ReLU or flatten on the way to one, which
    then operate on integer elements.  Where an FP32 op such as average
    pooling reads it first, no boundary is placed: that op would dequantize
    at once, and the DFP layer after it quantizes the op's output itself.
    Layers self-quantize FP32 inputs as that fallback, so every FP32 -> DFP
    boundary quantizes exactly once.
    """

    out_shape: Optional[tuple] = None   # per-sample output; training.build_model sets it

    def __init__(self, layers: List[Layer], ctx: RunContext):
        self.layers = layers
        self.ctx = ctx
        self._plan = self._compile_boundaries()
        self.refresh_quantized()

    def _compile_boundaries(self) -> List[bool]:
        def reads_integers(j: int) -> bool:
            for l in self.layers[j:]:
                if l.precision is not None:
                    return l.precision == "dfp"
                if not isinstance(l, (ReLU, MaxPool, Flatten)):
                    return False
            return False

        plan = []
        for i in range(len(self.layers)):
            nxt = self.layers[i + 1] if i + 1 < len(self.layers) else None
            defer = isinstance(nxt, ReLU)  # post-ops ride FP32 until after ReLU
            plan.append(not defer and reads_integers(i + 1))
        return plan

    def iter_layers(self):
        for l in self.layers:
            yield from l.iter_layers()

    def refresh_quantized(self):
        for l in self.iter_layers():
            l.refresh_quantized()

    def forward(self, x: np.ndarray, train: bool = True, trace: Optional[list] = None):
        act: Activation = np.asarray(x, dtype=np.float32)
        for i, l in enumerate(self.layers):
            act = l.forward(act, train)
            if self._plan[i] and not isinstance(act, DfpTensor):
                act = self.ctx.q.q_a(l.name + ".out", act)
            if trace is not None:
                trace.append((l.name, act))
        return to_fp32(act)

    def backward(self, g: np.ndarray) -> np.ndarray:
        for l in reversed(self.layers):
            g = l.backward(g)
        return g
