"""One benchmark run: set-up, FP32 and DFP16 training, output checks, metrics.

The training step is driven from here through the package's public calls
(Model.forward / backward, training.softmax_xent, training.sgd_step,
training.evaluate) in exactly the order `training.train_loop` uses, so each
step can be timed from outside.  The metrics CSV `wall_ms` is not used: on
each epoch's last batch it also covers the validation pass.

Each precision first trains a fixed schedule (the workload config's
epochs, validating at each epoch end) whose losses, validation accuracy
and kernel counters are deterministic for a seed; their sha256 digests let
a later change show bit identity.  It then keeps stepping, with a timed
validation pass after every few steps, until it has had its share of
--seconds and enough step samples for the 90th percentile.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional

import numpy as np

from dfp import datasets, training
from dfp.layers import RunContext

import tracing
from workloads import Workload

PRECISIONS = ("fp32", "dfp16")
MIN_STEPS = 110       # p90 is reported only with at least ten samples beyond it
MIN_UNTRACED = 30     # untraced steps a traced run times to measure its overhead
EXTRA_SLICE = 6       # steps per turn once the fixed schedules are done
ACC_FLOOR = 0.5       # ten balanced classes: chance is 0.1
ACC_GAP = 0.02        # |DFP16 - FP32| validation accuracy at equal steps
LOSS_WINDOW = 10      # first/last steps compared by the loss-decrease check
LOSSES = {"softmax_xent": training.softmax_xent, "mse": training.mse}

END_TO_END_UNITS = {
    "setup_s": "s",
    "fp32_step_ms_p50": "ms", "fp32_step_ms_p90": "ms",
    "dfp16_step_ms_p50": "ms", "dfp16_step_ms_p90": "ms",
    "fp32_eval_samples_per_s": "1/s", "dfp16_eval_samples_per_s": "1/s",
    "fp32_val_acc": "fraction", "dfp16_val_acc": "fraction",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


class Tally:
    """Operations attempted and failed: set-up repeats, training steps,
    validation passes and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED check: {what}")


@dataclasses.dataclass
class PrecisionRun:
    rows: List[tuple] = dataclasses.field(default_factory=list)
    step_ms: List[float] = dataclasses.field(default_factory=list)
    untraced_ms: List[float] = dataclasses.field(default_factory=list)
    eval_s: List[float] = dataclasses.field(default_factory=list)
    counters: Dict[str, int] = dataclasses.field(default_factory=dict)
    val_acc: Optional[float] = None
    n_fixed: int = 0
    error: Optional[str] = None

    def rows_digest(self) -> str:
        """sha256 of the fixed-schedule metrics rows (iteration, epoch,
        train_loss, val_acc, overflow_count; wall time excluded), floats
        in hex so the digest is bit exact."""
        h = hashlib.sha256()
        for it, ep, loss, val, ovf in self.rows:
            v = "" if val == "" else float(val).hex()
            h.update(f"{it},{ep},{float(loss).hex()},{v},{ovf}\n".encode())
        return h.hexdigest()

    def counters_digest(self) -> str:
        return hashlib.sha256(json.dumps(self.counters, sort_keys=True)
                              .encode()).hexdigest()


@dataclasses.dataclass
class Result:
    metrics: Dict[str, dict]
    attempted: int
    failed: int
    correct: bool
    lines: List[str]
    digests: Dict[str, str]
    spans: Optional[list] = None


# === set-up ===


def _build(cfg, data, seed: int, precision: str):
    """Model construction exactly as experiments.run_training does it."""
    init_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    ctx = RunContext(q=training.make_quantizers(cfg, seed),
                     policy=training.make_policy(cfg), engine="fast",
                     icblk=cfg.icblk, rb_size=cfg.rb_size)
    return ctx, training.build_model(cfg, data.in_shape, ctx, init_rng,
                                     precision=precision)


def setup(wl: Workload, cfg, seed: int, workdir: str, tracer, tally: Tally):
    """Acquire the dataset and build both models, `setup_repeats` times.

    An IDX workload's files are rendered and written first, outside the
    timed region, so its set-up measures the fileio reader."""
    source = wl.source
    if wl.from_idx:
        source = os.path.join(workdir, "idx")
        datasets.export_idx(wl.source, source, seed)
    times = []
    with tracing.instrument(tracer):
        for _ in range(wl.setup_repeats):
            tally.attempted += 1
            t0 = time.perf_counter()
            with tracer.span("setup"):
                with tracer.span("datasets.make_dataset"):
                    data = datasets.make_dataset(source, seed)
                built = {}
                for prec in PRECISIONS:
                    with tracer.span("training.build_model"):
                        built[prec] = _build(cfg, data, seed, prec)
            times.append(time.perf_counter() - t0)
    return data, built, times


# === training ===


def _batches(shuffle_rng, cfg, n: int):
    """(epoch, batch, indices, lr) forever, in train_loop's order."""
    bs = cfg.batch_size
    for epoch in itertools.count():
        perm = shuffle_rng.permutation(n)
        lr = training.lr_at(cfg, epoch)
        for b in range(n // bs):
            yield epoch, b, perm[b * bs: (b + 1) * bs], lr


class Trainer:
    """One precision's training run, advanced a slice at a time so the FP32
    and DFP16 runs can alternate; only one step ever runs at a time."""

    def __init__(self, precision: str, cfg, data, ctx, model, seed: int,
                 tracer, tally: Tally):
        self.precision, self.cfg, self.data = precision, cfg, data
        self.ctx, self.model = ctx, model
        self.tracer, self.tally = tracer, tally
        self.loss_fn = LOSSES[cfg.loss]
        self.per_epoch = data.train_x.shape[0] // cfg.batch_size
        if self.per_epoch == 0:
            raise ValueError("training split smaller than batch size")
        self.schedule = _batches(
            np.random.default_rng(np.random.SeedSequence([seed, 1])), cfg,
            data.train_x.shape[0])
        self.iteration = 0
        self.busy_s = 0.0     # time spent in this run's steps and validations
        self.run = PrecisionRun(n_fixed=cfg.epochs * self.per_epoch)

    def _step(self, idx, lr):
        tr, model = self.tracer, self.model
        self.tally.attempted += 1
        t0 = time.perf_counter()
        with tr.span("training.step", precision=self.precision):
            xb, yb = self.data.train_x[idx], self.data.train_y[idx]
            self.ctx.q.phase, self.ctx.q.iteration = 0, self.iteration
            with tr.span("training.forward"):
                out = model.forward(xb, train=True)
            with tr.span("training.loss"):
                loss, dout = self.loss_fn(out, yb)
            if not np.isfinite(loss):
                raise training.TrainingDivergence(
                    f"non-finite loss {loss} at iteration {self.iteration}", [])
            with tr.span("training.backward"):
                model.backward(dout)
            with tr.span("training.sgd_step"):
                training.sgd_step(model, lr, self.cfg.momentum,
                                  self.cfg.weight_decay)
        self.iteration += 1
        dt = time.perf_counter() - t0
        self.busy_s += dt
        return loss, dt * 1e3

    def _evaluate(self, epoch: int) -> float:
        self.tally.attempted += 1
        t0 = time.perf_counter()
        with self.tracer.span("training.evaluate", precision=self.precision):
            acc = training.evaluate(self.model, self.data.val_x, self.data.val_y,
                                    self.cfg.loss, self.cfg.batch_size,
                                    eval_tag=epoch)
        dt = time.perf_counter() - t0
        self.busy_s += dt
        self.run.eval_s.append(dt)
        return acc

    def _guard(self, fn) -> None:
        """A failed run is counted and reported, and takes no more slices."""
        if self.run.error is not None:
            return
        try:
            fn()
        except Exception as exc:
            self.tally.failed += 1
            self.run.error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)

    def fixed_epoch(self) -> None:
        """One epoch of the fixed schedule, closed by a validation pass as in
        train_loop; the last one records accuracy and counter totals."""
        self._guard(self._fixed_epoch)

    def _fixed_epoch(self) -> None:
        run = self.run
        for epoch, b, idx, lr in itertools.islice(self.schedule, self.per_epoch):
            loss, ms = self._step(idx, lr)
            run.step_ms.append(ms)
            val = self._evaluate(epoch) if b == self.per_epoch - 1 else ""
            run.rows.append((self.iteration, epoch, loss, val,
                             self.ctx.stats.overflow_count))
        if len(run.rows) == run.n_fixed:
            run.val_acc = float(run.rows[-1][3])
            run.counters = {c: getattr(self.ctx.stats, c)
                            for c in tracing.COUNTERS}

    def extra_slice(self, count: int, timed: List[float]) -> None:
        """Steps past the fixed schedule, timed into `timed`, then one more
        timed validation pass, so throughput is sampled across the run."""
        def go():
            for _, _, idx, lr in itertools.islice(self.schedule, count):
                timed.append(self._step(idx, lr)[1])
            self._evaluate(self.cfg.epochs + len(self.run.eval_s))
        self._guard(go)


def train(trainers: Dict[str, Trainer], shares: Dict[str, float],
          seconds: float, tracer) -> None:
    """Run the fixed schedules, alternating precisions epoch by epoch, then
    keep stepping until each precision has had its share of `seconds` and
    has enough samples for the 90th percentile.

    Alternating spreads both precisions' samples over the whole run, so a
    slow spell of a shared machine hits both instead of one.  In a traced
    run only the fixed schedule is traced; the untraced steps after it
    measure the tracing overhead."""
    traced = tracer.enabled
    with tracing.instrument(tracer, [t.model for t in trainers.values()]):
        for _ in range(next(iter(trainers.values())).cfg.epochs):
            for t in trainers.values():
                t.fixed_epoch()
    tracer.enabled = False
    floor = MIN_UNTRACED if traced else MIN_STEPS

    def timed(t: Trainer) -> List[float]:
        return t.run.untraced_ms if traced else t.run.step_ms

    def pending(t: Trainer) -> bool:
        return t.run.error is None and (t.busy_s < seconds * shares[t.precision]
                                        or len(timed(t)) < floor)

    while any(pending(t) for t in trainers.values()):
        t = min((t for t in trainers.values() if pending(t)),
                key=lambda t: t.busy_s / shares[t.precision])
        t.extra_slice(EXTRA_SLICE, timed(t))


# === checks and metrics ===


def _check_run(precision: str, run: PrecisionRun, tally: Tally) -> None:
    tally.check(run.error is None, f"{precision} training raised {run.error}")
    if run.error is not None:
        return
    losses = [r[2] for r in run.rows]
    w = max(1, min(LOSS_WINDOW, len(losses) // 4))
    first, last = float(np.mean(losses[:w])), float(np.mean(losses[-w:]))
    tally.check(last < first, f"{precision} loss did not decrease: first "
                f"{w} steps {first:.4g}, last {w} steps {last:.4g}")
    tally.check(run.val_acc >= ACC_FLOOR,
                f"{precision} val_acc {run.val_acc:.4f} < {ACC_FLOOR}")
    uses_kernels = run.counters["fma_count"] > 0
    tally.check(uses_kernels == (precision == "dfp16"),
                f"{precision} integer kernel use is {uses_kernels}")


def _percentile(values: List[float], p: float):
    """(value, samples beyond it); None when fewer than ten lie beyond."""
    v = float(np.percentile(values, p))
    beyond = sum(1 for x in values if x > v)
    return (v, beyond) if beyond >= 10 else None


def end_to_end(runs: Dict[str, PrecisionRun], setup_times, n_val: int,
               tally: Tally, lines: List[str]) -> Dict[str, float]:
    m = {"setup_s": statistics.median(setup_times)}
    lines.append(f"setup_s: median of {len(setup_times)} set-ups "
                 f"{[round(t, 4) for t in setup_times]}")
    for p, run in runs.items():
        if run.error is not None:
            continue
        for q in (50, 90):
            got = _percentile(run.step_ms, q)
            tally.check(got is not None,
                        f"{p} step p{q}: fewer than ten of {len(run.step_ms)} "
                        f"samples beyond it")
            if got is not None:
                m[f"{p}_step_ms_p{q}"] = got[0]
                lines.append(f"{p}_step_ms_p{q}: n={len(run.step_ms)} steps, "
                             f"{got[1]} beyond")
        m[f"{p}_eval_samples_per_s"] = statistics.median(
            n_val / t for t in run.eval_s)
        lines.append(f"{p}_eval_samples_per_s: median of {len(run.eval_s)} "
                     f"validation passes over {n_val} samples")
        m[f"{p}_val_acc"] = run.val_acc
        lines.append(f"{p}_val_acc: after {run.n_fixed} steps")
    if "fp32_step_ms_p50" in m and "dfp16_step_ms_p50" in m:
        lines.append("dfp16_fp32_step_ratio (derived, not gated): "
                     f"{m['dfp16_step_ms_p50'] / m['fp32_step_ms_p50']:.4f}")
    return m


def per_layer(tracer, runs: Dict[str, PrecisionRun], lines: List[str]
              ) -> Dict[str, tuple]:
    spans = tracer.spans
    st = tracing.self_times(spans)
    m: Dict[str, tuple] = {}

    setup_roots = [s for s in spans if s.name == "setup"]
    for metric, name in (("datasets.make_dataset_s", "datasets.make_dataset"),
                         ("fileio.read_idx_s", "fileio.read_idx"),
                         ("training.build_model_s", "training.build_model")):
        per_repeat = [sum((st[s.sid] for s in spans
                           if s.root == r.sid and s.name == name), 0.0)
                      for r in setup_roots]
        m[metric] = (statistics.median(per_repeat), "s")

    for p, run in runs.items():
        steps = [s for s in spans if s.name == "training.step"
                 and s.attrs.get("precision") == p]
        evals = [s for s in spans if s.name == "training.evaluate"
                 and s.attrs.get("precision") == p]
        by_key, by_inst, totals, table = tracing.step_breakdown(spans, steps)
        for k in ("forward", "backward", "loss", "sgd_step", "other"):
            m[f"{p}.training.{k}_ms"] = (by_key.get(f"training.{k}", 0.0), "ms")
        m[f"{p}.training.evaluate_ms"] = (
            1e3 * statistics.mean(s.end - s.start for s in evals) if evals
            else 0.0, "ms")
        traced_p50 = statistics.median(run.step_ms) if run.step_ms else 0.0
        untraced_p50 = statistics.median(run.untraced_ms) if run.untraced_ms else 0.0
        m[f"{p}.training.step_ms"] = (traced_p50, "ms")
        m[f"{p}.trace.overhead_ms"] = (traced_p50 - untraced_p50, "ms")
        for kind in tracing.KIND_NAMES:
            for d in ("fwd", "bwd"):
                m[f"{p}.layers.{kind}.{d}_ms"] = (
                    by_key.get(f"layers.{kind}.{d}", 0.0), "ms")
        step_mean = (1e3 * statistics.mean(s.end - s.start for s in steps)
                     if steps else 0.0)
        kernel_ms = sum(by_key.get(f"kernels.{k}", 0.0) for k in
                        tracing.KERNEL_PASSES + ("other",))
        kernel_ms += by_key.get("kernels.pack_weights", 0.0)
        lines.append(
            f"{p} accounting per step: traced mean {step_mean:.3f} ms = "
            f"sum of self times {sum(by_key.values()):.3f} ms; kernels "
            f"{kernel_ms:.3f} ms ({kernel_ms / step_mean if step_mean else 0:.1%}),"
            f" non-kernel {step_mean - kernel_ms:.3f} ms; traced p50 "
            f"{traced_p50:.3f} - untraced p50 {untraced_p50:.3f} = overhead "
            f"{traced_p50 - untraced_p50:.3f} ms ({len(run.step_ms)} traced, "
            f"{len(run.untraced_ms)} untraced steps)")
        for name in sorted(by_inst):
            lines.append(f"  {p} {name}: {by_inst[name]:.3f} ms/step self")
        if p != "dfp16":
            continue
        m["dfp16.tensor.quantize_ms"] = (by_key.get("tensor.quantize", 0.0), "ms")
        m["dfp16.tensor.quantize_elems"] = (totals.get("quantize_elems", 0), "count")
        m["dfp16.tensor.dequantize_ms"] = (by_key.get("tensor.dequantize", 0.0), "ms")
        for k in tracing.KERNEL_PASSES:
            m[f"dfp16.kernels.{k}_ms"] = (by_key.get(f"kernels.{k}", 0.0), "ms")
        m["dfp16.kernels.pack_weights_ms"] = (
            by_key.get("kernels.pack_weights", 0.0), "ms")
        m["dfp16.kernels.step_share"] = (
            kernel_ms / step_mean if step_mean else 0.0, "ratio")
        m["dfp16.kernels.calls"] = (totals.get("calls", 0), "count")
        for c in tracing.COUNTERS:
            m[f"dfp16.kernels.{c}"] = (totals.get(c, 0), "count")
        macs = tracing.MACS_PER_FMA * totals.get("fma_count", 0)
        m["dfp16.kernels.macs"] = (macs, "count")
        m["dfp16.kernels.bytes_computed"] = (totals.get("bytes", 0), "B")
        conv = totals.get("convert_count", 0)
        m["dfp16.kernels.overflow_per_chain"] = (
            totals.get("overflow_count", 0) / conv if conv else 0.0, "ratio")
        busy_s = (kernel_ms - by_key.get("kernels.pack_weights", 0.0)) \
            * len(steps) / 1e3
        m["dfp16.kernels.gmacs_per_s"] = (
            macs / busy_s / 1e9 if busy_s else 0.0, "GMAC/s")
        lines.append(f"dfp16 kernel counters over {len(steps)} fixed steps "
                     f"(bytes computed from operand and result shapes):")
        for (layer, kpass), row in sorted(table.items()):
            lines.append(f"  {layer}.{kpass}: " + ", ".join(
                f"{k}={v}" for k, v in sorted(row.items())))
    return m


def _attribution_check(tracer, runs: Dict[str, PrecisionRun],
                       tally: Tally) -> None:
    """Every kernel call of the fixed schedule was seen by the tracer."""
    for p, run in runs.items():
        if run.error is not None:
            continue
        roots = [s for s in tracer.spans if s.attrs.get("precision") == p
                 and s.name in ("training.step", "training.evaluate")
                 and s.parent is None]
        seen = tracing.kernel_totals(tracer.spans, roots)
        tally.check(seen == run.counters,
                    f"{p} traced kernel counters {seen} != run totals "
                    f"{run.counters}")


# === one run ===


def run(wl: Workload, seed: int, seconds: float, trace: bool,
        out_dir: str) -> Result:
    cfg = training.parse_config(wl.config)
    tracer = tracing.Tracer(enabled=trace)
    tally = Tally()
    lines: List[str] = []
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=out_dir)
    try:
        data, built, setup_times = setup(wl, cfg, seed, workdir, tracer, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    trainers = {p: Trainer(p, cfg, data, *built[p], seed, tracer, tally)
                for p in PRECISIONS}
    train(trainers, {"fp32": wl.fp32_share, "dfp16": 1.0 - wl.fp32_share},
          seconds, tracer)
    runs = {p: t.run for p, t in trainers.items()}
    for p, r in runs.items():
        _check_run(p, r, tally)
    if all(r.error is None for r in runs.values()):
        gap = abs(runs["dfp16"].val_acc - runs["fp32"].val_acc)
        tally.check(gap <= ACC_GAP, f"|dfp16 - fp32| val_acc {gap:.4f} > {ACC_GAP}")
    if trace:
        _attribution_check(tracer, runs, tally)

    digests = {}
    for p, r in runs.items():
        if r.error is None:
            digests[f"{p}.rows_sha256"] = r.rows_digest()
            digests[f"{p}.counters_sha256"] = r.counters_digest()
            lines.append(f"{p} counters after {r.n_fixed} fixed steps: "
                         + json.dumps(r.counters, sort_keys=True))

    if trace:
        values = per_layer(tracer, runs, lines)
    else:
        e2e = end_to_end(runs, setup_times, data.val_x.shape[0], tally, lines)
        e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
        e2e["success_ratio"] = 1.0 - tally.failed / max(tally.attempted, 1)
        values = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    lines.extend(tally.notes)
    return Result(metrics, tally.attempted, tally.failed, tally.failed == 0,
                  lines, digests, tracer.dump() if trace else None)
