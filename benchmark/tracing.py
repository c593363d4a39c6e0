"""In-memory spans around the dfp package's public calls.

A span is (id, name, parent, root, start, end, attrs).  The benchmark opens
spans around its own calls into the package (step, forward, loss,
backward, sgd_step, evaluate, make_dataset, build_model), and
`instrument` patches the package's public calls at the names their
callers bound:

* `dfp.layers` imports quantize, dequantize, conv_fprop, gemm_dfp and
  pack_weights by name, so those are patched there, not in dfp.tensor or
  dfp.kernels;
* `dfp.kernels.gemm_dfp` calls its own module's pack_weights;
* `dfp.datasets` imports read_idx_images / read_idx_labels from fileio;
* each layer instance's forward / backward.

A span's self time is its duration minus the time its child spans cover.
Kernel calls are attributed to the pass that issued them: a call under a
layer's forward is fprop; under its backward, the call whose output
backs the layer's weight gradient is wgrad and any other is bprop.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from collections import defaultdict
from typing import Dict, List, Optional

import numpy as np

import dfp.datasets
import dfp.kernels
import dfp.layers

LAYER_KINDS = {"Conv": "conv", "Dense": "fc", "BatchNorm": "batchnorm",
               "MaxPool": "maxpool", "AvgPool": "avgpool",
               "Residual": "residual"}
KIND_NAMES = tuple(LAYER_KINDS.values()) + ("other",)   # relu, flatten
KERNEL_PASSES = ("fprop", "bprop", "wgrad")
KERNEL_CALLS = ("kernels.conv_fprop", "kernels.gemm_dfp")
COUNTERS = ("fma_count", "convert_count", "spill_count", "overflow_count")
MACS_PER_FMA = 128   # 16 int32 lanes x 8 int16 products per emulated FMA


@dataclasses.dataclass
class Span:
    sid: int
    name: str
    parent: Optional[int]
    root: int
    start: float
    end: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)


class Tracer:
    """Records spans while enabled; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, parent.sid if parent else None,
                 parent.root if parent else len(self.spans),
                 time.perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def dump(self) -> List[list]:
        """Spans as JSON-ready rows: id, name, parent, root, start, end, attrs."""
        return [[s.sid, s.name, s.parent, s.root, s.start, s.end,
                 {k: v for k, v in s.attrs.items()
                  if isinstance(v, (int, float, str))}]
                for s in self.spans]


# === patching ===


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as s:
            out = fn(*args, **kwargs)
            if after is not None:
                after(s, args, out)
            return out
    return traced


def _on_quantize(s: Span, args, out) -> None:
    s.attrs["elems"] = int(np.size(out.elements))


def _on_kernel(tracer: Tracer):
    def after(s: Span, args, out) -> None:
        result, stats = out
        a, b = args[0], args[1]
        b_bytes = b.data.nbytes if isinstance(b, dfp.kernels.PackedWeights) \
            else b.elements.nbytes
        s.attrs.update({c: getattr(stats, c) for c in COUNTERS})
        s.attrs["bytes"] = a.elements.nbytes + b_bytes + result.nbytes
        s.attrs["layer"] = "-"
        s.attrs["pass"] = "other"
        parent = tracer.spans[s.parent] if s.parent is not None else None
        if parent is not None and "layer" in parent.attrs:
            s.attrs["layer"] = parent.attrs["layer"]
            if parent.attrs["dir"] == "fwd":
                s.attrs["pass"] = "fprop"
            else:   # classified once the backward pass has set the layer's gW
                parent.attrs.setdefault("_kernel_outs", []).append((s, result))
    return after


def _layer_wrap(tracer: Tracer, layer, direction: str, fn):
    kind = LAYER_KINDS.get(type(layer).__name__, "other")

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(f"layers.{layer.name}.{direction}", layer=layer.name,
                         kind=kind, dir=direction) as s:
            out = fn(*args, **kwargs)
            for ks, result in s.attrs.pop("_kernel_outs", ()):
                gw = getattr(layer, "gW", None)
                ks.attrs["pass"] = ("wgrad" if gw is not None
                                    and np.may_share_memory(result, gw) else "bprop")
            return out
    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer, models=()):
    """Patch the package's public calls (and each model's layers) to record
    spans into `tracer`; restores every original on exit.  Patches nothing
    for a disabled tracer."""
    if not tracer.enabled:
        yield tracer
        return
    kernel_after = _on_kernel(tracer)
    targets = [
        (dfp.layers, "quantize", "tensor.quantize", _on_quantize),
        (dfp.layers, "dequantize", "tensor.dequantize", None),
        (dfp.layers, "conv_fprop", "kernels.conv_fprop", kernel_after),
        (dfp.layers, "gemm_dfp", "kernels.gemm_dfp", kernel_after),
        (dfp.layers, "pack_weights", "kernels.pack_weights", None),
        (dfp.kernels, "pack_weights", "kernels.pack_weights", None),
        (dfp.datasets, "read_idx_images", "fileio.read_idx", None),
        (dfp.datasets, "read_idx_labels", "fileio.read_idx", None),
    ]
    saved = []
    layers = [layer for m in models for layer in m.iter_layers()]
    try:
        for module, attr, name, after in targets:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, _wrap(tracer, name, getattr(module, attr), after))
        for layer in layers:
            layer.forward = _layer_wrap(tracer, layer, "fwd", layer.forward)
            layer.backward = _layer_wrap(tracer, layer, "bwd", layer.backward)
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
        for layer in layers:
            layer.__dict__.pop("forward", None)
            layer.__dict__.pop("backward", None)


# === aggregation ===


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Seconds of each span not covered by its direct children."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return {s.sid: (s.end - s.start) - child[s.sid] for s in spans}


def _metric_key(s: Span) -> str:
    if s.name == "training.step":
        return "training.other"
    if s.name.startswith("layers."):
        return f"layers.{s.attrs['kind']}.{s.attrs['dir']}"
    if s.name in KERNEL_CALLS:
        return f"kernels.{s.attrs['pass']}"
    return s.name


def step_breakdown(spans: List[Span], roots: List[Span]):
    """Per-step mean self time (ms) by metric key and by layer instance, plus
    exact totals, over the spans under the given step roots."""
    root_ids = {r.sid for r in roots}
    st = self_times(spans)
    by_key, by_instance = defaultdict(float), defaultdict(float)
    totals = defaultdict(int)
    per_layer_pass = defaultdict(lambda: defaultdict(int))
    for s in spans:
        if s.root not in root_ids:
            continue
        by_key[_metric_key(s)] += st[s.sid]
        if "layer" in s.attrs and "dir" in s.attrs:
            by_instance[s.name] += st[s.sid]
        if s.name == "tensor.quantize":
            totals["quantize_elems"] += s.attrs["elems"]
        if s.name in KERNEL_CALLS:
            totals["calls"] += 1
            totals["bytes"] += s.attrs["bytes"]
            row = per_layer_pass[(s.attrs["layer"], s.attrs["pass"])]
            row["calls"] += 1
            for c in COUNTERS:
                totals[c] += s.attrs[c]
                row[c] += s.attrs[c]
    n = max(len(roots), 1)
    scale = 1e3 / n
    return ({k: v * scale for k, v in by_key.items()},
            {k: v * scale for k, v in by_instance.items()},
            dict(totals), {k: dict(v) for k, v in per_layer_pass.items()})


def kernel_totals(spans: List[Span], roots: List[Span]) -> Dict[str, int]:
    """Summed KernelStats counters of every kernel call under the roots."""
    root_ids = {r.sid for r in roots}
    out = dict.fromkeys(COUNTERS, 0)
    for s in spans:
        if s.root in root_ids and s.name in KERNEL_CALLS:
            for c in COUNTERS:
                out[c] += s.attrs[c]
    return out
