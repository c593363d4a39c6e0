"""The benchmark tracer's hooks into the package: `benchmark/tracing.py`
patches names that `dfp.layers` and `dfp.kernels` bind, and reads the
kernels' weight type.  A traced DFP16 step must record every kernel call
and every weight lowering, with counters that sum to the run's."""

import importlib.util
import pathlib
import sys

import numpy as np

from dfp.layers import RunContext
from dfp.training import build_model, make_quantizers, parse_config, sgd_step, softmax_xent

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses resolve names there
    spec.loader.exec_module(module)
    return module


def test_traced_dfp16_step_records_kernels_and_weight_lowering():
    tracing = _load_tracing()
    cfg = parse_config({"layers": [
        {"type": "conv", "out_ch": 4, "kernel": 3, "pad": 1, "precision": "fp32"},
        {"type": "relu"},
        {"type": "conv", "out_ch": 8, "kernel": 3, "pad": 1},
        {"type": "relu"},
        {"type": "flatten"},
        {"type": "fc", "out_features": 3}], "loss": "softmax_xent", "batch_size": 4})
    ctx = RunContext(q=make_quantizers(cfg, seed=3))
    model = build_model(cfg, (2, 6, 6), ctx, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 2, 6, 6)).astype(np.float32)
    y = np.array([0, 1, 2, 0])

    tracer = tracing.Tracer(True)
    with tracing.instrument(tracer, [model]), tracer.span("training.step") as root:
        _, dout = softmax_xent(model.forward(x), y)
        model.backward(dout)
        with tracer.span("training.sgd_step") as update:
            sgd_step(model, 0.1, 0.9, 0.0)
        model.forward(x, train=False)

    names = [s.name for s in tracer.spans]
    assert {"kernels.conv_fprop", "kernels.gemm_dfp", "kernels.pack_weights"} <= set(names)
    # each DFP conv and fc lowers its forward and input-gradient weights once
    # per update, and neither forward, backward nor evaluation lowers any
    packs = [s for s in tracer.spans if s.name == "kernels.pack_weights"]
    assert len(packs) == 2 * 2
    assert all(s.parent == update.sid for s in packs)
    passes = {s.attrs["pass"] for s in tracer.spans if s.name in tracing.KERNEL_CALLS}
    assert passes == {"fprop", "bprop", "wgrad"}
    assert ctx.stats.fma_count > 0
    assert tracing.kernel_totals(tracer.spans, [root]) == {
        c: getattr(ctx.stats, c) for c in tracing.COUNTERS}
