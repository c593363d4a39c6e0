"""Tier-1 pins the training bits of both benchmark networks.

`Workload.smoke()` runs of the parity and resnet_shadow networks (the
workload configs of `benchmark/workloads.py`, read-only, at one epoch of
eight batches) train in both precisions through `run_training`.  The
kernel counters are integers fixed by shapes and data, so they are pinned
on every build.  The metrics rows pass through FP32 sgemms, whose last
bits depend on the BLAS build, so their digests are pinned per build; a
build with no pinned entry trains twice and the two runs must agree.  A
change that moves a training bit on purpose updates these pins.
"""

import hashlib
import importlib.util
import pathlib
import sys

import numpy as np

from dfp.datasets import export_idx
from dfp.experiments import run_training

_BENCH = pathlib.Path(__file__).resolve().parents[1] / "benchmark"
SEED = 1
COUNTERS = ("fma_count", "convert_count", "spill_count", "overflow_count")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses resolve names there
    spec.loader.exec_module(module)
    return module


def rows_digest(rows) -> str:
    """sha256 of the metrics rows, every column but wall_ms, floats in hex."""
    h = hashlib.sha256()
    for r in rows:
        fields = [r[k] for k in ("iteration", "epoch", "train_loss", "val_acc",
                                 "overflow_count")]
        h.update(",".join(v.hex() if isinstance(v, float) else str(v)
                          for v in fields).encode() + b"\n")
    return h.hexdigest()


def build_key(blas: dict) -> str:
    """The build a row digest holds for: numpy and its BLAS library."""
    return f"numpy {np.__version__}, {blas['name']} {blas['version']} {blas['core']}"


# (workload, precision): counter totals of a seed-1 smoke run
PINNED_COUNTERS = {
    ("parity", "fp32"): (0, 0, 0, 0),
    ("parity", "dfp16"): (17611776, 657664, 28672, 0),
    ("resnet_shadow", "fp32"): (0, 0, 0, 0),
    ("resnet_shadow", "dfp16"): (8451520, 586768, 23716, 0),
}

# build_key: {(workload, precision): row digest}; the same at 1 and 2
# OpenBLAS threads
PINNED_ROWS = {
    "numpy 2.4.6, scipy-openblas 0.3.31.188.0 SkylakeX": {
        ("parity", "fp32"): "bd1c3ddbba3f33ae47ae45825df2ae4fea1f062edb9135b2f44b4bd6d13625c5",
        ("parity", "dfp16"): "a16960b88f0b8add808fb03f2ecf03a2fb7296996645bdb21118c15aff42fa41",
        ("resnet_shadow", "fp32"):
            "9f2ba53b64acb557ac10e9bbd270ae3878676c46e2d347171112728384d0e577",
        ("resnet_shadow", "dfp16"):
            "21b30480dce4cf5b6ef58903bba59c65ca5d14f6675331f8ee03116870d62f80",
    },
}


def _train(wl, precision, workdir):
    source = wl.source
    if wl.from_idx:     # as the benchmark does: render, write, read back
        source = str(workdir / "idx")
        if not (workdir / "idx").exists():
            export_idx(wl.source, source, SEED)
    summary = run_training(wl.config, source, precision, SEED)
    return rows_digest(summary["rows"]), tuple(summary[c] for c in COUNTERS)


def test_smoke_runs_keep_their_training_bits(tmp_path):
    workloads = _load("workloads").WORKLOADS
    pins = PINNED_ROWS.get(build_key(_load("provenance").blas()))
    for name in ("parity", "resnet_shadow"):
        wl = workloads[name].smoke()
        for precision in ("fp32", "dfp16"):
            run = (name, precision)
            digest, counters = _train(wl, precision, tmp_path / name)
            assert counters == PINNED_COUNTERS[run], run
            if pins is not None:
                assert digest == pins[run], (run, digest)
            else:       # no pin for this build: the run must at least repeat
                assert _train(wl, precision, tmp_path / name) == (digest, counters), run
