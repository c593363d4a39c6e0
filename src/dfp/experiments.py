"""Run orchestration: training runs, kernel benchmarks, metrics comparison.

Every training run writes its resolved configuration (the full layer list
plus all solver and quantizer settings, data source, seed, precision)
alongside the metrics CSV; feeding that file back through `dfp train
--config` reproduces the run bit for bit.
"""

from __future__ import annotations

import json
import math
import time
from typing import List, Optional, Tuple

import numpy as np

from .arith import Empirical
from .datasets import DatasetHandle, make_dataset
from .fileio import write_metrics
from .kernels import (ConvSpec, chain_length, conv_fprop, default_blocking, overhead_ratio,
                      pack_weights)
from .layers import RunContext
from .tensor import DfpTensor, Nearest, QuantConfig, check_format, dequantize, quantize
from .training import (TrainingDivergence, _check_type, build_model, make_policy,
                       make_quantizers, parse_config, train_loop)

# === training runs ===


def run_training(config: dict, data_source: str, precision: str, seed: int,
                 out_csv: Optional[str] = None,
                 data: Optional[DatasetHandle] = None) -> dict:
    """Train once; returns a summary with the per-iteration metrics rows."""
    cfg = parse_config(config)
    if data is None:
        data = make_dataset(data_source, seed)
    init_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    ctx = RunContext(q=make_quantizers(cfg, seed), policy=make_policy(cfg),
                     icblk=cfg.icblk, rb_size=cfg.rb_size)
    model = build_model(cfg, data.in_shape, ctx, init_rng, precision=precision)
    # every target must fit the model's per-sample output before the first step
    if cfg.loss == "softmax_xent" and len(model.out_shape) != 1:
        raise ValueError(f"softmax_xent needs a flat output per sample, got shape "
                         f"{model.out_shape}")
    width = math.prod(model.out_shape)
    for split, targets in (("training", data.train_y), ("validation", data.val_y)):
        if cfg.loss == "mse":
            target_width = math.prod(targets.shape[1:])
            if target_width != width:
                raise ValueError(f"{split} split's targets are {target_width} wide, "
                                 f"but the mse output is {width} wide")
        else:   # softmax_xent: every label must index one of the outputs
            bad = targets[(targets < 0) | (targets >= width)]
            if bad.size:
                raise ValueError(f"{split} split has label {bad[0]}, outside the "
                                 f"classifier's {width} outputs")
    t0 = time.perf_counter()
    rows: List[dict] = []
    try:
        train_loop(model, cfg, data.train_x, data.train_y,
                   data.val_x, data.val_y, seed, rows)
    except (TrainingDivergence, ValueError, OverflowError):
        # a failed run keeps the rows of the iterations it completed
        if out_csv:
            write_metrics(out_csv, rows)
        raise
    elapsed = time.perf_counter() - t0
    final_val = next((r["val_acc"] for r in reversed(rows) if r["val_acc"] != ""), "")
    resolved = {
        "resolved_run": True,
        "config": cfg.to_dict(),
        "data": data_source,
        "precision": precision,
        "seed": seed,
        "data_checksum": data.checksum,
    }
    if out_csv:
        write_metrics(out_csv, rows)
        with open(out_csv + ".resolved.json", "w") as fh:
            json.dump(resolved, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return {
        "rows": rows,
        "final_val_acc": final_val,
        "overflow_count": ctx.stats.overflow_count,
        "fma_count": ctx.stats.fma_count,
        "convert_count": ctx.stats.convert_count,
        "spill_count": ctx.stats.spill_count,
        "elapsed_s": elapsed,
    }


# The fields of a resolved run that replace command-line values, by type.
_RESOLVED_FIELDS = {"config": dict, "data": str, "precision": str, "seed": int}


def load_run_request(path: str) -> dict:
    """Read a --config JSON file; accepts plain configs and resolved runs.

    A resolved run must carry its config, and each of its fields that is
    present must have its type (a seed is an int, not a bool, and not
    negative); otherwise a ValueError names the key.  A file that is not
    UTF-8 JSON is a ValueError naming the file and the position."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: byte {exc.start}: not UTF-8 ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno} column {exc.colno} (char {exc.pos}): "
                         f"not JSON ({exc.msg})") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: top level must be a JSON object, "
                         f"got {type(raw).__name__}")
    if not raw.get("resolved_run"):
        return {"resolved_run": False, "config": raw}
    if "config" not in raw:
        raise ValueError(f"{path}: resolved run is missing key 'config'")
    for key, kind in _RESOLVED_FIELDS.items():
        if key in raw:
            _check_type(f"{path}: resolved run key {key!r}", raw[key], kind)
    if raw.get("seed", 0) < 0:
        raise ValueError(f"{path}: resolved run key 'seed' must be >= 0, got {raw['seed']}")
    return raw


# === benchmark input generation ===


def _bench_operands(shape_a, shape_b, dist: str, pre_shift: int,
                    seed: int) -> Tuple[DfpTensor, DfpTensor]:
    check_format(16, pre_shift)
    if dist == "gaussian":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
        cfg = QuantConfig(bit_width=16, rounding=Nearest(), pre_shift=pre_shift)
        a = quantize(rng.standard_normal(shape_a).astype(np.float32), cfg)
        b = quantize(rng.standard_normal(shape_b).astype(np.float32), cfg)
        return a, b
    if dist == "adversarial":
        # every element at the containment limit, worst case for chain growth
        lim = (1 << (15 - pre_shift)) - 1
        a = DfpTensor(np.full(shape_a, lim, np.int16), -14, 16)
        b = DfpTensor(np.full(shape_b, lim, np.int16), -14, 16)
        return a, b
    raise ValueError(f"unknown input distribution {dist!r}")


BENCH_HEADER = ("trial", "m", "n", "k", "icblk", "rb", "chain", "fma_count",
                "convert_count", "spill_count", "overflow_count",
                "analytic_ratio", "measured_ratio", "rel_err", "wall_ms")


def run_bench_conv(shape: Tuple[int, int, int, int, int, int, int, int],
                   icblk: Optional[int] = None, rb: int = 28, pre_shift: int = 1,
                   trials: int = 1, seed: int = 0, dist: str = "gaussian",
                   n_batch: int = 1) -> List[dict]:
    """Convolution benchmark rows, shape = (C, K, H, W, KH, KW, stride, pad):
    one per trial of conv_fprop with shadow counting on, with its counters,
    the instruction-ratio check and the error against a direct FP64
    convolution.  m counts output rows, n_batch * OH * OW.  An (M x K) by
    (K x N) GEMM is the 1x1 case (K, N, 1, 1, 1, 1, 1, 0) with n_batch M.
    wall_ms includes lowering the weights to the kernels' weight matrix
    (pack_weights), as a training run does once per weight update."""
    c, k, h, w, kh, kw, stride, pad = shape
    spec = ConvSpec(c, k, h, w, kh, kw, stride, pad)
    blk = default_blocking(spec, rb_size=rb, icblk=icblk)
    chain = chain_length(spec, blk)
    pol = Empirical(shadow_check=True)
    rows = []
    for trial in range(trials):
        x, wt = _bench_operands((n_batch, c, h, w), (k, c, kh, kw), dist, pre_shift,
                                seed + trial)
        t0 = time.perf_counter()
        out, stats = conv_fprop(x, pack_weights(wt), spec, blk, pol)
        wall = (time.perf_counter() - t0) * 1e3
        ref = _conv_oracle_f64(dequantize(x), dequantize(wt), stride, pad)
        denom = float(np.linalg.norm(ref))
        rel = float(np.linalg.norm(out.astype(np.float64) - ref)) / max(denom, 1e-30)
        rows.append({
            "trial": trial, "m": n_batch * spec.oh * spec.ow, "n": k,
            "k": c * kh * kw, "icblk": blk.icblk, "rb": rb,
            "chain": chain,
            "fma_count": stats.fma_count,
            "convert_count": stats.convert_count,
            "spill_count": stats.spill_count,
            "overflow_count": stats.overflow_count,
            "analytic_ratio": float(overhead_ratio(spec, blk)),
            "measured_ratio": float(stats.measured_ratio()),
            "rel_err": rel,
            "wall_ms": wall,
        })
    return rows


def _conv_oracle_f64(x: np.ndarray, w: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """Direct FP64 convolution reference."""
    x = np.asarray(x, np.float64)
    w = np.asarray(w, np.float64)
    n, c, h, ww = x.shape
    kout, _, kh, kw = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (ww + 2 * pad - kw) // stride + 1
    xp = np.zeros((n, c, h + 2 * pad, ww + 2 * pad), np.float64)
    xp[:, :, pad: pad + h, pad: pad + ww] = x
    out = np.zeros((n, kout, oh, ow), np.float64)
    for r in range(kh):
        for t in range(kw):
            view = xp[:, :, r: r + stride * (oh - 1) + 1: stride,
                      t: t + stride * (ow - 1) + 1: stride]
            out += np.einsum("nchw,kc->nkhw", view, w[:, :, r, t])
    return out


def format_bench_csv(rows: List[dict]) -> str:
    lines = [",".join(BENCH_HEADER)]
    for r in rows:
        lines.append(",".join(
            f"{r[key]:.6g}" if isinstance(r[key], float) else str(r[key])
            for key in BENCH_HEADER))
    return "\n".join(lines) + "\n"


# === metrics comparison ===


def compare_metrics(rows_a: List[dict], rows_b: List[dict], tol_acc: float,
                    tol_loss: float) -> Tuple[bool, List[str]]:
    """Compare two runs: A is the reference curve, B the candidate.

    Checks that every loss and accuracy is finite, that iteration grids
    match, that final validation accuracy differs by at most tol_acc, and
    that per-epoch mean training loss after the first epoch stays within a
    tol_loss relative envelope of the reference.  Returns (passed, report
    lines).
    """
    for run, rows in (("reference", rows_a), ("candidate", rows_b)):
        for r in rows:
            for key in ("train_loss", "val_acc"):
                if r[key] != "" and not math.isfinite(r[key]):
                    return False, [f"{run} run: {key} {r[key]} at epoch {r['epoch']}, "
                                   f"iteration {r['iteration']}", "FAIL"]
    lines = []
    grid_a = [(r["iteration"], r["epoch"]) for r in rows_a]
    grid_b = [(r["iteration"], r["epoch"]) for r in rows_b]
    if grid_a != grid_b:
        return False, [f"iteration grids differ: {len(grid_a)} rows vs "
                       f"{len(grid_b)} rows or mismatched epochs"]

    def epoch_means(rows):
        sums, counts = {}, {}
        for r in rows:
            sums[r["epoch"]] = sums.get(r["epoch"], 0.0) + r["train_loss"]
            counts[r["epoch"]] = counts.get(r["epoch"], 0) + 1
        return {e: sums[e] / counts[e] for e in sums}

    ma, mb = epoch_means(rows_a), epoch_means(rows_b)
    worst_gap, worst_epoch = 0.0, None
    for e in sorted(ma):
        if e == min(ma):
            continue  # the first epoch is still settling; excluded
        gap = abs(mb[e] - ma[e]) / max(abs(ma[e]), 1e-12)
        lines.append(f"epoch {e}: loss {ma[e]:.6g} vs {mb[e]:.6g} "
                     f"(rel gap {gap:.4f})")
        if gap > worst_gap:
            worst_gap, worst_epoch = gap, e

    va = [r["val_acc"] for r in rows_a if r["val_acc"] != ""]
    vb = [r["val_acc"] for r in rows_b if r["val_acc"] != ""]
    if len(va) != len(vb) or not va:
        return False, lines + ["validation rows differ or are absent"]
    diffs = [abs(x - y) for x, y in zip(va, vb)]
    final_gap = diffs[-1]
    lines.append(f"val acc trajectory: mean gap {np.mean(diffs):.6g}, "
                 f"max gap {max(diffs):.6g}")
    lines.append(f"final val acc: {va[-1]:.6g} vs {vb[-1]:.6g} "
                 f"(gap {final_gap:.6g}, tol {tol_acc:g})")
    ok = final_gap <= tol_acc
    if worst_epoch is not None:
        lines.append(f"worst epoch loss gap: {worst_gap:.4f} at epoch "
                     f"{worst_epoch} (tol {tol_loss:g})")
        ok = ok and worst_gap <= tol_loss
    lines.append("PASS" if ok else "FAIL")
    return ok, lines
