"""Command line front end.

Subcommands:

  quantize    convert an FP32 tensor file to the shared-exponent format
  bench-gemm  integer GEMM benchmark with instruction-count accounting
  bench-conv  integer convolution benchmark
  train       train a model from a JSON config on a dataset
  compare     compare two metrics CSV files (reference vs candidate)

All commands are single-run, sequential; exit code 0 on success, 1 on a
failed comparison, 2 on an error.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments, fileio
from .arith import POLICIES
from .kernels import ENGINES
from .tensor import ROUNDING_MODES, DfpTensor, QuantConfig, quantize, rounding_from_name
from .training import TrainingDivergence


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dfp",
        description="shared-exponent INT16 tensors and integer training")
    sub = top.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantize", help="quantize an FP32 tensor file")
    q.add_argument("--in", dest="in_path", required=True, metavar="FILE")
    q.add_argument("--out", required=True, metavar="FILE")
    q.add_argument("--bits", type=int, default=16)
    q.add_argument("--round", default="nearest", choices=tuple(ROUNDING_MODES))
    q.add_argument("--pre-shift", type=int, default=0)
    q.add_argument("--seed", type=int, default=0,
                   help="stream seed for stochastic rounding")

    def bench_common(p):
        p.add_argument("--icblk", type=int, default=None)
        p.add_argument("--rb", type=int, default=28)
        p.add_argument("--policy", default="empirical", choices=POLICIES)
        p.add_argument("--pre-shift", type=int, default=1)
        p.add_argument("--trials", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dist", default="gaussian",
                       choices=("gaussian", "adversarial"))
        p.add_argument("--engine", default="fast", choices=tuple(ENGINES))
        p.add_argument("--out", default=None, metavar="CSV",
                       help="also write rows to a CSV file")

    bg = sub.add_parser("bench-gemm", help="integer GEMM benchmark")
    bg.add_argument("--m", type=int, required=True)
    bg.add_argument("--n", type=int, required=True)
    bg.add_argument("--k", type=int, required=True)
    bench_common(bg)

    bc = sub.add_parser("bench-conv", help="integer convolution benchmark")
    bc.add_argument("--spec", required=True,
                    help="C,K,H,W,KH,KW,stride,pad")
    bc.add_argument("--batch", type=int, default=1)
    bench_common(bc)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--config", required=True, metavar="JSON")
    t.add_argument("--data", required=True,
                   help="IDX directory or generator spec like glyphs:train=4096,test=1024")
    t.add_argument("--precision", default="dfp16", choices=("fp32", "dfp16"))
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True, metavar="CSV")
    t.add_argument("--engine", default="fast", choices=tuple(ENGINES))

    c = sub.add_parser("compare", help="compare two metrics files")
    c.add_argument("--a", required=True, metavar="CSV", help="reference run")
    c.add_argument("--b", required=True, metavar="CSV", help="candidate run")
    c.add_argument("--tol-acc", type=float, default=0.005)
    c.add_argument("--tol-loss", type=float, default=0.10)
    return top


def _cmd_quantize(args) -> int:
    src = fileio.read_dft(args.in_path)
    if isinstance(src, DfpTensor):
        print(f"error: {args.in_path} is already quantized", file=sys.stderr)
        return 2
    cfg = QuantConfig(bit_width=args.bits,
                      rounding=rounding_from_name(args.round, seed=args.seed),
                      pre_shift=args.pre_shift)
    out = quantize(src, cfg)
    fileio.write_dft(args.out, out)
    print(f"quantized {args.in_path} shape {tuple(src.shape)} -> {args.out} "
          f"bits={args.bits} shared_exponent={out.shared_exponent}")
    return 0


def _cmd_bench(args) -> int:
    knobs = dict(icblk=args.icblk, rb=args.rb, policy=args.policy,
                 pre_shift=args.pre_shift, trials=args.trials, seed=args.seed,
                 dist=args.dist, engine=args.engine)
    if args.command == "bench-gemm":
        rows = experiments.run_bench_gemm(args.m, args.n, args.k, **knobs)
    else:
        parts = [p.strip() for p in args.spec.split(",")]
        if len(parts) != 8:
            print(f"error: --spec needs 8 integers C,K,H,W,KH,KW,stride,pad; "
                  f"got {len(parts)} fields", file=sys.stderr)
            return 2
        shape = tuple(int(p) for p in parts)
        rows = experiments.run_bench_conv(shape, n_batch=args.batch, **knobs)
    text = experiments.format_bench_csv(rows)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


def _cmd_train(args) -> int:
    request = experiments.load_run_request(args.config)
    if request["resolved_run"]:
        config = request["config"]
        data = request.get("data", args.data)
        precision = request.get("precision", args.precision)
        seed = request.get("seed", args.seed)
        engine = request.get("engine", args.engine)
        print(f"replaying resolved run from {args.config}")
    else:
        config, data, precision = request["config"], args.data, args.precision
        seed, engine = args.seed, args.engine
    summary = experiments.run_training(config, data, precision, seed,
                                       out_csv=args.out, engine=engine)
    final = summary["final_val_acc"]
    final_txt = f"{final:.4f}" if final != "" else "n/a"
    print(f"trained {len(summary['rows'])} iterations "
          f"({summary['elapsed_s']:.1f}s); final val acc {final_txt}; "
          f"overflow events {summary['overflow_count']}; "
          f"metrics -> {args.out}")
    return 0


def _cmd_compare(args) -> int:
    rows_a = fileio.read_metrics(args.a)
    rows_b = fileio.read_metrics(args.b)
    ok, lines = experiments.compare_metrics(rows_a, rows_b,
                                            args.tol_acc, args.tol_loss)
    for line in lines:
        print(line)
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "quantize": _cmd_quantize,
        "bench-gemm": _cmd_bench,
        "bench-conv": _cmd_bench,
        "train": _cmd_train,
        "compare": _cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except TrainingDivergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        for entry in exc.report:
            print(f"  {entry['layer']}: min {entry['min']:.6g} "
                  f"max {entry['max']:.6g} finite {entry['finite_fraction']:.3f}",
                  file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
