"""Command line front end.

Subcommands:

  quantize    convert an FP32 tensor file to the shared-exponent format
  bench-gemm  integer GEMM benchmark, run as the 1x1 bench-conv it is
  bench-conv  integer convolution benchmark with instruction-count accounting
  train       train a model from a JSON config on a dataset
  compare     compare two metrics CSV files (reference vs candidate)

All commands are single-run, sequential; exit code 0 on success, 1 on a
failed comparison, 2 on an error.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments, fileio
from .tensor import ROUNDING_MODES, DfpTensor, QuantConfig, quantize, rounding_from_name
from .training import TrainingDivergence


def _positive_int(text: str) -> int:
    """argparse type of a size or count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


# The fields of bench-conv --spec, in order.
_SPEC_FIELDS = ("C", "K", "H", "W", "KH", "KW", "stride", "pad")


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
        p.add_argument("--pre-shift", type=int, default=1)
        p.add_argument("--trials", type=_positive_int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dist", default="gaussian",
                       choices=("gaussian", "adversarial"))
        p.add_argument("--out", default=None, metavar="CSV",
                       help="also write rows to a CSV file")

    bg = sub.add_parser("bench-gemm", help="integer GEMM benchmark")
    bg.add_argument("--m", type=_positive_int, required=True)
    bg.add_argument("--n", type=_positive_int, required=True)
    bg.add_argument("--k", type=_positive_int, required=True)
    bench_common(bg)

    bc = sub.add_parser("bench-conv", help="integer convolution benchmark")
    bc.add_argument("--spec", required=True,
                    help=",".join(_SPEC_FIELDS))
    bc.add_argument("--batch", type=_positive_int, default=1)
    bench_common(bc)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--config", required=True, metavar="JSON")
    t.add_argument("--data", required=True,
                   help="IDX directory or generator spec like glyphs:train=4096,test=1024")
    t.add_argument("--precision", default="dfp16", choices=("fp32", "dfp16"))
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True, metavar="CSV")

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
    knobs = dict(icblk=args.icblk, rb=args.rb, pre_shift=args.pre_shift, trials=args.trials,
                 seed=args.seed, dist=args.dist)
    if args.command == "bench-gemm":   # M rows of K inputs are M 1x1 images of K channels
        rows = experiments.run_bench_conv((args.k, args.n, 1, 1, 1, 1, 1, 0),
                                          n_batch=args.m, **knobs)
    else:
        parts = [p.strip() for p in args.spec.split(",")]
        if len(parts) != len(_SPEC_FIELDS):
            print(f"error: --spec needs 8 integers {','.join(_SPEC_FIELDS)}; "
                  f"got {len(parts)} fields", file=sys.stderr)
            return 2
        shape = []
        for i, (name, part) in enumerate(zip(_SPEC_FIELDS, parts), 1):
            try:
                shape.append(int(part))
            except ValueError:
                print(f"error: --spec field {i} ({name}) must be an integer, got {part!r}",
                      file=sys.stderr)
                return 2
        rows = experiments.run_bench_conv(tuple(shape), n_batch=args.batch, **knobs)
    text = experiments.format_bench_csv(rows)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


def _cmd_train(args) -> int:
    # a resolved run's fields replace the command line's; a plain config has none
    request = experiments.load_run_request(args.config)
    if request["resolved_run"]:
        print(f"replaying resolved run from {args.config}")
    summary = experiments.run_training(
        request["config"], request.get("data", args.data),
        request.get("precision", args.precision), request.get("seed", args.seed),
        out_csv=args.out)
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
