#!/usr/bin/env python3
"""Training benchmark for the dfp package.

    python3 benchmark/run.py --workload parity|resnet_shadow --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory, never from an installed copy.  One process trains the
workload's network in FP32 and in DFP16, alternating epoch by epoch, and
checks the outputs.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it records
spans around the package's public calls and reports per-layer self times
and kernel counters instead, and writes the spans to
.bench_out/trace-<workload>-seed<N>.json.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The exit
code is 0 when every output check passed, 1 when one failed, and 2 when
the package sources are missing.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def bootstrap() -> int:
    """Point imports at this checkout's sources and cap BLAS threads at
    nproc; must run before numpy is imported.  Returns nproc."""
    if not (SRC / "dfp" / "__init__.py").is_file():
        print(f"benchmark: no dfp package sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    # The workload config alone decides shadow accounting.
    os.environ.pop("DFP_SHADOW_CHECK", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return nproc


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = bootstrap()
    import harness
    import provenance
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    info = provenance.describe(ROOT, nproc)
    print("provenance: " + json.dumps(info, sort_keys=True))
    print(f"workload: {wl.name} (closed loop, one process, one training run "
          f"at a time), seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    result = harness.run(wl, args.seed, args.seconds, bool(args.trace),
                         str(OUT_DIR))
    for line in result.lines:
        print(line)
    for name, digest in sorted(result.digests.items()):
        print(f"digest {name}: {digest}")
    for name, m in result.metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    if result.spans is not None:
        path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump({"workload": wl.name, "seed": args.seed,
                       "provenance": info,
                       "columns": ["id", "name", "parent", "root", "start",
                                   "end", "attrs"],
                       "spans": result.spans}, fh)
        print(f"spans: {len(result.spans)} written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": result.metrics}))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
