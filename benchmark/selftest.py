#!/usr/bin/env python3
"""Self-test of the benchmark: a minimal-length run of each workload.

    python3 benchmark/selftest.py [--seed N]

For each workload, at one epoch of eight batches, it checks that:

* two untraced runs and one traced run pass every output check;
* the untraced runs print exactly the end_to_end metrics of
  BENCHMARK.json, each with its unit and never zero, and the traced run
  exactly its per_layer metrics;
* the fixed-schedule metrics-row and counter digests are identical across
  the two repeats and the traced run (tracing never changes outputs);
* the benchmark's own step loop reproduces `experiments.run_training`
  (the package's train_loop) bit for bit on the same data.

It also checks that the parity workload's network is the acceptance
suite's PARITY_CFG.  Exit code 0 when everything holds, 1 otherwise.
Takes a few minutes on two cores.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import tempfile

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    run.bootstrap()
    import harness
    import tracing
    from dfp import experiments, training
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    def check_metrics(result, wanted, what):
        got = {k: m["unit"] for k, m in result.metrics.items()}
        want = {m["name"]: m["unit"] for m in wanted}
        check(got == want, f"{what}: metric names and units match BENCHMARK.json"
              + ("" if got == want else f" (got {got}, want {want})"))

    acceptance = run.ROOT / "tests" / "test_acceptance.py"
    if acceptance.is_file():
        mod_spec = importlib.util.spec_from_file_location("_acceptance", acceptance)
        mod = importlib.util.module_from_spec(mod_spec)
        mod_spec.loader.exec_module(mod)
        check(mod.PARITY_CFG == WORKLOADS["parity"].config,
              "parity workload config equals the acceptance suite's PARITY_CFG")

    for name, full in WORKLOADS.items():
        wl = full.smoke()
        results = [harness.run(wl, args.seed, 0.0, trace, str(run.OUT_DIR))
                   for trace in (False, False, True)]
        for i, r in enumerate(results):
            check(r.correct and r.failed == 0,
                  f"{name} run {i}: every output check passed "
                  f"{[x for x in r.lines if x.startswith('FAILED')]}")
        for r in results[:2]:
            check_metrics(r, spec["end_to_end"], f"{name} untraced")
            zero = [k for k, m in r.metrics.items() if m["value"] == 0]
            check(not zero, f"{name}: no end-to-end metric is zero {zero}")
        check_metrics(results[2], spec["per_layer"], f"{name} traced")
        check(results[0].digests == results[1].digests == results[2].digests
              and len(results[0].digests) == 4,
              f"{name}: row and counter digests repeat across runs and tracing")

        # The package's own loop on the same data gives the same rows.
        cfg = training.parse_config(wl.config)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            data, _, _ = harness.setup(wl, cfg, args.seed, tmp,
                                       tracing.Tracer(False), harness.Tally())
        for p in harness.PRECISIONS:
            ref = experiments.run_training(wl.config, wl.source, p, args.seed,
                                           data=data)
            rows = harness.PrecisionRun(rows=[
                (r["iteration"], r["epoch"], r["train_loss"], r["val_acc"],
                 r["overflow_count"]) for r in ref["rows"]])
            rows.counters = {c: ref[c] for c in tracing.COUNTERS}
            check(rows.rows_digest() == results[0].digests[f"{p}.rows_sha256"]
                  and rows.counters_digest()
                  == results[0].digests[f"{p}.counters_sha256"],
                  f"{name} {p}: benchmark step loop matches train_loop bit for bit")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
