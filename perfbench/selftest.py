#!/usr/bin/env python3
"""Benchmark self-test: every workload at reduced size, twice per mode.

    python3 perfbench/selftest.py

For each workload, runs perfbench/run.py's measurement twice untraced and
twice traced at --scale small with a one-second budget, then checks that
  * every run is correct (recorded digest matched, invariants held);
  * both runs of a mode produced the same simulated-statistics digest;
  * the untraced runs print exactly the end_to_end metrics of BENCHMARK.json
    and the traced runs exactly its per_layer metrics, each with its unit.
Exits 1 on the first failed check.
"""

import argparse
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py)

SPEC = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())


def check(cond, what):
    if not cond:
        print(f"selftest FAILED: {what}")
        sys.exit(1)


def main():
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            digests = []
            for attempt in range(2):
                args = argparse.Namespace(workload=name, seed=101 + attempt,
                                          seconds=1.0, trace=trace,
                                          scale="small", record=False)
                result, report = run.measure(args)
                check(result["correct"], f"{name} trace={trace}: incorrect")
                check(result["attempted"] >= 1, f"{name}: nothing attempted")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == want, f"{name} trace={trace}: metrics {got} != {want}")
                digests.append(report["digest"])
            check(digests[0] == digests[1],
                  f"{name} trace={trace}: digests differ {digests}")
            print(f"selftest ok: {name} trace={trace} digest {digests[0]}")
    print("selftest passed")


if __name__ == "__main__":
    main()
