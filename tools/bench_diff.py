#!/usr/bin/env python3
"""Perf-regression gate: compare fresh BENCH_*.json files against committed
baselines and fail (exit 1) when a tracked metric regresses.

Usage:
    bench_diff.py BASELINE_DIR CURRENT_DIR [--report report.md]

Every BENCH_*.json in BASELINE_DIR must exist in CURRENT_DIR; each pair is
compared under per-bench rules keyed off the file's "bench" field:

  micro_pipeline_baseline (virtual-time, deterministic)
      Rows keyed by (mode, codec); row sets must match exactly. Metrics are
      direction-aware with a tight relative tolerance (the numbers are
      virtual-time, so any drift is a model change, not noise):
        perceived_makespan, sustained_makespan   lower is better
        perceived_bw, sustained_bw               higher is better
      Drift beyond tolerance in the bad direction -> REGRESSED (fails).
      Drift in the good direction -> IMPROVED (passes, but refresh the
      baseline so the gate keeps teeth). critical_path.critical_stage flips
      -> CHANGED (reported, passes only alongside no regression).

  micro_engine_scaling (wall-clock, machine-dependent)
      Rows keyed by (workload, ranks, engine); raw `seconds` are
      report-only. The gate watches the event engine's sim_ranks_per_sec
      for every (workload, ranks) row of the baseline: the current rate must
      stay above baseline/3 (a generous bound that survives CI jitter but
      catches an order-of-magnitude scheduling regression). Missing or added
      rows fail.

Anything else: row-count sanity check only.

Refreshing baselines after an intentional change:
    ./build/micro_pipeline_baseline --out bench_results
    ./build/micro_engine_scaling --out bench_results
    cp bench_results/BENCH_*.json bench/baselines/
"""

import argparse
import glob
import json
import os
import sys

# Relative tolerance for the deterministic pipeline metrics. Virtual-time
# results are exact; this only absorbs cross-compiler float reassociation.
PIPELINE_RTOL = 1e-6

# The event engine's sim-ranks/sec may drop to a third of baseline before the
# gate trips: wall clocks on shared CI runners are noisy, order-of-magnitude
# claims are what the bench exists to defend.
RATE_FLOOR_FRAC = 1.0 / 3.0

PIPELINE_METRICS = [
    # (key, lower_is_better)
    ("perceived_makespan", True),
    ("sustained_makespan", True),
    ("perceived_bw", False),
    ("sustained_bw", False),
]


class Diff:
    """Accumulates findings; renders a markdown report at the end."""

    def __init__(self):
        self.lines = []
        self.failures = []

    def section(self, title):
        self.lines.append(f"\n## {title}\n")

    def note(self, text):
        self.lines.append(text)

    def fail(self, text):
        self.failures.append(text)
        self.lines.append(f"**REGRESSED** {text}")

    def render(self):
        verdict = "FAIL" if self.failures else "PASS"
        head = [f"# bench_diff: {verdict}", ""]
        if self.failures:
            head.append(f"{len(self.failures)} regression(s):")
            head.extend(f"- {f}" for f in self.failures)
        return "\n".join(head + self.lines) + "\n"


def rel_delta(baseline, current):
    if baseline == 0:
        return 0.0 if current == 0 else float("inf")
    return (current - baseline) / abs(baseline)


def fmt_row(name, base, cur, status):
    return f"| {name} | {base:.6g} | {cur:.6g} | {rel_delta(base, cur):+.2%} | {status} |"


def diff_pipeline(base, cur, diff):
    diff.note("| row / metric | baseline | current | delta | status |")
    diff.note("|---|---|---|---|---|")
    bkeys = {(r["mode"], r["codec"]): r for r in base["rows"]}
    ckeys = {(r["mode"], r["codec"]): r for r in cur["rows"]}
    for key in sorted(bkeys.keys() - ckeys.keys()):
        diff.fail(f"pipeline row {key} missing from current run")
    for key in sorted(ckeys.keys() - bkeys.keys()):
        diff.fail(f"pipeline row {key} added without a baseline "
                  "(refresh bench/baselines/)")
    for key in sorted(bkeys.keys() & ckeys.keys()):
        b, c = bkeys[key], ckeys[key]
        label = f"{key[0]}/{key[1]}"
        for metric, lower_better in PIPELINE_METRICS:
            delta = rel_delta(b[metric], c[metric])
            if abs(delta) <= PIPELINE_RTOL:
                status = "ok"
            elif (delta > 0) == lower_better:
                status = "REGRESSED"
                diff.fail(f"{label} {metric}: {b[metric]:.6g} -> "
                          f"{c[metric]:.6g} ({delta:+.2%})")
            else:
                status = "IMPROVED (refresh baseline)"
            if status != "ok":
                diff.note(fmt_row(f"{label} {metric}", b[metric], c[metric],
                                  status))
        b_stage = b["critical_path"]["critical_stage"]
        c_stage = c["critical_path"]["critical_stage"]
        if b_stage != c_stage:
            diff.note(f"| {label} critical_stage | {b_stage} | {c_stage} "
                      f"| | CHANGED |")
    diff.note(f"| rows compared | {len(bkeys)} | {len(ckeys)} | | |")


def diff_engine(base, cur, diff):
    bkeys = {(r["workload"], r["ranks"], r["engine"]): r for r in base["rows"]}
    ckeys = {(r["workload"], r["ranks"], r["engine"]): r for r in cur["rows"]}
    for key in sorted(bkeys.keys() - ckeys.keys()):
        diff.fail(f"engine row {key} missing from current run")
    for key in sorted(ckeys.keys() - bkeys.keys()):
        diff.fail(f"engine row {key} added without a baseline "
                  "(refresh bench/baselines/)")

    diff.note("wall-clock seconds (report-only, not gated):\n")
    diff.note("| workload/ranks/engine | baseline s | current s | delta |")
    diff.note("|---|---|---|---|")
    for key in sorted(bkeys.keys() & ckeys.keys()):
        b, c = bkeys[key], ckeys[key]
        diff.note(f"| {key[0]}/{key[1]}/{key[2]} | {b['seconds']:.6g} "
                  f"| {c['seconds']:.6g} "
                  f"| {rel_delta(b['seconds'], c['seconds']):+.1%} |")

    diff.note("\nevent-engine sim-ranks/sec (gated at baseline/3):\n")
    diff.note("| workload/ranks | baseline | current | floor | status |")
    diff.note("|---|---|---|---|---|")
    for key in sorted(bkeys.keys() & ckeys.keys()):
        if key[2] != "event":
            continue
        b = bkeys[key]["sim_ranks_per_sec"]
        c = ckeys[key]["sim_ranks_per_sec"]
        floor = b * RATE_FLOOR_FRAC
        ok = c >= floor
        diff.note(f"| {key[0]}/{key[1]} | {b:.4g} | {c:.4g} "
                  f"| {floor:.4g} | {'ok' if ok else 'REGRESSED'} |")
        if not ok:
            diff.fail(f"event sim_ranks_per_sec {key[0]}/{key[1]}: {c:.4g} "
                      f"fell below {floor:.4g} (baseline {b:.4g})")


def diff_generic(base, cur, diff):
    nb, nc = len(base.get("rows", [])), len(cur.get("rows", []))
    diff.note(f"no specific rules for bench '{base.get('bench')}': "
              f"row-count check only ({nb} baseline vs {nc} current)")
    if nb != nc:
        diff.fail(f"{base.get('bench')}: row count {nc} != baseline {nb}")


def main():
    ap = argparse.ArgumentParser(
        description="compare BENCH_*.json against committed baselines")
    ap.add_argument("baseline_dir")
    ap.add_argument("current_dir")
    ap.add_argument("--report", help="also write the markdown report here")
    args = ap.parse_args()

    diff = Diff()
    baselines = sorted(glob.glob(os.path.join(args.baseline_dir,
                                              "BENCH_*.json")))
    if not baselines:
        print(f"bench_diff: no BENCH_*.json under {args.baseline_dir}",
              file=sys.stderr)
        return 2

    for bpath in baselines:
        name = os.path.basename(bpath)
        cpath = os.path.join(args.current_dir, name)
        diff.section(name)
        if not os.path.exists(cpath):
            diff.fail(f"{name}: current run produced no such file "
                      f"(expected {cpath})")
            continue
        with open(bpath) as f:
            base = json.load(f)
        with open(cpath) as f:
            cur = json.load(f)
        if base.get("bench") != cur.get("bench"):
            diff.fail(f"{name}: bench id mismatch "
                      f"({base.get('bench')} vs {cur.get('bench')})")
            continue
        rules = {"micro_pipeline_baseline": diff_pipeline,
                 "micro_engine_scaling": diff_engine}
        rules.get(base.get("bench"), diff_generic)(base, cur, diff)

    report = diff.render()
    if args.report:
        with open(args.report, "w") as f:
            f.write(report)
    print(report)
    return 1 if diff.failures else 0


if __name__ == "__main__":
    sys.exit(main())
