#!/usr/bin/env python3
"""Repository benchmark: build the program, run one workload, gate its output.

Run from the repository root:

    python3 perfbench/run.py --workload paper_pipeline --seed 7 --seconds 40 --trace 0

Builds perfbench/CMakeLists.txt (the amrio library from src/ plus the
benchmark program) into $CARGO_TARGET_DIR, or .bench_build when unset, then
runs the program and prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": M, "metrics": {...}}

"correct" requires every repetition to produce the same simulated-statistics
digest, that digest to equal the one recorded in perfbench/expected.json, and
every invariant the program checks to hold. --record rewrites the recorded
digest of the given workload and scale instead of gating on it; use it only
when a change is meant to alter simulated statistics, and say so.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED = BENCH_DIR / "expected.json"
WORKLOADS = ["paper_pipeline", "campaign_serve"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir(root):
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else root / d


def build(root, out):
    """Configure (once per checkout location) and build the benchmark program."""
    if not (root / "src").is_dir():
        raise RuntimeError("no src/ directory next to perfbench/: nothing to build")
    cache = out / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}" not in cache.read_text():
        shutil.rmtree(out)  # configured for another checkout location
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configure every time: cheap once cached, and it regenerates the build
    # files when the target set changed.
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "-j", jobs, "--target", "amrio_perfbench"]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=850)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return out / "amrio_perfbench"


def run_program(exe, out, args):
    workdir = out / "work"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--workdir", str(workdir)]
    if args.trace:
        cmd += ["--spans", str(out / f"spans-{args.workload}-{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark program exited with code {proc.returncode}")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines:
        raise RuntimeError("benchmark program printed no report")
    return json.loads(lines[-1])


def load_expected():
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def digest_stats(out, workload):
    """Statistics behind the digest, as written by the benchmark program: the entries
    whose key occurs once (per-cell campaign rows repeat their keys and are
    covered by the fingerprint alone)."""
    text = (out / "work" / f"digest-{workload}.txt").read_text().strip()
    pairs = [e.split("=", 1) for e in text.split(";") if "=" in e]
    counts = {}
    for k, _ in pairs:
        counts[k] = counts.get(k, 0) + 1
    return {k: v for k, v in pairs if counts[k] == 1}


def gate(report, args, stats):
    """Correctness of one run; returns (correct, reasons)."""
    reasons = list(report["violations"])
    if not report["consistent"]:
        reasons.append("repetitions produced different digests")
    want = load_expected().get(args.scale, {}).get(args.workload)
    if want is None:
        reasons.append(f"no recorded digest for {args.scale}/{args.workload}")
    elif report["digest"] != want["digest"]:
        reasons.append(f"digest {report['digest']} != recorded {want['digest']}")
        for k, v in sorted(want.get("stats", {}).items()):
            if stats.get(k) != v:
                reasons.append(f"  {k}: {stats.get(k)} != recorded {v}")
    return not reasons, reasons


def record(report, args, stats):
    expected = load_expected()
    expected.setdefault(args.scale, {})[args.workload] = {
        "digest": report["digest"], "stats": stats}
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    log(f"recorded {args.scale}/{args.workload} digest {report['digest']}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--scale", choices=["full", "small"], default="full",
                   help="small: reduced sizes, for the self-test")
    p.add_argument("--record", action="store_true",
                   help="record this run's digest in perfbench/expected.json")
    return p.parse_args(argv)


def measure(args, root=None):
    """Build, run and gate one workload; returns the result object."""
    root = Path.cwd() if root is None else root
    out = build_dir(root)
    t0 = time.monotonic()
    exe = build(root, out)
    log(f"build: {time.monotonic() - t0:.1f}s")
    report = run_program(exe, out, args)
    stats = digest_stats(out, args.workload)
    if args.record:
        record(report, args, stats)
    correct, reasons = gate(report, args, stats)
    for r in reasons:
        log(f"INCORRECT: {r}")
    return {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": report["metrics"]}, report


def main(argv):
    args = parse_args(argv)
    try:
        result, report = measure(args)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1
    samples = report["traced_samples"] if args.trace else report["samples"]
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} timings are medians of {samples} "
          f"{'traced ' if args.trace else ''}repetitions")
    print(f"{args.workload} attempted = {result['attempted']} {report['op_unit']}, "
          f"failed = {result['failed']}, digest = {report['digest']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
