#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

From the repository root:

    python3 hpfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 hpfbench/run.py --selfcheck [--seconds S]

The first call configures and builds hpfbench/ (the library from src/ plus
the benchmark binary) under $CARGO_TARGET_DIR, or .bench_build when that is unset;
later calls only re-run the incremental build. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result. Spans of traced runs
and the inputs of failed ops are written under the same build directory.

--selfcheck runs every workload twice on one seed (traced) and once on a
second seed, and fails unless every count metric repeats exactly, no op
fails, and the printed metric names are exactly those in BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("jacobi_large", "small_mixed", "script_session")
# Units of metrics that must repeat exactly for one seed: counts, ratios of
# counts and the simulator's modeled (not measured) time.
DETERMINISTIC_UNITS = ("count", "bytes", "frac", "model_us")


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(target)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    bdir = os.path.join(build_root(), "hpfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "hpfbench")


def run_binary(binary, workload, seed, seconds, trace, capture):
    out_dir = os.path.join(build_root(), "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", out_dir]
    if not capture:
        return subprocess.run(cmd).returncode
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def selfcheck(binary, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e_names = sorted(m["name"] for m in spec["end_to_end"])
    layer_names = sorted(m["name"] for m in spec["per_layer"])
    problems = []
    for w in WORKLOADS:
        before = len(problems)
        first = run_binary(binary, w, 1, seconds, 1, True)
        second = run_binary(binary, w, 1, seconds, 1, True)
        other = run_binary(binary, w, 2, seconds, 0, True)
        if sorted(first["metrics"]) != layer_names:
            problems.append(f"{w}: traced metric names differ from "
                            "BENCHMARK.json per_layer")
        if sorted(other["metrics"]) != e2e_names:
            problems.append(f"{w}: untraced metric names differ from "
                            "BENCHMARK.json end_to_end")
        for name, m in first["metrics"].items():
            if m["unit"] not in DETERMINISTIC_UNITS:
                continue
            v2 = second["metrics"][name]["value"]
            if m["value"] != v2:
                problems.append(f"{w}: {name} not repeatable: "
                                f"{m['value']} vs {v2}")
        for label, res in (("seed 1", first), ("seed 1 again", second),
                           ("seed 2", other)):
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{w} {label}: {res['failed']} of "
                                f"{res['attempted']} ops failed")
        print(f"selfcheck {w}: "
              f"{'ok' if len(problems) == before else 'FAILED'}")
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not args.selfcheck and not args.workload:
        ap.error("--workload is required")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"hpfbench: build failed: {e}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck(binary, args.seconds)
    return run_binary(binary, args.workload, args.seed, args.seconds,
                      args.trace, False)


if __name__ == "__main__":
    sys.exit(main())
