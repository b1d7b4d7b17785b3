#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark (the project's libraries from src/ plus the perfbench binary)
under .bench_build/ (or $CARGO_TARGET_DIR when set); later runs only
check that the build is current. The binary's report goes to stdout and
its last line is the JSON result; build output goes to stderr.

    python3 perfbench/run.py --self-check --workload <name> --seed <n> --seconds <s>

runs the determinism self-check instead: two traced runs with one seed
must give identical per-layer counts, two untraced runs identical QoR
geomeans, and a second seed must run clean.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Per-layer values that must repeat exactly for one seed. StageCache hit
# ratios are compared for the closed-loop workloads only: under the daemon
# (serve-mixed) they depend on how its two workers interleave, and so do
# evictions, which only the daemon's byte limit causes.
EXACT_LAYER_SUFFIXES = (".changed_ratio", ".insts_out", ".verify_calls",
                        ".fsm_states", ".cpp_bytes", ".text_bytes")
EXACT_CACHE_PREFIXES = ("flow.hit_ratio.",)
EXACT_E2E = ("adaptor_cycles_geomean", "hlscpp_cycles_geomean",
             "adaptor_lut_geomean", "hlscpp_lut_geomean")


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("project sources not found at %s; run from a full checkout"
            % os.path.join(ROOT, "src"))
        return None
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "perfbench")


def run(binary, workload, seed, seconds, trace, capture=False):
    """Runs one workload; the binary's cwd is its build directory, so the
    daemon's socket and anything else it leaves stay there."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=os.path.dirname(binary),
                              stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 124, None
    result = None
    if capture and done.stdout:
        try:
            result = json.loads(done.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            result = None
    return done.returncode, result


def self_check(binary, args):
    failures = []

    def twice(trace):
        outs = []
        for _ in range(2):
            code, result = run(binary, args.workload, args.seed,
                               args.seconds, trace, capture=True)
            if code != 0 or not result:
                failures.append("seed %d trace %d exited %d"
                                % (args.seed, trace, code))
                return None
            outs.append(result["metrics"])
        return outs

    def compare(pair, names):
        for name in names:
            a, b = pair[0][name]["value"], pair[1][name]["value"]
            if a != b:
                failures.append("%s differs between runs: %r vs %r"
                                % (name, a, b))

    layers = twice(1)
    if layers:
        names = [n for n in layers[0] if n.endswith(EXACT_LAYER_SUFFIXES)]
        if args.workload != "serve-mixed":
            names += [n for n in layers[0]
                      if n.startswith(EXACT_CACHE_PREFIXES)]
        compare(layers, names)
    e2e = twice(0)
    if e2e:
        compare(e2e, EXACT_E2E)
    other = args.seed + 1000003
    for trace in (0, 1):
        code, _ = run(binary, args.workload, other, args.seconds, trace,
                      capture=True)
        if code != 0:
            failures.append("seed %d trace %d exited %d"
                            % (other, trace, code))
    for failure in failures:
        log("self-check: " + failure)
    print("self-check %s: %s" % (args.workload,
                                 "FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold-grid", "warm-edit", "serve-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    binary = build()
    if not binary:
        return 2
    if args.self_check:
        return self_check(binary, args)
    code, _ = run(binary, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
