#!/usr/bin/env python3
"""Builds the collector benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <gcbench|program_t|typed_mutate> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); traced runs write their spans to .bench_out/.
The last line of standard output is the run's JSON result. --self-test
checks that runs repeat their work counters exactly, with and without the
GC_* environment overrides, and runs the benchmark's own tests.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ("gcbench", "program_t", "typed_mutate")
RUN_TIMEOUT_S = 175
# Collector defaults the benchmark pins; overriding them may not change a
# run's work.
ENV_KEYS = ("GC_MARK_THREADS", "GC_LAZY_SWEEP", "GC_RESOLVE_CACHE")


def env_overrides(workload):
    """Values opposite to what the workload pins."""
    lazy = "0" if workload == "typed_mutate" else "1"
    return {"GC_MARK_THREADS": "2", "GC_LAZY_SWEEP": lazy, "GC_RESOLVE_CACHE": "0"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cargo_env():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("the collector's sources (crates/) are missing; run from a full checkout")
    env = cargo_env()
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(ROOT, env["CARGO_TARGET_DIR"], "release", "perfbench")


def run(binary, workload, seed, seconds, trace, env=None):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return p.returncode, p.stdout


def report(stdout):
    """The work counters and configuration a run reports."""
    for line in stdout.splitlines():
        if line.startswith('{"report"'):
            r = json.loads(line)["report"]
            return {"work": r["work"], "config": r["config"]}
    fail("run printed no report")


def self_test(binary):
    problems = []
    for w in WORKLOADS:
        runs = {}
        for label, extra in (("first", {}), ("second", {}), ("env", env_overrides(w))):
            env = dict(os.environ)
            for key in ENV_KEYS:
                env.pop(key, None)
            env.update(extra)
            code, out = run(binary, w, 3, 1, 0, env)
            if code != 0:
                problems.append(f"{w} ({label} run) exited {code}")
                continue
            runs[label] = report(out)
        for label in ("second", "env"):
            if label in runs and "first" in runs and runs[label] != runs["first"]:
                problems.append(f"{w}: {label} run differs: {runs[label]} vs {runs['first']}")
        print(f"self-test {w}: checked {sorted(runs)} runs", file=sys.stderr)
    cmd = ["cargo", "test", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, cwd=ROOT, env=cargo_env(), stdout=sys.stderr).returncode != 0:
        problems.append("cargo test failed")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    if args.self_test:
        self_test(binary)
    code, out = run(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
