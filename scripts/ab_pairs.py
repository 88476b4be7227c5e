#!/usr/bin/env python3
"""Runs perfbench on a parent revision and the working tree side by side.

    python3 scripts/ab_pairs.py --parent <rev> --workload <w> --pairs N --seconds S
        [--seed K] [--dir D]

Run it from the repository root. perfbench is built twice with the same
settings: the parent revision from a `git archive` export under D (default
.ab_pairs/<commit>/, kept for later invocations), and the working tree
into .bench_build, as perfbench/run.py builds it. The two sides of each
pair run at the same time, untraced, each pinned to its own core with
taskset, and swap cores from pair to pair; pair i runs seed K + i on both
sides. Both sides of a pair therefore see the same machine load and memory
contention, which back-to-back runs do not. The script needs at least two
cores it may run on, and exits 1 if any run fails.

It prints, for every end-to-end metric of BENCHMARK.json, each side's
median [first quartile, third quartile] and the pairs where the working
tree is better (ties count for neither side), as a Markdown table row.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("gcbench", "program_t", "typed_mutate")
RUN_TIMEOUT_S = 600


def fail(message):
    print(f"ab_pairs: {message}", file=sys.stderr)
    sys.exit(1)


def git(*args):
    p = subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        fail(f"git {' '.join(args)} failed")
    return p.stdout.strip()


def build(tree, target):
    """Builds perfbench from the sources under `tree`; returns the binary."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(tree, "perfbench", "Cargo.toml")]
    if subprocess.run(cmd, cwd=tree, env=env, stdout=sys.stderr).returncode != 0:
        fail(f"building perfbench in {tree} failed")
    return os.path.join(target, "release", "perfbench")


def export(rev, workdir):
    """The parent's source tree, exported once per commit."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = os.path.join(workdir, commit)
    if not os.path.isdir(os.path.join(tree, "perfbench")):
        os.makedirs(tree, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout)
        if archive.wait() != 0 or untar.returncode != 0:
            fail(f"exporting {commit} failed")
    return tree


def start(binary, cwd, core, workload, seed, seconds):
    cmd = ["taskset", "-c", str(core), binary, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    return subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)


def finish(procs, label):
    """The final JSON line of each side's run, once both have ended."""
    outs = {}
    try:
        for side, proc in procs.items():
            outs[side], _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        for proc in procs.values():
            proc.kill()
            proc.wait()
        fail(f"{label} did not finish within {RUN_TIMEOUT_S} s")
    results = {}
    for side, proc in procs.items():
        lines = outs[side].strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"{side} {label} exited {proc.returncode}")
        results[side] = json.loads(lines[-1])
    return results


def fmt(x):
    return f"{x:.3g}"


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision to compare against")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--dir", default=os.path.join(ROOT, ".ab_pairs"),
                    help="where the parent's tree and build are kept")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        fail(f"needs two cores to pin the sides of a pair to, has {len(cores)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    parent_tree = export(args.parent, os.path.abspath(args.dir))
    parent_bin = build(parent_tree, os.path.join(parent_tree, ".bench_build"))
    change_bin = build(ROOT, os.path.join(ROOT, ".bench_build"))

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        a, b = (cores[0], cores[1]) if i % 2 == 0 else (cores[1], cores[0])
        procs = {"parent": start(parent_bin, parent_tree, a, args.workload, seed, args.seconds),
                 "change": start(change_bin, ROOT, b, args.workload, seed, args.seconds)}
        for side, r in finish(procs, f"{args.workload} seed {seed}").items():
            runs[side].append(r)
        print(f"pair {i + 1}/{args.pairs} (seed {seed}, parent on cpu {a}): "
              f"gc_s {runs['parent'][-1]['metrics']['gc_s']['value']:.3f} -> "
              f"{runs['change'][-1]['metrics']['gc_s']['value']:.3f}", file=sys.stderr)

    for side, rs in runs.items():
        attempted = sum(r["attempted"] for r in rs)
        failed = sum(r["failed"] for r in rs)
        print(f"{side}: {failed} of {attempted} operations failed")
    print()
    print("| Workload | Metric | Parent | Change | Better |")
    print("|---|---|---|---|---|")
    for m in metrics:
        name = m["name"]
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(1 for x, y in zip(p, c) if sign * (y - x) < 0)
        print(f"| {args.workload} | {name} | {summary(p)} | {summary(c)} | {wins}/{len(p)} |")


if __name__ == "__main__":
    main()
