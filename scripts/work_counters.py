#!/usr/bin/env python3
"""Checks perfbench's deterministic work counters against BENCH_work.json.

    python3 scripts/work_counters.py            # rerun and compare
    python3 scripts/work_counters.py --record   # rewrite BENCH_work.json

Run it from the repository root. Every workload runs once per seed for one
second of nominal work, untraced, through perfbench/run.py. The check
fails on any run that exits nonzero and on any counter that differs from
the committed file: a change that alters the collector's work must
rewrite the file and say why.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "BENCH_work.json")
WORKLOADS = ("gcbench", "program_t", "typed_mutate")
SEEDS = (1, 7919, 7907, 7901)
SECONDS = 1


def work(workload, seed):
    """The `work` object of one run, or None if the run failed."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        print(f"{workload} seed {seed}: exited {p.returncode}", file=sys.stderr)
        return None
    for line in p.stdout.splitlines():
        if line.startswith('{"report"'):
            return json.loads(line)["report"]["work"]
    print(f"{workload} seed {seed}: no report", file=sys.stderr)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", action="store_true", help="rewrite BENCH_work.json")
    args = ap.parse_args()
    runs = [{"workload": w, "seed": s, "work": work(w, s)} for w in WORKLOADS for s in SEEDS]
    failed = [r for r in runs if r["work"] is None]
    if args.record:
        if failed:
            sys.exit("not recording: some runs failed")
        with open(BASELINE, "w") as f:
            json.dump({"seconds": SECONDS, "trace": 0, "runs": runs}, f, indent=1)
            f.write("\n")
        return
    with open(BASELINE) as f:
        baseline = {(r["workload"], r["seed"]): r["work"] for r in json.load(f)["runs"]}
    problems = len(failed)
    for r in runs:
        want = baseline.get((r["workload"], r["seed"]))
        if r["work"] is None or want == r["work"]:
            continue
        problems += 1
        diff = {k: (want.get(k) if want else None, v) for k, v in r["work"].items()
                if not want or want.get(k) != v}
        print(f"{r['workload']} seed {r['seed']}: (recorded, now) {diff}", file=sys.stderr)
    print(f"work counters: {len(runs) - problems}/{len(runs)} runs match", file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
