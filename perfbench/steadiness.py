#!/usr/bin/env python3
"""Steadiness report for the benchmark.

    python3 perfbench/steadiness.py [--workload W ...] [--runs 5] [--seed 1]
                                    [--held-out 99] [--seconds 10]
    python3 perfbench/steadiness.py --seeds 1,2,3,4,5,6,7,8,9,10 [--workload W]

Default mode runs two sets of --runs runs at one seed and prints, per
end-to-end metric, each set's median and quartiles and the spread
(q3 - q1) / median.  A metric is flagged when a set's spread exceeds
its bound in BENCHMARK.json, or when the second median is worse than
the first by more than the bound.  One held-out seed is then run to
show the metric set does not depend on the seed.

--seeds mode runs one run per listed seed (one set) and reports the
same spreads: the check made across seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def worse_by(first, second, better):
    if first == 0:
        return 0.0
    d = (second - first) / abs(first)
    return d if better == "lower" else -d


def report(workload, sets, metrics, verbose=False):
    flagged = []
    print(f"\n== {workload}")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        line = f"  {name:15s} bound {bound:4.2f} "
        meds = []
        for label, results in sets:
            vals = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, spread = summary(vals)
            meds.append(med)
            flag = spread > bound
            if flag:
                flagged.append(f"{workload} {name} spread {spread:.3f} > {bound} ({label})")
            line += (f"| {label}: med {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                     f"spread {spread:.3f}{' FLAG' if flag else ''} ")
            if verbose:
                line += "[" + " ".join(f"{v:.4g}" for v in vals) + "] "
        if len(meds) == 2:
            w = worse_by(meds[0], meds[1], m["better"])
            if w > bound:
                flagged.append(f"{workload} {name} second median worse by {w:.3f}")
            line += f"| B vs A {w:+.3f}"
        print(line)
    return flagged


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append",
                    help="any perfbench workload; default: those in BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--held-out", type=int, default=99)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seeds")
    ap.add_argument("--verbose", action="store_true", help="print every value")
    a = ap.parse_args()
    metrics = spec["end_to_end"]
    flagged = []
    for w in a.workload or names:
        if a.seeds:
            seeds = [int(s) for s in a.seeds.split(",")]
            results = [run_once(w, s, a.seconds) for s in seeds]
            flagged += report(w, [("seeds", results)], metrics, a.verbose)
            continue
        sets = [(label, [run_once(w, a.seed, a.seconds) for _ in range(a.runs)])
                for label in ("A", "B")]
        flagged += report(w, sets, metrics, a.verbose)
        held = run_once(w, a.held_out, a.seconds)
        want = {m["name"] for m in metrics}
        got = set(held["metrics"])
        ok = got == want and held["correct"]
        print(f"  held-out seed {a.held_out}: {'same metric set, correct' if ok else 'MISMATCH'}")
        if not ok:
            flagged.append(f"{w} held-out seed {a.held_out}: metrics {sorted(got ^ want)}")
    print("\nflagged:" if flagged else "\nno metric flagged")
    for f in flagged:
        print("  " + f)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
