"""Steadiness check: two independent sets of runs of each workload.

    python3 perfbench/steadiness.py --runs 5
    python3 perfbench/steadiness.py --workloads corpus-q --runs 3 --seconds 10

Run from the root of a checkout.  Each run is a fresh ``run.py`` process
with its own seed; set A takes seeds 1 to ``--runs`` and set B the next
ones, and set B starts after set A has ended.  For every end-to-end
metric the script prints each set's median and spread (the distance
between the first and third quartile as a share of the median), the
spread of all runs together, and how much worse set B's median is than
set A's, against the metric's bound in BENCHMARK.json.  A metric, setup_s
included, is steady when each set's spread stays within its bound and the
spread of all runs below a third of it, and B is not worse than A by more
than the bound; the share of failed operations must be the same in both
sets.
The raw results go to ``perfbench/out/``.  Exits 1 if anything is not
steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def spread(values) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric: dict, a: float, b: float) -> float:
    """How much worse b is than a, as a share of a (negative if better)."""
    return (b - a) / a if metric["better"] == "lower" else (a - b) / a


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                          cwd=str(ROOT))
    if done.returncode != 0:
        raise SystemExit(f"run failed ({' '.join(cmd)}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=5, help="runs per set (at least 2)")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    steady = True
    record = {}
    for workload in args.workloads.split(","):
        if workload not in names:
            ap.error(f"unknown workload {workload}")
        sets = []
        for s in range(2):
            seeds = range(1 + s * args.runs, 1 + (s + 1) * args.runs)
            runs = []
            for seed in seeds:
                t0 = time.perf_counter()
                runs.append(one_run(workload, seed, args.seconds))
                print(f"{workload} set {'AB'[s]} seed {seed}: {time.perf_counter() - t0:.0f} s wall, "
                      f"{runs[-1]['attempted']} operations, {runs[-1]['failed']} failed",
                      file=sys.stderr)
            sets.append(runs)
        record[workload] = sets
        print(f"\n{workload}")
        print(f"  {'metric':14s} {'median A':>11s} {'spread A':>9s} {'median B':>11s} "
              f"{'spread B':>9s} {'spread all':>10s} {'B worse':>8s} {'bound':>6s}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets[0]]
            b = [r["metrics"][name]["value"] for r in sets[1]]
            sp_a, sp_b, sp_all = spread(a), spread(b), spread(a + b)
            worse = worse_by(metric, statistics.median(a), statistics.median(b))
            ok = worse <= bound and max(sp_a, sp_b) <= bound and sp_all < bound / 3
            steady &= ok
            print(f"  {name:14s} {statistics.median(a):11.5g} {sp_a:9.3f} "
                  f"{statistics.median(b):11.5g} {sp_b:9.3f} {sp_all:10.3f} {worse:8.3f} "
                  f"{bound:6.2f}  {'steady' if ok else 'NOT STEADY'}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        steady &= shares[0] == shares[1] and correct
        print(f"  failed share A {shares[0]:.6f}, B {shares[1]:.6f}; all correct: {correct}")

    out = HERE / "out" / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print(f"\nraw results in {out.relative_to(ROOT)}; {'steady' if steady else 'NOT steady'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
