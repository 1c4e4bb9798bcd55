"""Do two complete sets of runs of the same checkout agree?

    python3 benchmarks/e2e/agree.py [--runs 10] [--workloads a,b]

Runs every workload ``--runs`` times (a fresh ``--seed`` each time),
then does it all again, and prints per workload x end-to-end metric the
two medians, how much worse the second is than the first, each set's
spread (IQR / median, as ``statistics.quantiles(n=4)`` gives it) and
the bound from ``BENCHMARK.json``.  A pair is *unresolved* when the
host was too unsteady to say (median ``bench.calib_spread`` above 0.25
in either set).  Exits non-zero on any resolved disagreement — a median
worse by more than the bound, a spread wider than the bound (``setup_s``
excepted, as in the driver's rule), or a failed operation — and writes
``AGREEMENT.json`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import iqr_share, load_config, median  # noqa: E402
from run import load_benchmark  # noqa: E402

UNSTEADY = 0.25


def one_run(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
    result = json.loads(out[-1])
    detail = json.loads(out[-2])["detail"]
    return {"seed": seed, "correct": result["correct"],
            "failed": result["failed"], "attempted": result["attempted"],
            "calib_spread": detail["bench.calib_spread"],
            "values": {k: v["value"] for k, v in result["metrics"].items()}}


def one_set(workloads: List[str], runs: int, first_seed: int, seconds: int):
    out = {}
    for workload in workloads:
        started = time.perf_counter()
        out[workload] = [one_run(workload, first_seed + i, seconds)
                         for i in range(runs)]
        print(f"  {workload}: {runs} runs in "
              f"{time.perf_counter() - started:.0f} s", flush=True)
    return out


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    args = parser.parse_args()
    benchmark = load_benchmark()
    seconds = benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    seed = load_config()["default_seed"]
    print("set 1", flush=True)
    first = one_set(workloads, args.runs, seed + 1, seconds)
    print("set 2", flush=True)
    second = one_set(workloads, args.runs, seed + 101, seconds)

    rows = []
    disagreements = 0
    print(f"{'workload':<15}{'metric':<23}{'median 1':>12}{'median 2':>12}"
          f"{'worse by':>10}{'spread 1':>10}{'spread 2':>10}{'bound':>7}  "
          f"verdict")
    for workload in workloads:
        unsteady = max(median([r["calib_spread"] for r in runs])
                       for runs in (first[workload], second[workload]))
        failed = sum(r["failed"] + (not r["correct"])
                     for r in first[workload] + second[workload])
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = [r["values"][name] for r in first[workload]]
            b = [r["values"][name] for r in second[workload]]
            worse = worse_by(median(a), median(b), metric["better"])
            spreads = [iqr_share(a), iqr_share(b)]
            agrees = worse <= metric["bound"] and not failed and (
                name == "setup_s" or max(spreads) <= metric["bound"])
            verdict = ("agree" if agrees else
                       "unresolved" if unsteady > UNSTEADY and not failed
                       else "DISAGREE")
            disagreements += verdict == "DISAGREE"
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "median_1": median(a), "median_2": median(b),
                "worse_by": worse, "spread_1": spreads[0],
                "spread_2": spreads[1], "bound": metric["bound"],
                "calib_spread": unsteady, "failed_ops": failed,
                "verdict": verdict})
            print(f"{workload:<15}{name:<23}{median(a):>12.5g}"
                  f"{median(b):>12.5g}{worse:>+10.1%}{spreads[0]:>10.1%}"
                  f"{spreads[1]:>10.1%}{metric['bound']:>7.0%}  {verdict}")
    with open(os.path.join(HERE, "AGREEMENT.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"runs_per_set": args.runs, "run_seconds": seconds,
                   "disagreements": disagreements, "rows": rows,
                   "sets": [first, second]}, fh, indent=1)
        fh.write("\n")
    print(f"agree: {disagreements} disagreement(s) over {len(rows)} pairs")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
