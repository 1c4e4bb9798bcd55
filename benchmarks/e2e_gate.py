"""``make bench-e2e``: every benchmark workload once, small, must be correct.

``benchmarks/e2e/`` is frozen between benchmark PRs (``BENCHMARK.json``
``paths``), and its own ``run.py --selfcheck`` insists that a traced
pass leaves no per-layer metric null.  Since the sharded backend was
deleted (docs/PERFORMANCE.md §3) the two ``*_2shard`` units are missing
entry points — null, named in ``detail["missing"]``, not failed, as that
directory's README rules — so ``--selfcheck`` stops there until ROADMAP
item 2 refreshes the directory, and this file goes with that refresh.
Until then this is the same sweep — each workload plain and traced at
1/10 size, every app's own checker passing, no failed operation — with
exactly those metrics allowed to be null.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "e2e"))

import run  # noqa: E402

RETIRED = {"parallel.grid64_2shard_s", "parallel.grid64_speedup",
           "parallel.ring16_2shard_s", "parallel.ring16_speedup",
           "parallel.skip_count"}


def main() -> int:
    seed = run.harness.load_config()["default_seed"] + 1
    for name in run.WORKLOADS:
        for trace in (False, True):
            report = run.run_workload(name, seed, 0.0, trace, scale=0.1,
                                      setup_reps=1, min_passes=1)
            result, detail = report["result"], report["detail"]
            if not result["correct"] or result["attempted"] < 1:
                sys.exit(f"bench-e2e: {name} (trace={int(trace)}) failed "
                         f"{result['failed']} of {result['attempted']} "
                         f"operations: {detail['notes']}")
            unexpected = set(detail.get("null", ())) - RETIRED
            if unexpected:
                sys.exit(f"bench-e2e: {name} lost its entry point for "
                         f"{sorted(unexpected)}: {detail['missing']}")
        print(f"bench-e2e: {name} ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
