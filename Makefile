# Convenience targets for the J-Machine reproduction.

.PHONY: install test bench perfsmoke telemetry-gate chaos-smoke \
	trace-smoke snapshot-smoke live-smoke service-smoke \
	fabric-smoke bench-e2e census importcost kernel-deep chaos-deep \
	trajectory check paper report examples clean

install:
	pip install -e .

test:
	PYTHONPATH=src python -m pytest tests/

# Every table and figure at small scale, each artifact run once, closed
# by the paper scorecard (repro.bench.fidelity): exits 1 when any claim
# leaves its band.  The only gate on the paper's claims.
bench:
	PYTHONPATH=src python -m repro.bench

# Simulator-throughput regression smoke: re-measures BENCH_simspeed.json
# and appends the run to its in-tree "trajectory" history, so the perf
# trend accumulates across commits (docs/PERFORMANCE.md explains how).
perfsmoke:
	PYTHONPATH=src python -m pytest benchmarks/bench_simulator_speed.py \
		--benchmark-only --benchmark-json=BENCH_simspeed_run.json
	PYTHONPATH=src python benchmarks/append_trajectory.py \
		BENCH_simspeed_run.json BENCH_simspeed.json
	rm -f BENCH_simspeed_run.json

# Telemetry-overhead gate: attaching metrics-only telemetry must stay
# within 3% of the uninstrumented loaded-fabric benchmark.  Reads the
# perfsmoke output, so it re-measures first (docs/OBSERVABILITY.md).
telemetry-gate: perfsmoke
	PYTHONPATH=src python benchmarks/check_telemetry_overhead.py \
		BENCH_simspeed.json

# Fault-injection smoke: fixed-seed sweep asserting that benchmarks
# complete under message loss via the retry path and that the same seed
# reproduces the identical telemetry event stream (docs/ROBUSTNESS.md).
chaos-smoke:
	PYTHONPATH=src python benchmarks/chaos_sweep.py --smoke

# Causal-tracing smoke: a tiny traced LCS run asserting the critical
# path is connected and acyclic and that its per-category attribution
# stays within the machine's cycle count, then that LCS and N-Queens
# efficiency decays toward the Figure 5 knee (docs/OBSERVABILITY.md).
trace-smoke:
	PYTHONPATH=src python benchmarks/bench_critical_path.py --smoke

# Checkpoint/restore smoke: kill each simulation level at its first
# periodic save, resume in a fresh process, and assert the sha256
# telemetry digest matches an uninterrupted run; records save/restore
# latency into BENCH_snapshot.json (docs/SNAPSHOT.md).
snapshot-smoke:
	PYTHONPATH=src python benchmarks/snapshot_smoke.py --smoke

# Live-monitoring smoke: watch one sampled LCS run headlessly, assert
# the frame stream is monotone and the final frame equals report(),
# then smoke the /metrics, /snapshot.json, and /stream endpoints
# (docs/OBSERVABILITY.md §7).
live-smoke:
	PYTHONPATH=src python benchmarks/live_smoke.py --smoke

# Fault-tolerant service smoke: boot the job server + worker fleet,
# submit a small LCS grid, kill -9 a worker mid-job and assert the job
# recovers from its checkpoint, drain, then resubmit the grid to a
# fresh service and assert 100% content-addressed cache hits with
# equal fingerprints; no orphaned processes or tmp files afterwards
# (docs/SERVICE.md).
service-smoke:
	PYTHONPATH=src python benchmarks/service_smoke.py --smoke

# Fabric-observatory smoke: transpose-pattern midplane hotspot
# detection, probe-on/off event-digest equality, and the
# contention-model calibration fit
# (docs/OBSERVABILITY.md §8).
fabric-smoke:
	PYTHONPATH=src python benchmarks/fabric_smoke.py --smoke

# The repo benchmark's correctness check (BENCHMARK.json,
# benchmarks/e2e/README.md): every workload once at 1/10 size, plain
# and traced, every app's own checker passing, failed-operation share 0.
# Gates simplifications: a deleted path must leave every unit correct.
# (benchmarks/e2e_gate.py says why this is not `run.py --selfcheck`
# until the next benchmark refresh.)
bench-e2e:
	python3 benchmarks/e2e_gate.py

# What bounds compiled-block run-ahead: Mdp.tick calls, run-loop passes,
# block binds and how ticks ended, per cycle_apps / cycle_compute
# machine at the benchmark's default seed (docs/PERFORMANCE.md §1); then
# the worm kernel's visits per fabric_traffic load point, by what each
# visit was for (docs/PERFORMANCE.md §2, "One worm kernel"); then the
# macro engine's bytecodes and Python calls per message, by function,
# for relay16, radix64 and radix512 (§2, "The macro engine"; ~1 min).
census:
	PYTHONPATH=src python benchmarks/run_ahead_census.py
	PYTHONPATH=src python benchmarks/fabric_census.py
	PYTHONPATH=src python benchmarks/macro_census.py

# What importing each entry point costs a fresh process: the repro
# modules it loads, the source lines they compile and the median
# cold-import seconds (docs/PERFORMANCE.md §8).  Gates nothing.
importcost:
	PYTHONPATH=src python benchmarks/import_census.py

# The worm kernel against the per-cycle reference over many long drawn
# schedules (~1.5 min; the default test run deselects -m slow).
kernel-deep:
	PYTHONPATH=src python -m pytest -m slow tests/network/test_kernel_properties.py

# The fast path against the interpreter under drawn cycle-level fault
# plans, free and under a stop condition, and batched against stepped
# (the default test run deselects -m slow; chaos-smoke covers only the
# macro level).
chaos-deep:
	PYTHONPATH=src python -m pytest -m slow tests/chaos/test_fast_path_under_chaos.py

# Render the committed perf-trajectory artifacts and gate the newest
# point against the median of its priors (docs/PERFORMANCE.md).
trajectory:
	PYTHONPATH=src python -m repro.bench trajectory

# The full gate: correctness, the long property runs of the worm kernel
# and of the fast path under chaos, the paper scorecard, throughput,
# telemetry overhead, chaos, causal tracing, checkpoint/restore, live
# monitoring, fault-tolerant service, fabric observatory, the repo
# benchmark's selfcheck.
check: test kernel-deep chaos-deep bench telemetry-gate chaos-smoke trace-smoke \
	snapshot-smoke live-smoke service-smoke fabric-smoke bench-e2e

# Regenerate every table and figure at the paper's sizes (slow).
paper:
	JM_SCALE=paper PYTHONPATH=src python -m repro.bench --out RESULTS_PAPER.md

# Quick full report at small scale.
report:
	PYTHONPATH=src python -m repro.bench --out RESULTS.md

examples:
	for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src python $$f || exit 1; done

clean:
	rm -rf .pytest_cache .hypothesis RESULTS.md RESULTS_PAPER.md \
	       BENCH_simspeed_run.json
	find . -name __pycache__ -type d -exec rm -rf {} +
