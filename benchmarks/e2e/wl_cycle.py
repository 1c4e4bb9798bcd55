"""The two cycle-level workloads.

``cycle_compute`` keeps the fabric idle (MDP-bound); ``cycle_apps`` keeps
MDP, run loop and fabric all busy and is the Figure 2 / Table 1 /
Table 3 path.  Sizes are set so one pass is ~1.2 s on the reference box.
"""

from __future__ import annotations

import random

import programs
from harness import Results, Unit, Workload, ratio, scaled


def _sharded(stats):
    """``stats`` plus whether the parallel backend declined the machine."""
    def with_skip(state):
        out = stats(state)
        out["skipped"] = int(state[0].parallel_skip_reason is not None)
        return out
    return with_skip


def setup_compute(seed: int, scale: float, ctx) -> Workload:
    from repro.apps.radix_cycle import radix_cycle_source
    from repro.asm.assembler import assemble

    loop_iters = scaled(28_000, scale, 100)
    grid64_iters = scaled(1_400, scale, 20)
    grid512_iters = scaled(150, scale, 5)
    asm_reps = scaled(40, scale, 2)

    units = [
        Unit("mdp_loop", lambda: programs.build_mdp_loop(loop_iters),
             programs.run_mdp_loop, programs.mdp_loop_stats),
        Unit("grid64", lambda: programs.build_grid(64, grid64_iters),
             programs.run_machine, programs.grid_stats),
        Unit("grid512", lambda: programs.build_grid(512, grid512_iters),
             programs.run_machine, programs.grid_stats),
    ]
    twins = {}
    if ctx.layers:
        asm_source = radix_cycle_source(8, 64, 4)

        units += [
            Unit("mdp_ref",
                 lambda: programs.build_mdp_loop(loop_iters, fast_path=False),
                 programs.run_mdp_loop, programs.mdp_loop_stats, e2e=False),
            Unit("asm", lambda: None,
                 lambda _: [assemble(asm_source) for _ in range(asm_reps)][-1],
                 lambda program: {"words": program.end}, e2e=False),
            Unit("build512", lambda: None,
                 lambda _: programs.build_grid(512, grid512_iters),
                 lambda state: {"nodes": len(state[0].nodes)}, e2e=False),
            Unit("grid64_2shard",
                 lambda: programs.build_grid(64, grid64_iters,
                                             parallel_shards=2),
                 programs.run_machine, _sharded(programs.grid_stats),
                 e2e=False),
        ]
        twins["grid64_2shard"] = "grid64"
        twins["mdp_ref"] = "mdp_loop"

    def layer_metrics(r: Results):
        fast, ref = r.seconds("mdp_loop"), r.seconds("mdp_ref")
        return {
            "core.mdp_fast_s": fast,
            "core.mdp_ref_s": ref,
            "core.fastpath_speedup": ratio(ref, fast),
            "core.instr_per_host_s":
                ratio(r.stat("mdp_loop", "instructions"), fast),
            "core.asm_s": ratio(r.seconds("asm"), asm_reps),
            "machine.build512_s": r.seconds("build512"),
            "machine.grid64_s": r.seconds("grid64"),
            "machine.grid512_s": r.seconds("grid512"),
            "parallel.grid64_2shard_s": r.seconds("grid64_2shard"),
            "parallel.grid64_speedup":
                ratio(r.seconds("grid64"), r.seconds("grid64_2shard")),
            "parallel.skip_count": r.stat("grid64_2shard", "skipped"),
        }

    return Workload(units, layer_metrics, twins)


def setup_apps(seed: int, scale: float, ctx) -> Workload:
    from repro.apps.lcs import LcsParams
    from repro.apps.lcs_cycle import run_cycle_lcs
    from repro.apps.radix_cycle import run_cycle_radix
    from repro.apps.radix_sort import RadixParams, generate_keys
    from repro.machine.config import MachineConfig
    from repro.machine.jmachine import JMachine
    from repro.runtime.barrier import run_barrier_experiment
    from repro.runtime.rpc import run_ping

    rng = random.Random(f"{seed}/cycle_apps")
    ping_iters = scaled(400, scale, 10)
    barriers = scaled(3, scale)
    ring_hops = scaled(250, scale, 10)
    lcs_params = LcsParams(a_len=32, b_len=scaled(64, scale, 16),
                           seed=rng.getrandbits(31))
    # Two 2-bit digits: an instance both simulation levels can sort.
    radix_digits = 2
    radix_params = RadixParams(n_keys=64 * scaled(2, scale),
                               key_bits=2 * radix_digits, digit_bits=2,
                               seed=rng.getrandbits(31))
    radix_keys = generate_keys(radix_params)

    def machine64():
        return JMachine(MachineConfig(dims=(4, 4, 4)))

    def app_stats(result):
        return {"cycles": result.cycles, "instructions": result.instructions}

    units = [
        Unit("ping64", machine64,
             lambda m: run_ping(m, 0, 63, iterations=ping_iters),
             lambda r: {"cycles": r.total_cycles}),
        Unit("barrier64", machine64,
             lambda m: run_barrier_experiment(m, barriers=barriers),
             lambda r: {"cycles": r.total_cycles}),
        Unit("ring16", lambda: programs.build_ring((4, 4, 1), 8, ring_hops),
             programs.run_machine, programs.ring_stats),
        Unit("lcs8_cycle", lambda: None,
             lambda _: run_cycle_lcs(8, lcs_params), app_stats),
        Unit("radix64_cycle", lambda: None,
             lambda _: run_cycle_radix(64, radix_keys, n_digits=radix_digits), app_stats),
    ]
    e2e_names = [unit.name for unit in units]
    twins = {}
    once = frozenset()
    if ctx.layers:
        ring64_hops = scaled(40, scale, 4)

        def run_xlevel(_):
            from repro.apps import lcs, radix_sort

            return (lcs.run_parallel(8, lcs_params).cycles,
                    radix_sort.run_parallel(64, radix_params).cycles)

        units += [
            # 48 tokens on 8x8x1: >= 24 solo worms, the NumpyLanes regime
            # (ring16's 8 tokens stay on PyLanes).
            Unit("ring64",
                 lambda: programs.build_ring((8, 8, 1), 48, ring64_hops),
                 programs.run_machine, programs.ring_stats, e2e=False),
            Unit("ring16_2shard",
                 lambda: programs.build_ring((4, 4, 1), 8, ring_hops,
                                             parallel_shards=2),
                 programs.run_machine, _sharded(programs.ring_stats),
                 e2e=False),
            Unit("xlevel", lambda: None, run_xlevel,
                 lambda c: {"lcs_cycles": c[0], "radix_cycles": c[1]},
                 e2e=False),
            Unit("paper_anchors", lambda: None,
                 lambda _: _paper_errors(scale), lambda errors: errors,
                 e2e=False),
        ]
        twins["ring16_2shard"] = "ring16"
        once = frozenset({"paper_anchors"})

    def layer_metrics(r: Results):
        seconds = r.total(e2e_names)
        barrier_cycles = r.stat("barrier64", "cycles")
        xlevel = r.stats("xlevel")
        xlevel_err = None
        if xlevel is not None:
            pairs = [(xlevel["lcs_cycles"], r.stat("lcs8_cycle", "cycles")),
                     (xlevel["radix_cycles"],
                      r.stat("radix64_cycle", "cycles"))]
            xlevel_err = 100.0 * sum(
                abs(macro - cycle) / cycle for macro, cycle in pairs) / 2
        return {
            "machine.ring16_s": r.seconds("ring16"),
            "machine.ring64_s": r.seconds("ring64"),
            "machine.sim_cycles_per_host_s":
                ratio(r.total(e2e_names, "cycles"), seconds),
            "machine.instr_per_host_s": ratio(
                r.total(["ring16", "lcs8_cycle", "radix64_cycle"],
                        "instructions"),
                r.total(["ring16", "lcs8_cycle", "radix64_cycle"])),
            "runtime.ping64_s": r.seconds("ping64"),
            "runtime.barrier64_s": r.seconds("barrier64"),
            # 80 ns cycles at the prototype's 12.5 MHz.
            "runtime.barrier64_us_sim": barrier_cycles / barriers * 0.08,
            "runtime.paper_err_pct": r.stat("paper_anchors", "mean_err_pct"),
            "apps.lcs8_cycle_s": r.seconds("lcs8_cycle"),
            "apps.radix64_cycle_s": r.seconds("radix64_cycle"),
            "apps.xlevel_err_pct": xlevel_err,
            "parallel.ring16_2shard_s": r.seconds("ring16_2shard"),
            "parallel.ring16_speedup":
                ratio(r.seconds("ring16"), r.seconds("ring16_2shard")),
            "parallel.skip_count": r.stat("ring16_2shard", "skipped"),
        }

    return Workload(units, layer_metrics, twins, once)


def _paper_errors(scale: float):
    """Relative error against the paper's own J-Machine rows.

    Simulated time only, so it repeats exactly.  The 98-cycle corner
    read needs the 8x8x8 machine the paper measured; the other Figure 2
    anchors come from ``fig2.run()`` on its default 4x4x4 mesh.
    """
    from repro.bench import fig2, table1, table3
    from repro.bench.reference import (PAPER_FIG2, TABLE1_JMACHINE,
                                       TABLE3_BARRIER_US)
    from repro.machine.config import MachineConfig
    from repro.machine.jmachine import JMachine
    from repro.runtime.rpc import run_remote_read

    iterations = scaled(20, scale, 2)
    figure = fig2.run(iterations)
    corner = run_remote_read(JMachine(MachineConfig(dims=(8, 8, 8))), 1, True,
                             0, 511, iterations).round_trip_cycles
    overhead = table1.run(scaled(200, scale, 20)).measured
    barrier = table3.run(scaled(8, scale)).measured_us
    pairs = [
        (figure.series["Ping"][0], PAPER_FIG2["ping_base_cycles"]),
        (figure.series["Read 1 (Imem)"][1],
         PAPER_FIG2["read1_imem_neighbour"]),
        (corner, PAPER_FIG2["read1_imem_corner"]),
        (overhead.cycles_per_msg, TABLE1_JMACHINE.cycles_per_msg),
        (overhead.cycles_per_byte, TABLE1_JMACHINE.cycles_per_byte),
    ]
    pairs += [(us, TABLE3_BARRIER_US["J-Machine"][n])
              for n, us in barrier.items()]
    errors = [abs(ours - paper) / paper for ours, paper in pairs]
    return {"anchors": len(pairs),
            "mean_err_pct": round(100.0 * sum(errors) / len(errors), 6)}
