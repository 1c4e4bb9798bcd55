"""``observed_run``: the same machines with every observer attached.

The only workload in which ``telemetry``, ``snapshot`` and ``chaos``
code runs at all (zero-cost-when-disabled is a repo contract), so hook,
snapshot-format and schema work has a number here while the other five
workloads predict no change.  Every observed ring must reproduce the
plain ring's simulated cycles and instructions exactly.
"""

from __future__ import annotations

import os
import random

import programs
from harness import Results, Unit, Workload, ratio, scaled

#: The drop plan's seed is fixed: how many messages it destroys must not
#: depend on ``--seed`` (the strings that flow through it do).
CHAOS_SEED = 4242


def setup(seed: int, scale: float, ctx) -> Workload:
    from repro.apps import lcs
    from repro.chaos import ChaosEngine, FaultPlan
    from repro.machine.jmachine import JMachine
    from repro.snapshot import CheckpointPolicy
    from repro.telemetry import (CausalGraph, LiveSampler, SamplePolicy,
                                 Telemetry)

    rng = random.Random(f"{seed}/observed_run")
    hops = scaled(180, scale, 10)
    snap_reps = scaled(12, scale, 2)
    relay_hops = scaled(3_000, scale, 100)
    lcs_params = lcs.LcsParams(seed=rng.getrandbits(31)).scaled(
        max(0.02, 0.04 * scale))
    dims, tokens = (4, 4, 1), 8

    # ---- the ring under each observer --------------------------------
    def ring(telemetry=None, probe=False):
        return lambda: programs.build_ring(
            dims, tokens, hops, probe=probe,
            telemetry=None if telemetry is None else Telemetry(**telemetry))

    def ring_sampled():
        state = programs.build_ring(dims, tokens, hops)
        LiveSampler(SamplePolicy(every_cycles=2_000)).attach(state[0])
        return state

    ckpt_path = os.path.join(ctx.tmpdir, "ring.ckpt")

    def ring_checkpointed():
        state = programs.build_ring(dims, tokens, hops)
        state[0].checkpoint = CheckpointPolicy(ckpt_path, every=2_000)
        return state

    def ring_stats(state):
        stats = programs.ring_stats(state)
        machine = state[0]
        if machine.telemetry is not None \
                and machine.telemetry.events is not None:
            stats["events"] = len(machine.telemetry.events)
        if machine.checkpoint is not None:
            stats["saves"] = machine.checkpoint.saves
        return stats

    # ---- macro LCS: plain, traced, and lossy with the reliable layer --
    def macro_stats(result):
        stats = {"cycles": result.cycles,
                 "instructions": result.total_instructions()}
        stats.update(result.extra.get("reliable", {}))
        return stats

    # ---- snapshots of a mid-run machine / simulator -------------------
    cycle_snap = os.path.join(ctx.tmpdir, "cycle.snap")
    macro_snap = os.path.join(ctx.tmpdir, "macro.snap")

    def midrun_machine():
        state = programs.build_ring(dims, tokens, hops)
        state[0].run(max_cycles=hops * 12)  # about a third of the way
        return state

    def save_cycle(state):
        for _ in range(snap_reps):
            state[0].save(cycle_snap)
        return state

    def restore_cycle(state):
        for _ in range(snap_reps):
            machine = JMachine.restore(cycle_snap)
        return machine, state[1]

    def restored_ring_stats(state):
        # The restored machine must finish exactly as the plain ring does.
        stats = programs.ring_stats(programs.run_machine(state))
        stats["bytes"] = os.path.getsize(cycle_snap)
        return stats

    def midrun_sim():
        sim = programs.build_relay(relay_hops)
        sim.run(max_time=relay_hops * 15)  # about a third of the way
        return sim

    def save_macro(sim):
        for _ in range(snap_reps):
            sim.save(macro_snap)
        return sim

    def restore_macro(_):
        for _ in range(snap_reps):
            sim = programs.build_relay(relay_hops, inject=False)
            sim.restore_state(macro_snap)
        return sim

    uninterrupted = programs.build_relay(relay_hops)
    uninterrupted.run()

    def restored_relay_stats(sim):
        sim.run()
        if (sim.end_time, sim.messages_sent) != (
                uninterrupted.end_time, uninterrupted.messages_sent):
            raise AssertionError("restored relay diverged from the "
                                 "uninterrupted run")
        return {"cycles": sim.end_time, "messages": sim.messages_sent,
                "bytes": os.path.getsize(macro_snap)}

    # ---- exporting a traced stream -------------------------------------
    jsonl_path = os.path.join(ctx.tmpdir, "events.jsonl")

    def traced_telemetry():
        state = programs.run_machine(ring(telemetry={"trace": True})())
        return state[0].telemetry

    def run_export(telemetry):
        written = telemetry.write_jsonl(jsonl_path)
        chrome = telemetry.events.to_chrome_trace()
        path = CausalGraph.from_bus(telemetry.events).critical_path()
        return written, len(chrome["traceEvents"]), path.length

    def export_stats(result):
        written, chrome_events, path_length = result
        if not (written and chrome_events and path_length):
            raise AssertionError(f"empty export: {result}")
        return {"events": written, "chrome_events": chrome_events,
                "critical_path_cycles": path_length}

    units = [
        Unit("ring16_plain", ring(), programs.run_machine, ring_stats),
        Unit("ring16_metrics", ring(telemetry={"events": False}),
             programs.run_machine, ring_stats),
        Unit("ring16_events", ring(telemetry={}), programs.run_machine,
             ring_stats),
        Unit("ring16_traced", ring(telemetry={"trace": True}),
             programs.run_machine, ring_stats),
        Unit("ring16_probe", ring(probe=True), programs.run_machine,
             ring_stats),
        Unit("ring16_sampler", ring_sampled, programs.run_machine,
             ring_stats),
        Unit("ring16_ckpt", ring_checkpointed, programs.run_machine,
             ring_stats),
        Unit("lcs16_plain", lambda: None,
             lambda _: lcs.run_parallel(16, lcs_params), macro_stats),
        Unit("lcs16_events", lambda: None,
             lambda _: lcs.run_parallel(16, lcs_params,
                                        telemetry=Telemetry(trace=True)),
             macro_stats),
        Unit("lcs16_chaos", lambda: None,
             lambda _: lcs.run_parallel(
                 16, lcs_params, reliable=True,
                 chaos=ChaosEngine(FaultPlan.message_loss(
                     0.01, seed=CHAOS_SEED))),
             macro_stats),
        Unit("snap_cycle", midrun_machine,
             lambda state: restore_cycle(save_cycle(state)),
             restored_ring_stats),
        Unit("snap_macro", midrun_sim,
             lambda sim: restore_macro(save_macro(sim)),
             restored_relay_stats),
        Unit("export", traced_telemetry, run_export, export_stats),
    ]
    observed = ["ring16_metrics", "ring16_events", "ring16_traced",
                "ring16_probe", "ring16_sampler", "ring16_ckpt"]
    twins = {name: "ring16_plain" for name in observed}
    twins["snap_cycle"] = "ring16_plain"
    twins["lcs16_events"] = "lcs16_plain"
    if ctx.layers:
        # Save and restore timed apart (the end-to-end unit does both).
        units += [
            Unit("cycle_save", midrun_machine, save_cycle,
                 lambda state: {"bytes": os.path.getsize(cycle_snap)},
                 e2e=False),
            Unit("cycle_restore", lambda: save_cycle(midrun_machine()),
                 restore_cycle, restored_ring_stats, e2e=False),
            Unit("macro_save", midrun_sim, save_macro,
                 lambda sim: {"bytes": os.path.getsize(macro_snap)},
                 e2e=False),
            Unit("macro_restore", lambda: save_macro(midrun_sim()),
                 restore_macro, restored_relay_stats, e2e=False),
            Unit("critical_path", traced_telemetry,
                 lambda t: CausalGraph.from_bus(t.events).critical_path(),
                 lambda path: {"cycles": path.length}, e2e=False),
        ]

    def layer_metrics(r: Results):
        out = {f"telemetry.{name[len('ring16_'):]}_overhead_pct":
               r.overhead_pct(name, "ring16_plain") for name in observed[:5]}
        out.update({
            "telemetry.events_collected": r.stat("ring16_events", "events"),
            "telemetry.export_s": r.seconds("export"),
            "telemetry.critical_path_s": r.seconds("critical_path"),
            "snapshot.cycle_save_s":
                ratio(r.seconds("cycle_save"), snap_reps),
            "snapshot.cycle_restore_s":
                ratio(r.seconds("cycle_restore"), snap_reps),
            "snapshot.cycle_bytes": r.stat("cycle_save", "bytes"),
            "snapshot.macro_save_s":
                ratio(r.seconds("macro_save"), snap_reps),
            "snapshot.macro_restore_s":
                ratio(r.seconds("macro_restore"), snap_reps),
            "snapshot.macro_bytes": r.stat("macro_save", "bytes"),
            "snapshot.ckpt_overhead_pct":
                r.overhead_pct("ring16_ckpt", "ring16_plain"),
            "chaos.reliable_overhead_pct":
                r.overhead_pct("lcs16_chaos", "lcs16_plain"),
            "chaos.retransmits": r.stat("lcs16_chaos", "retries"),
        })
        return out

    return Workload(units, layer_metrics, twins)
