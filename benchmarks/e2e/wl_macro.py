"""``macro_apps``: the event-driven macro simulator (Figure 5's path).

Small-scale points of the four applications plus one 512-node radix
sort, which has paper scale's heap depth and 512^2 pair-cache footprint
without its run time.  The N-Queens and TSP instances are fixed: their
search work depends on the instance, and a seed must not change how
much work a run does.
"""

from __future__ import annotations

import random

import programs
from harness import Results, Unit, Workload, ratio, scaled


def setup(seed: int, scale: float, ctx) -> Workload:
    from repro.apps import lcs, nqueens, radix_sort, tsp

    rng = random.Random(f"{seed}/macro_apps")
    relay_hops = scaled(10_000, scale, 100)
    lcs_params = lcs.LcsParams(seed=rng.getrandbits(31)).scaled(
        max(0.01, 0.05 * scale))
    radix64 = radix_sort.RadixParams(n_keys=64 * scaled(32, scale),
                                     seed=rng.getrandbits(31))
    radix512 = radix_sort.RadixParams(n_keys=512 * scaled(6, scale),
                                      seed=rng.getrandbits(31))
    queens = nqueens.NQueensParams(n=10 if scale >= 1 else 7)
    cities = tsp.TspParams(n_cities=9 if scale >= 1 else 7, task_depth=2)

    def run_relay(sim):
        sim.run()
        return sim

    def relay_stats(sim):
        if sim.messages_sent != relay_hops + 1:
            raise AssertionError(f"relay sent {sim.messages_sent} messages")
        return {"cycles": sim.end_time, "messages": sim.messages_sent,
                "threads": sim.messages_sent}

    def app_stats(result):
        # run_parallel has already checked the answer against the app's
        # reference (LCS length, sorted keys, solution count, Held-Karp).
        return {"cycles": result.cycles,
                "instructions": result.total_instructions(),
                "threads": result.total_threads(),
                "messages": result.sim.messages_sent}

    def run_sequential(_):
        return (lcs.run_sequential(lcs_params).cycles,
                radix_sort.run_sequential(radix64).cycles,
                nqueens.run_sequential(queens).cycles)

    units = [
        Unit("relay16", lambda: programs.build_relay(relay_hops), run_relay,
             relay_stats),
        Unit("lcs64", lambda: None,
             lambda _: lcs.run_parallel(64, lcs_params), app_stats),
        Unit("radix64", lambda: None,
             lambda _: radix_sort.run_parallel(64, radix64), app_stats),
        Unit("nqueens64", lambda: None,
             lambda _: nqueens.run_parallel(64, queens), app_stats),
        Unit("tsp64", lambda: None,
             lambda _: tsp.run_parallel(64, cities), app_stats),
        Unit("radix512", lambda: None,
             lambda _: radix_sort.run_parallel(512, radix512), app_stats),
        Unit("seq_baselines", lambda: None, run_sequential,
             lambda c: {"lcs": c[0], "radix": c[1], "nqueens": c[2]}),
    ]
    e2e_names = [unit.name for unit in units]
    netmodel_pairs = scaled(50_000, scale, 1_000)
    if ctx.layers:
        pairs = [(rng.randrange(512), rng.randrange(512))
                 for _ in range(netmodel_pairs)]

        def build_model():
            from repro.jsim.netmodel import LatencyModel
            from repro.network.topology import Mesh3D

            return LatencyModel(Mesh3D(8, 8, 8))

        def run_model(model):
            now = total = 0
            for source, dest in pairs:
                total += model.latency(source, dest, 4, now)
                now += 3
            return total

        units.append(Unit("netmodel", build_model, run_model,
                          lambda total: {"latency_sum": total}, e2e=False))

    def layer_metrics(r: Results):
        apps = [n for n in e2e_names if n not in ("relay16", "seq_baselines")]
        out = {f"apps.{name}_s": r.seconds(name)
               for name in apps + ["seq_baselines"]}
        events = ["relay16"] + apps
        out.update({
            "jsim.relay16_s": r.seconds("relay16"),
            # one event per message delivered plus one per thread completed
            "jsim.events_per_host_s": ratio(
                r.total(events, "messages") + r.total(events, "threads"),
                r.total(events)),
            "jsim.netmodel_latency_us":
                ratio(r.seconds("netmodel"), netmodel_pairs / 1e6),
            "jsim.sim_cycles_per_host_s":
                ratio(r.total(events, "cycles"), r.total(events)),
        })
        return out

    return Workload(units, layer_metrics)
