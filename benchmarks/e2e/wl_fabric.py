"""``fabric_traffic``: the bare flit fabric, no MDPs (Figure 3/4's path).

Saturated load points live in ``Fabric``'s conflict pool, light ones on
solo lanes; the open-loop schedule is driven twice through the same
layer — per-cycle ``step`` and batched ``advance`` — so a gain for one
drive that costs the other shows.
"""

from __future__ import annotations

import random

from harness import Results, Unit, Workload, ratio

#: (message words, idle cycles) of the Figure 3 load points.
LOAD_POINTS = {
    "rt_sat": (8, 0),
    "rt_short": (2, 0),
    "rt_long": (16, 0),
    "rt_mid": (4, 200),
    "rt_light": (8, 1600),
}


def setup(seed: int, scale: float, ctx) -> Workload:
    from repro.core.message import Message
    from repro.core.registers import Priority
    from repro.core.word import Word
    from repro.network.fabric import Fabric
    from repro.network.topology import Mesh3D
    from repro.network.traffic import (RandomTrafficExperiment,
                                       TerminalBandwidthExperiment)

    rng = random.Random(f"{seed}/fabric_traffic")
    mesh = Mesh3D(6, 6, 6)
    warm = max(50, int(300 * scale))
    measure = max(100, int(1000 * scale))
    horizon = max(150, int(2000 * scale))
    schedule = sorted(
        (rng.randrange(horizon), rng.randrange(mesh.n_nodes),
         rng.randrange(mesh.n_nodes - 1), rng.choice((2, 4, 8, 16)))
        for _ in range(max(100, int(2600 * scale))))

    def traffic_unit(name, words, idle):
        traffic_seed = rng.getrandbits(31)

        def stats(experiment):
            fabric = experiment.fabric
            return {"cycles": warm + measure,
                    "messages": fabric.stats.completed,
                    "block_cycles": fabric.stats.block_cycles,
                    "route_hits": fabric.route_cache_hits,
                    "route_misses": fabric.route_cache_misses}

        def run(experiment):
            experiment.run(warm, measure)
            return experiment

        return Unit(name,
                    lambda: RandomTrafficExperiment(mesh, words, idle,
                                                    seed=traffic_seed),
                    run, stats)

    def run_termbw(experiment):
        return experiment.run(warm, 2 * measure)

    def open_loop(batched):
        """Drive the seeded schedule to quiescence; (count, latency sum,
        end cycle).  ``advance`` is only handed windows in which nothing
        is sent, which is its quiet-window contract."""
        delivered = [0, 0]

        def deliver(node, message, now):
            delivered[0] += 1
            delivered[1] += now - message.inject_time

        def prepare():
            return Fabric(mesh, lambda node, message: True, deliver)

        def run(fabric):
            delivered[0] = delivered[1] = 0
            now, i = 0, 0
            while i < len(schedule) or fabric.active:
                while i < len(schedule) and schedule[i][0] <= now:
                    _, source, dest, words = schedule[i]
                    dest += dest >= source
                    fabric.send(Message(
                        [Word.ip(1)] + [Word.from_int(0)] * (words - 1),
                        source=source, dest=dest, priority=Priority.P0), now)
                    i += 1
                if batched:
                    until = schedule[i][0] if i < len(schedule) else now + 64
                    now = fabric.advance(now, until)
                else:
                    fabric.step(now)
                    now += 1
            return fabric, now

        def stats(result):
            fabric, now = result
            if delivered[0] != len(schedule):
                raise AssertionError(
                    f"open loop delivered {delivered[0]}/{len(schedule)}")
            return {"cycles": now, "messages": delivered[0],
                    "latency_sum": delivered[1]}

        return prepare, run, stats

    units = [traffic_unit(name, words, idle)
             for name, (words, idle) in LOAD_POINTS.items()]
    units.append(Unit("termbw", lambda: TerminalBandwidthExperiment(8),
                      run_termbw,
                      lambda r: {"cycles": r.cycles,
                                 "delivered_words": r.delivered_words}))
    units.append(Unit("openloop_step", *open_loop(batched=False)))
    units.append(Unit("openloop_advance", *open_loop(batched=True)))
    names = [unit.name for unit in units]

    def layer_metrics(r: Results):
        out = {f"network.{name}_s": r.seconds(name) for name in names}
        traffic = list(LOAD_POINTS)
        hits = r.total(traffic, "route_hits")
        misses = r.total(traffic, "route_misses")
        out.update({
            "network.advance_speedup": ratio(
                r.seconds("openloop_step"), r.seconds("openloop_advance")),
            "network.fabric_cycles_per_host_s_sat": ratio(
                r.stat("rt_sat", "cycles"), r.seconds("rt_sat")),
            "network.fabric_cycles_per_host_s_light": ratio(
                r.stat("rt_light", "cycles"), r.seconds("rt_light")),
            "network.msgs_per_host_s": ratio(
                r.total(traffic, "messages"), r.total(traffic)),
            "network.block_cycles": r.total(traffic, "block_cycles"),
            "network.completed_msgs": r.total(traffic, "messages"),
            "network.route_cache_hit_ratio": ratio(hits, hits + misses),
        })
        return out

    return Workload(units, layer_metrics,
                    twins={"openloop_advance": "openloop_step"},
                    twin_keys=("messages", "latency_sum"))
