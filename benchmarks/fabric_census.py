"""Where the worm kernel's time goes: a census of ``Fabric`` visits.

    PYTHONPATH=src python benchmarks/fabric_census.py [--seed 1993]

(``make census``.)  Runs the five Figure 3 load points of the repo
benchmark's ``fabric_traffic`` workload (6x6x6 mesh, 300 warm-up + 1000
measured cycles, the same per-seed traffic RNGs as
``benchmarks/e2e/wl_fabric.py``, constructed here from ``repro.*``
alone) and its seeded open-loop schedule, and prints per run how many
times the kernel (``Fabric.advance``) looked at a worm, split by what
the look was for:

* ``routing`` — a full visit whose head took its next channel;
* ``filling`` — the head is blocked by a channel owner while the
  buffers behind it still take a phit;
* ``frozen`` — the head is blocked and the buffers are full (a parked
  worm woken by a release that lost the channel again, or a first
  blocked visit with no slack);
* ``streaming`` — the head holds the ejection port and injection is
  still under way (refused worms polling ``accept_fn`` count here too;
  these runs never refuse);
* ``drain`` / ``cheap`` — injection is complete and the ejection port
  reserved: a full visit, or the kernel's cheap tail-release step;
* ``complete`` — the visit that delivers the last phit;
* ``visits`` — every full visit (all of the above but ``cheap``), and
  ``worm-cycles``, the visits a loop over every worm every cycle makes.

The source is not instrumented: ``Fabric.advance`` is wrapped for the
duration of a run so that every window is simulated one cycle at a
time (the kernel is exact at any window size, and the wrapper ends its
windows where the kernel would), and each worm's fields before and
after every cycle say whether it was visited and why.  A sleeper's
fields are as of its last full visit, so its state at the top of a
cycle is rebuilt from the closed forms ``Fabric.advance`` documents.
Simulated results are unaffected.
"""

from __future__ import annotations

import argparse
import random
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

from repro.core.message import Message
from repro.core.registers import Priority
from repro.core.word import Word
from repro.network.fabric import AWAKE, BUFFER_PHITS, Fabric
from repro.network.topology import Mesh3D
from repro.network.traffic import RandomTrafficExperiment

#: (message words, idle cycles) of the Figure 3 load points, in the
#: order ``benchmarks/e2e/wl_fabric.py`` draws their seeds.
LOAD_POINTS = {
    "rt_sat": (8, 0),
    "rt_short": (2, 0),
    "rt_long": (16, 0),
    "rt_mid": (4, 200),
    "rt_light": (8, 1600),
}

CLASSES = ("routing", "filling", "frozen", "streaming", "drain", "cheap",
           "complete")


def _top_of_cycle(worm, cycle: int) -> Tuple[int, int, int, int]:
    """``worm``'s (wake, head, released, injected) at the top of
    ``cycle``; a sleeper's ``injected`` is as of its last full visit,
    so it is brought forward by the kernel's closed forms."""
    injected = worm.injected
    if worm.wake != AWAKE:
        skipped = cycle - worm.seen - 1
        if worm.head < len(worm.keys) - 1:
            injected = min(injected + skipped, worm.total_phits,
                           BUFFER_PHITS * (worm.head - worm.released + 1))
        elif injected < worm.total_phits:
            injected += skipped
    return worm.wake, worm.head, worm.released, injected


#: A worm launched at the top of the cycle: at its injection port.
LAUNCHED = (AWAKE, 0, 0, 0)


def _classify(worm, top, cycle: int) -> str:
    """Why the kernel looked at ``worm`` in ``cycle`` ('' if it did
    not); ``top`` is its :func:`_top_of_cycle`."""
    wake, head, released, injected = top
    if worm.done:
        return "complete"
    if worm.seen != cycle and worm.wake != AWAKE:
        return "cheap" if wake <= cycle else ""
    if worm.head > head:
        return "routing"
    if head < len(worm.keys) - 1:
        slack = BUFFER_PHITS * (head - released + 1)
        return ("filling" if injected < min(slack, worm.total_phits)
                else "frozen")
    return "streaming" if injected < worm.total_phits else "drain"


@contextmanager
def _visits_counted(counts: Dict[str, int]):
    """While inside, ``Fabric.advance`` runs its windows a cycle at a
    time and adds every look at a worm to ``counts``."""
    advance = Fabric.advance

    def counted_advance(fabric, now, horizon):
        end = horizon
        cycle = now
        while cycle < end:
            tops = {worm: _top_of_cycle(worm, cycle)
                    for worm in fabric._active}
            advance(fabric, cycle, cycle + 1)
            finished = False
            for worm in list(tops) + [w for w in fabric._active
                                      if w not in tops]:
                kind = _classify(worm, tops.get(worm, LAUNCHED), cycle)
                if kind:
                    counts[kind] += 1
                finished |= worm.done
            counts["worm_cycles"] += len(tops)
            cycle += 1
            # Where the kernel's own window would have ended.
            if not fabric.active:
                break
            if finished:
                end = min(end, cycle - 1 + fabric.eject_latency)
        return cycle

    Fabric.advance = counted_advance
    try:
        yield
    finally:
        Fabric.advance = advance


def runs(seed: int) -> List[Tuple[str, Callable[[], object]]]:
    """(name, run) for the five load points and the open-loop schedule,
    as ``benchmarks/e2e/wl_fabric.py`` derives them from ``seed``."""
    rng = random.Random(f"{seed}/fabric_traffic")
    mesh = Mesh3D(6, 6, 6)
    schedule = sorted(
        (rng.randrange(2000), rng.randrange(mesh.n_nodes),
         rng.randrange(mesh.n_nodes - 1), rng.choice((2, 4, 8, 16)))
        for _ in range(2600))

    def traffic(words, idle, traffic_seed):
        return lambda: RandomTrafficExperiment(
            mesh, words, idle, seed=traffic_seed).run(300, 1000)

    def open_loop():
        fabric = Fabric(mesh, lambda node, message: True,
                        lambda node, message, now: None)
        now, i = 0, 0
        while i < len(schedule) or fabric.active:
            while i < len(schedule) and schedule[i][0] <= now:
                _, source, dest, words = schedule[i]
                dest += dest >= source
                fabric.send(Message(
                    [Word.ip(1)] + [Word.from_int(0)] * (words - 1),
                    source=source, dest=dest, priority=Priority.P0), now)
                i += 1
            until = schedule[i][0] if i < len(schedule) else now + 64
            now = fabric.advance(now, until)

    out = [(name, traffic(words, idle, rng.getrandbits(31)))
           for name, (words, idle) in LOAD_POINTS.items()]
    out.append(("openloop", open_loop))
    return out


def census(run: Callable[[], object]) -> Dict[str, int]:
    """Run ``run()`` once with every kernel look counted."""
    counts = dict.fromkeys(CLASSES + ("worm_cycles",), 0)
    with _visits_counted(counts):
        run()
    counts["visits"] = sum(counts[kind] for kind in CLASSES
                           if kind != "cheap")
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1993,
                        help="benchmark seed the runs derive from "
                             "(default: the benchmark's default, 1993)")
    args = parser.parse_args(argv)
    columns = CLASSES + ("visits", "worm_cycles")
    print(f"{'run':<10}" + "".join(f"{name:>12}" for name in columns))
    for name, run in runs(args.seed):
        counts = census(run)
        print(f"{name:<10}" + "".join(f"{counts[c]:>12}" for c in columns))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
