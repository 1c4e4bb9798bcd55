"""A task's charges are kept once: the ledger the traced task event
records is the one the node profiles and handler stats are folded from.

Over traced catalogue runs, plain and under a drop plan with the
reliable transport (whose sequence checks charge inside tasks):

* each ``task`` event's categories sum to its duration;
* per node, the categories of its tasks, with each task's hardware
  ``dispatch`` counted as ``comm``, equal its :class:`Profile`;
* per handler, the tasks' durations less their dispatch equal its
  :class:`HandlerStats` cycles.
"""

from collections import Counter

import pytest

from repro.apps.scenario import run_scenario
from repro.chaos import ChaosEngine, FaultPlan
from repro.jsim.profile import CATEGORIES
from repro.telemetry import Telemetry


@pytest.mark.parametrize("lossy", [False, True], ids=["plain", "lossy"])
@pytest.mark.parametrize("app", ["lcs", "nqueens"])
def test_task_events_conserve_the_profile_and_handler_stats(app, lossy):
    telemetry = Telemetry(trace=True)
    rig = {}
    if lossy:
        rig = {"chaos": ChaosEngine(FaultPlan.message_loss(0.02, seed=5)),
               "reliable": True}
    sim = run_scenario(app, 8, telemetry=telemetry, **rig).target
    if lossy:
        assert rig["chaos"].counters["drops"] > 0

    per_node = [Counter() for _ in sim.nodes]
    per_handler = Counter()
    tasks = 0
    for event in telemetry.events.iter_dicts():
        if event["kind"] != "task":
            continue
        tasks += 1
        cats = dict(event["cats"])
        assert sum(cats.values()) == event["dur"], event
        dispatch = cats.pop("dispatch")
        per_handler[event["name"]] += event["dur"] - dispatch
        per_node[event["node"]].update(cats)
        per_node[event["node"]]["comm"] += dispatch

    assert tasks == sum(stats.invocations
                        for stats in sim.handler_stats.values())
    for node, booked in zip(sim.nodes, per_node):
        assert {name: getattr(node.profile, name) for name in CATEGORIES} \
            == {name: booked[name] for name in CATEGORIES}
    assert {name: stats.cycles for name, stats in sim.handler_stats.items()} \
        == {name: per_handler[name] for name in sim.handler_stats}
