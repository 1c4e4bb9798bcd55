"""Every metric name a full rig emits is declared, and every declared
name is emitted.

``repro.telemetry.wiring.METRIC_FAMILIES`` is the one declaration of the
registry's names (docs/OBSERVABILITY.md §1 mirrors it).  Two runs carry
every rig there is: a probed cycle-level machine with causal tracing, a
fault plan, a live sampler and the opt-in ``machine.codegen`` source,
and a macro-level run under chaos, the reliable transport and a
sampler.  Between them they must emit exactly the declared
``<prefix>.<leaf>`` names, each matching one family.
"""

import re

from repro.apps.scenario import run_scenario
from repro.chaos import ChaosEngine, FaultPlan, FaultSpec
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine
from repro.runtime.rpc import run_ping
from repro.telemetry import LiveSampler, SamplePolicy, Telemetry
from repro.telemetry.wiring import METRIC_FAMILIES, register_codegen_metrics

_PLACEHOLDERS = {"<i>": r"\d+", "<p>": r"p[01]", "<name>": r".+"}


def _pattern(prefix, leaf):
    parts = [_PLACEHOLDERS.get(part, re.escape(part))
             for part in prefix.split(".")]
    return re.compile(r"\.".join(parts) + r"\." + re.escape(leaf) + "$")


DECLARED = {(family.prefix, leaf): _pattern(family.prefix, leaf)
            for family in METRIC_FAMILIES for leaf in family.leaves}


def _cycle_names():
    telemetry = Telemetry(trace=True)
    machine = JMachine(MachineConfig(dims=(2, 2, 2), fabric_probe=True),
                       telemetry=telemetry)
    ChaosEngine(FaultPlan(seed=3, specs=(
        FaultSpec(kind="stall", node=3, start=50, duration=60),))) \
        .attach_machine(machine)
    sampler = LiveSampler(SamplePolicy(every_cycles=150)).attach(machine)
    register_codegen_metrics(telemetry.registry)
    run_ping(machine, 0, 7, iterations=20)
    assert sampler.samples > 0
    return set(telemetry.registry.snapshot())


def _macro_names():
    telemetry = Telemetry()
    engine = ChaosEngine(FaultPlan.message_loss(0.02, seed=5))
    sampler = LiveSampler(SamplePolicy(every_cycles=2_000))
    run_scenario("lcs", 8, telemetry=telemetry, chaos=engine,
                 reliable=True, sampler=sampler)
    assert engine.counters["drops"] > 0 and sampler.samples > 0
    return set(telemetry.registry.snapshot())


def test_full_rigs_emit_exactly_the_declared_families():
    emitted = _cycle_names() | _macro_names()
    matched = set()
    for name in sorted(emitted):
        families = [key for key, pattern in DECLARED.items()
                    if pattern.match(name)]
        assert len(families) == 1, (name, families)
        matched.update(families)
    assert matched == set(DECLARED), sorted(set(DECLARED) - matched)
