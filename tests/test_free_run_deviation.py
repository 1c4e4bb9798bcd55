"""Known deviation: a *free* run on the fast path is not cycle-exact.

Runs under a stop condition (``run(until=StopFlags(...))``) are exact:
their block deadlines account for every peer that could send or store
(tests/machine/test_stop_flags.py, tests/test_fastpath_equivalence.py).
A free run (``until=None``) keeps the older deadline rule, which lets a
block run ahead of a delivery that a *later-ticked* peer causes; the
commit then pulls the processor's next tick back (``_commit_deliveries``
-> ``_schedule_proc``) and the cycles it had run ahead vanish, and
``fabric.send`` calls arrive in host rather than virtual-time order.
The gap is small and the work done is identical; closing it costs the
compute-bound workloads 2.5x (docs/PERFORMANCE.md "Stop conditions"),
so it is pinned here rather than fixed (EXPERIMENTS.md, ROADMAP 4c).

A fault schedule is not such a peer: every block stops at its next
action, so a scheduled AMT ``poison`` lands at its cycle on both paths
even while the fabric is idle.
"""

import random

import pytest

from repro.apps.radix_cycle import run_cycle_radix
from repro.apps.radix_sort import RadixParams, generate_keys
from repro.asm.assembler import assemble
from repro.chaos import ChaosEngine, FaultPlan, FaultSpec
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine


@pytest.fixture(scope="module")
def radix64():
    keys = generate_keys(RadixParams(n_keys=128, key_bits=4, digit_bits=2,
                                     seed=5))
    return [run_cycle_radix(64, keys, n_digits=2, stop="quiescent",
                            fast_path=fast) for fast in (True, False)]


@pytest.mark.xfail(strict=True,
                   reason="free runs are not cycle-exact (ROADMAP 4c)")
def test_free_run_fast_equals_reference(radix64):
    fast, reference = radix64
    assert fast == reference


def test_free_run_gap_is_small_and_the_work_identical(radix64):
    fast, reference = radix64
    assert reference.cycles == 17_435
    assert 0 <= reference.cycles - fast.cycles <= 0.005 * reference.cycles
    assert fast.sorted_keys == reference.sorted_keys
    assert fast.instructions == reference.instructions
    assert fast.write_messages == reference.write_messages


#: Each node's background thread names 40 keys, then looks them up 900
#: times; no message is ever sent, so the fabric stays idle.
NAMES = """
start:
    MOVE  #40, R0
    MOVE  #0, R1
enter:
    ENTER R1, R1
    ADD   R1, #1, R1
    SUB   R0, #1, R0
    BT    R0, enter
    MOVE  #900, R0
    MOVE  #0, R1
lookup:
    XLATE R1, R2
    ADD   R1, #1, R1
    MOD   R1, #40, R1
    SUB   R0, #1, R0
    BT    R0, lookup
    HALT
"""


def _poisoned_names(fast_path, seed=1):
    """(cycles, xlate misses per node) of the free run under 1-4 whole-AMT
    poisonings per node at cycles 260-3000."""
    draw = random.Random(seed)
    specs = tuple(FaultSpec(kind="poison", node=node,
                            start=draw.randint(260, 3000))
                  for node in range(8) for _ in range(draw.randint(1, 4)))
    machine = JMachine(MachineConfig(dims=(2, 2, 2), fast_path=fast_path))
    program = assemble(NAMES)
    machine.load(program)
    ChaosEngine(FaultPlan(seed=seed, specs=specs)).attach_machine(machine)
    for node in range(8):
        machine.start_background(node, program.entry("start"))
    machine.run()
    return machine.now, [node.proc.amt.misses for node in machine.nodes]


@pytest.fixture(scope="module")
def poisoned():
    return [_poisoned_names(fast) for fast in (True, False)]


def test_the_interpreter_misses_after_every_poisoning(poisoned):
    _, reference = poisoned
    cycles, misses = reference
    assert cycles == 22_339
    assert all(count > 0 for count in misses)


def test_a_poisoning_lands_at_its_cycle_on_the_fast_path(poisoned):
    fast, reference = poisoned
    assert fast == reference
