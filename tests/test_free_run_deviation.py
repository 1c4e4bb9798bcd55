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
"""

import pytest

from repro.apps.radix_cycle import run_cycle_radix
from repro.apps.radix_sort import RadixParams, generate_keys


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
