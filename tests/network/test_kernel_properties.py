"""Property test: the worm kernel equals the per-cycle reference.

Hypothesis draws whole schedules for a 3x3x2 mesh — sends of 2-16 words
at both priorities (half of them converging on one node), a burst of
long messages converging on a node that refuses for a while (parked
worms whose buffers still fill, drainers, and worms parked on a
drainer's channels on both sides of it in arbitration order:
``test_schedules_hold_the_new_sleepers`` checks most schedules hold
all of these), fixed or round-robin arbitration, destinations that
refuse for an interval, blocking or return-to-sender flow control,
link outages through a stub chaos object — and drives the kernel
beside :class:`ReferenceFabric`: by ``step``, compared after every
cycle, or by ``advance`` over whole windows up to the next send,
compared wherever the window ends.

At each comparison the two must agree on everything that is exact
without a ``sync()``: the owner map, every statistic, each worm's head /
tail / reservation / arbitration key, the queues, ``injection_quiet_
cycles()``, and the ordered, cycle-stamped log of every call the fabric
made out (``accept_fn``, ``deliver_fn``, ``on_injected``,
``chaos.link_blocked``, ``chaos.fabric_verdict``) — so a sleeper that
skipped a call the reference made, or made one it did not, fails.
Syncing at every comparison would wake every sleeper every cycle and
test no closed form, so the stale fields (``injected`` / ``delivered`` /
``block_cycles`` and the probe) are compared only at a few drawn
checkpoints and at the end.  The kernel's own invariants are checked at
every comparison: spans against the owner map, the parked count, each
parked worm's key and timed wake, each drainer's next release, the
order of a list the walk did not re-sort, and where each pending queue
waits.

The tier-1 budget is small; ``pytest -m slow`` runs the same property
over many more, longer schedules.

A second property pins ``Fabric.delivery_window()``, the lookahead that
block run-ahead under a stop condition is built on: no message commits
sooner than the window after its ``send``, and the shortest message to
a neighbour takes exactly the window.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.message import Message
from repro.core.registers import Priority
from repro.core.word import Word
from repro.network.fabric import BUFFER_PHITS, NEVER, Fabric
from repro.network.routing import decode_key
from repro.network.topology import Mesh3D

from .reference_fabric import ReferenceFabric, observable_state

N_NODES = 18


class _Outages:
    """Stub chaos engine: routers down for a window, nothing dropped."""

    def __init__(self, windows, log):
        self.windows = windows
        self.log = log

    def link_blocked(self, key, now):
        self.log.append(("link?", key, now))
        window = self.windows.get(decode_key(key)[0])
        return window is not None and window[0] <= now < window[1]

    def fabric_verdict(self, message, now):
        self.log.append(("verdict", message.source, message.dest, now))
        return 0


class _Side:
    """One fabric (kernel or oracle) with everything it calls logged."""

    def __init__(self, cls, plan):
        self.log = []
        self.now = 0
        # Callbacks stamp the log with the cycle they fired in.  The
        # oracle is stepped, so the harness clock is that cycle; inside
        # a kernel window only the kernel knows it.
        self.clock = ((lambda: self.fabric._cycle) if cls is Fabric
                      else (lambda: self.now))
        self.refusals = plan["refusals"]
        self.fabric = cls(Mesh3D(3, 3, 2), self._accept, self._deliver,
                          arbitration=plan["arbitration"],
                          flow_control=plan["flow_control"])
        self.fabric.on_injected = lambda message: self.log.append(
            ("injected", message.source, message.dest, self.clock()))
        if plan["outages"]:
            self.fabric.chaos = _Outages(plan["outages"], self.log)
        if plan["probe"]:
            self.fabric.attach_probe()

    def _accept(self, node, message):
        now = self.clock()
        self.log.append(("accept?", node, message.source, now))
        window = self.refusals.get(node)
        return window is None or not window[0] <= now < window[1]

    def _deliver(self, node, message, at):
        self.log.append(("deliver", node, message.source, message.length,
                         message.corrupted, at))

    def send(self, source, dest, length, priority):
        words = [Word.ip(1)] + [Word.from_int(0)] * (length - 1)
        self.fabric.send(Message(words, source=source, dest=dest,
                                 priority=priority), self.now)

    def run(self, until, batched=False):
        """Simulate up to ``until`` (one ``advance``, or ``step`` by
        ``step``)."""
        if batched:
            self.now = self.fabric.advance(self.now, until)
        while self.now < until:
            self.fabric.step(self.now)
            self.now += 1

    def exact_now(self):
        """What must match the oracle without a ``sync()``."""
        fabric = self.fabric
        return {
            # By seq: the list's order at rest means nothing (every
            # cycle re-sorts it by a total order) and differs after a
            # round-robin window jump.
            "worms": sorted((w.seq, w.head, w.released, w.reserved, w.akey,
                             w.launch_time, w.done) for w in fabric._active),
            "owner": sorted((key, w.seq)
                            for key, w in fabric._owner.items()),
            "pending": {key: [w.seq for w in queue]
                        for key, queue in fabric._pending.items()},
            "staged": sorted((at, seq) for at, seq, _ in fabric._staged),
            "stats": {k: v for k, v in vars(fabric.stats).items()
                      if isinstance(v, int)},
            "quiet": fabric.injection_quiet_cycles(),
            "log": self.log,
        }


def _order(fabric, worm):
    """``worm``'s place in the arbitration order of the cycle running."""
    if fabric.arbitration == "fixed":
        return worm.akey
    return (-worm.pri, (worm.message.source - fabric._cycle)
            % fabric.mesh.n_nodes, worm.seq)


def _watch_drain_releases(fabric, seen):
    """Wrap ``fabric._release`` (behaviour unchanged) to note, whenever
    a draining worm frees a channel others are parked on, whether each
    of them sorts before or after it."""
    release = fabric._release

    def watched(worm, stop):
        if worm.injected == worm.total_phits and worm.reserved:
            for key in worm.keys[worm.released:stop]:
                for waiter in fabric._waiters.get(key, ()):
                    seen.add("waiter before drainer"
                             if _order(fabric, waiter) < _order(fabric, worm)
                             else "waiter after drainer")
        release(worm, stop)

    fabric._release = watched


def _check_invariants(fabric):
    """The kernel's derived state is consistent; returns which sleepers
    (parked and filling, draining) are present."""
    holders = {}
    parked = 0
    seen = set()
    for worm in fabric._active:
        assert 0 <= worm.delivered <= worm.injected <= worm.total_phits
        for key in worm.keys[worm.released:worm.head + 1]:
            holders[key] = worm
        last = len(worm.keys) - 1
        if worm.parked is not None:
            parked += 1
            assert worm.head < last and worm.delivered == 0
            assert worm.parked == worm.keys[worm.head + 1]
            assert worm.parked in fabric._owner, \
                "parked behind a key nobody owns: it may never wake"
            assert worm in fabric._waiters[worm.parked]
            slack = BUFFER_PHITS * (worm.head - worm.released + 1)
            if worm.injected < min(slack, worm.total_phits):
                seen.add("filling")
            if worm.wake == NEVER:
                assert slack < worm.total_phits \
                    or worm.injected == worm.total_phits
            else:
                # A timed wake is the cycle injection completes.
                assert worm.wake == (worm.seen + worm.total_phits
                                     - worm.injected) > fabric._cycle
        elif worm.head < last:
            # Awake, or woken by a release in the last cycle.
            assert worm.wake <= fabric._cycle
        elif worm.wake >= 0:
            assert worm.reserved
            if worm.injected == worm.total_phits:
                seen.add("draining")
                # At its next look (a tail release, else completion)
                # the phits left in flight exactly fill the channels it
                # still holds behind the ejection port.
                in_flight = (worm.total_phits - worm.delivered
                             - (worm.wake - worm.seen))
                assert in_flight == BUFFER_PHITS * (last - worm.released)
    # Each owned key belongs to a worm holding it inside its span.
    assert fabric._owner == holders
    assert fabric._n_parked == parked \
        == sum(len(worms) for worms in fabric._waiters.values())
    if fabric.arbitration == "fixed" and not fabric._unsorted:
        # The walk skips the sort: the list must already be in order.
        assert [w.akey for w in fabric._active] \
            == sorted(w.akey for w in fabric._active)
    # A pending queue tries its port at the next cycle's top, or waits
    # under the port its previous worm holds.
    for queue_key, queue in fabric._pending.items():
        assert queue
        port = queue[0].keys[0]
        if queue_key not in fabric._ready:
            assert fabric._port_waiters.get(port) == queue_key
            assert port in fabric._owner, "waiting on a free port"
    assert set(fabric._port_waiters.values()) <= set(fabric._pending)
    return seen


windows = st.tuples(st.integers(0, 60), st.integers(1, 80)).map(
    lambda w: (w[0], w[0] + w[1]))

plans = st.fixed_dictionaries({
    "sends": st.lists(
        st.tuples(st.integers(0, 40),                      # cycle
                  st.integers(0, N_NODES - 1),             # source
                  # dest: half the traffic converges on one node, so
                  # worms freeze behind each other
                  st.integers(0, N_NODES - 1) | st.just(4),
                  st.integers(2, 16),                      # words
                  st.sampled_from([Priority.P0, Priority.P1])),
        min_size=1, max_size=40),
    # A convoy: a burst of long messages from distinct sources,
    # alternately at each priority, converging on a node that refuses
    # for a while, so worms park behind each other while their buffers
    # fill, then drain past waiters.  Sent in one cycle, the nearest
    # arrives first whatever its ``seq``, so waiters sort on both sides.
    "convoy_at": st.integers(0, 30),
    "convoy": st.lists(
        st.tuples(st.integers(0, N_NODES - 1),             # source
                  st.integers(9, 16)),                     # words
        min_size=8, max_size=14, unique_by=lambda send: send[0]),
    "convoy_refusal": st.integers(20, 60),                 # cycles
    "arbitration": st.sampled_from(["fixed", "round_robin"]),
    # Blocking twice as often: the convoy only piles up when refused
    # worms block.
    "flow_control": st.sampled_from(["block", "block", "return_to_sender"]),
    "refusals": st.dictionaries(st.integers(0, N_NODES - 1), windows,
                                max_size=3),
    "outages": st.dictionaries(st.integers(0, N_NODES - 1), windows,
                               max_size=2),
    "probe": st.booleans(),
    "drive": st.sampled_from(["step", "advance"]),
    "checkpoints": st.sets(st.integers(1, 200), max_size=4),
})


#: Where the convoy goes.
CONVOY = 13


def _kernel_equals_reference(plan, cycles):
    """Drive ``plan`` through kernel and oracle, comparing as it goes;
    returns the sleep situations seen: sleepers at the comparisons, and
    drain releases with a waiter on either side of the drainer."""
    refusal = (plan["convoy_at"], plan["convoy_at"] + plan["convoy_refusal"])
    plan = dict(plan, refusals={**plan["refusals"], CONVOY: refusal})
    kernel, oracle = _Side(Fabric, plan), _Side(ReferenceFabric, plan)
    seen = set()
    _watch_drain_releases(kernel.fabric, seen)
    by_cycle = {}
    for at, *send in plan["sends"]:
        by_cycle.setdefault(at, []).append(send)
    convoy = [(source, CONVOY if source != CONVOY else 0, words,
               (Priority.P0, Priority.P1)[i % 2])
              for i, (source, words) in enumerate(plan["convoy"])]
    by_cycle.setdefault(plan["convoy_at"], []).extend(convoy)
    batched = plan["drive"] == "advance"
    # A window may not hold a send (the quiet-window contract) and ends
    # at a checkpoint.  It does hold refusal edges: a refused worm polls
    # ``accept_fn`` every cycle in the kernel too, so that stays exact.
    stops = sorted(set(by_cycle) | {c + 1 for c in plan["checkpoints"]}
                   | {cycles})
    now = 0
    while now < cycles:
        for send in by_cycle.get(now, ()):
            kernel.send(*send)
            oracle.send(*send)
        until = (min(c for c in stops if c > now) if batched else now + 1)
        kernel.run(until, batched)
        # ``advance`` may stop early (completion, drained): follow it.
        oracle.run(kernel.now)
        now = kernel.now
        seen |= _check_invariants(kernel.fabric)
        assert kernel.exact_now() == oracle.exact_now(), f"t={now}"
        if now - 1 in plan["checkpoints"]:
            synced = observable_state(kernel.fabric)
            assert synced == observable_state(oracle.fabric), f"t={now}"
            assert observable_state(kernel.fabric) == synced, \
                "a second sync() changed something"
            _check_invariants(kernel.fabric)
    assert observable_state(kernel.fabric, kernel.log) \
        == observable_state(oracle.fabric, oracle.log)
    return seen


@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(plans)
def test_kernel_equals_reference(plan):
    _kernel_equals_reference(plan, cycles=160)


#: What most drawn schedules must contain, so the property above keeps
#: exercising every kind of sleeper.
SITUATIONS = ("filling", "draining", "waiter before drainer",
              "waiter after drainer")


def test_schedules_hold_the_new_sleepers():
    """Most drawn schedules hold parked worms whose buffers still fill,
    drainers, and worms parked on a drainer's channels that sort before
    it and after it (a fixed sample of the same strategy)."""
    runs = []

    @settings(deadline=None, max_examples=40, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(plans)
    def sample(plan):
        runs.append(_kernel_equals_reference(plan, cycles=160))

    sample()
    for situation in SITUATIONS:
        share = sum(situation in seen for seen in runs) / len(runs)
        assert share > 0.5, f"{situation!r} in {share:.0%} of runs"


@pytest.mark.slow
@settings(deadline=None, max_examples=5000,
          suppress_health_check=[HealthCheck.too_slow])
@given(plans)
def test_kernel_equals_reference_long(plan):
    _kernel_equals_reference(plan, cycles=600)


# ------------------------------------------------- the delivery window


def _commit_cycle(fabric, source, dest, length, priority, submit, batched):
    """Send one message into an empty ``fabric``; the cycle it commits."""
    commits = []
    fabric.deliver_fn = lambda node, message, at: commits.append(at)
    words = [Word.ip(1)] + [Word.from_int(0)] * (length - 1)
    fabric.send(Message(words, source=source, dest=dest, priority=priority),
                submit)
    now = submit
    while fabric.active:
        assert now < submit + 1_000, "the lone worm never arrived"
        if batched:
            now = fabric.advance(now, now + 50)
        else:
            fabric.step(now)
            now += 1
    assert len(commits) == 1
    return commits[0]


@st.composite
def lone_sends(draw):
    dims = draw(st.tuples(st.integers(2, 4), st.integers(1, 4),
                          st.integers(1, 3)))
    node = st.integers(0, dims[0] * dims[1] * dims[2] - 1)
    return {"dims": dims, "source": draw(node), "dest": draw(node),
            "length": draw(st.integers(1, 16)),
            "priority": draw(st.sampled_from([Priority.P0, Priority.P1])),
            "submit": draw(st.integers(0, 60)),
            "inject_latency": draw(st.integers(0, 8)),
            "eject_latency": draw(st.integers(0, 6)),
            "batched": draw(st.booleans())}


@settings(deadline=None, max_examples=150)
@given(lone_sends())
def test_delivery_window_is_sound_and_tight(case):
    def fabric():
        return Fabric(Mesh3D(*case["dims"]), lambda node, message: True,
                      None, inject_latency=case["inject_latency"],
                      eject_latency=case["eject_latency"])

    submit, priority = case["submit"], case["priority"]
    batched = case["batched"]
    window = fabric().delivery_window()
    # Sound: nothing commits before the window has passed ...
    assert _commit_cycle(fabric(), case["source"], case["dest"],
                         case["length"], priority, submit,
                         batched) >= submit + window
    # ... and tight: one word to the next node takes exactly that long.
    mesh = Mesh3D(*case["dims"])
    neighbour = next(node for node in range(mesh.n_nodes)
                     if mesh.hops(case["source"], node) == 1)
    assert _commit_cycle(fabric(), case["source"], neighbour, 1, priority,
                         submit, batched) == submit + window
