"""Captures written by earlier builds still restore.

The kernel added three derived sleep slots to ``Worm`` (``wake`` /
``seen`` / ``parked``) and captures nothing new in the fabric's
``state_dict`` (``Fabric.sync`` leaves the sleep bookkeeping at rest
before every capture).  A file written by the previous build therefore
has the same fabric keys but worms that unpickle *without* those slots;
``Fabric.load_state`` defaults them to "awake".  Here such a capture is
reproduced — mid-flight, plain, probed and under an active chaos plan —
by deleting the slots from every captured worm, which is exactly the
object a parent-written pickle unpickles to; the resumed run must finish
digest-equal.  (Real parent-written files were also restored by hand:
docs/SNAPSHOT.md §1.)

Per-node run-ahead added one queue attribute, ``pending_frees`` (rows a
block freed ahead of the fabric), and machine bookkeeping that is
recounted on restore rather than captured; a parent-written file's
queues unpickle without the attribute, reproduced the same way.

A file written before the sharded backend was deleted carries three
machine keys nothing reads any more and a pickled ``MachineConfig``
whose ``__dict__`` still holds a ``parallel_shards`` entry; the second
test reproduces that payload the same way.  The backend's contract was
"bit-identical or serial", so such a run resumes exactly on the one
loop whatever shard count it recorded.

The macro engine stopped pushing a task's COMPLETE event unless a
message waits for it; the format did not change, so a parent-written
macro file holds a COMPLETE for *every* running node and marks none as
"reserved, not pushed".  The last test writes such files with the
every-completion loop the parent ran (``tests/jsim/reference_engine``)
and resumes them on the engine.

Channel keys became ints (``repro.network.routing``).  A file written
before that holds ``(node, dim, dir, pclass)`` tuples as owner keys, in
each worm's ``keys`` and in the route memo (whose entries also held the
decoded path and the hop count), and its worms carry a ``path`` slot the
class no longer defines.  The int-key test pickles a capture in exactly
that form; ``Worm.__setstate__`` drops the slot and ``Fabric.load_state``
re-derives every key.  Those files, and the sleep-slot ones, also hold
each worm's arbitration key as a ``(-pri, at_port, seq)`` tuple, which
``load_state`` turns into the int of the same order.

The fabric's stagnation watchdog folded into the machine's deadlock
watchdog, so its two ``state_dict`` keys (``watchdog_cycles`` and
``stagnant_cycles``) are retired; a file written before that carries
both, and ``load_state`` no longer reads them.

Thread save and restart costs moved from ``MachineConfig``
(``suspend_save_cycles`` / ``restart_cycles``) into ``CostModel``, which
lost fields nothing charged.  A file written before that holds the two
config fields, a ``CostModel`` with the retired fields and without the
two new ones, a fault policy carrying its own copies and suspended
threads carrying their restart cost; ``restore_machine`` folds the
config's values into a current ``CostModel``.

``MachineConfig`` lost ``inject_latency`` and ``eject_latency`` (the
machine always builds its fabric with the calibrated constants) and
``ChaosEngine`` its ``log_limit``; a file written before that holds
both config fields and a ``log_limit`` key in the chaos state.

State nothing read was deleted: the ``arrive_time`` / ``dispatch_time``
slots of ``Message``, ``Worm.submit_time``, the processor's
``_suspended_by_fault``, ``NodeMemory.emem_words``, three
``NetworkStats`` window fields and the macro ``LatencyModel``'s two
message counters.  A file written before that holds all of them;
``Message.__setstate__``, ``Worm.__setstate__``,
``NodeMemory.__setstate__`` and ``NetworkStats.__setstate__`` drop
them, as ``restore_machine`` drops the processor's, so the resumed
run's whole state equals the uninterrupted one's; the macro counters
come back as keys nothing reads.

Node memory became one sparse map of the cells a node has written, and
the AMT builds a set on its first entry.  A file written before that
holds each node's SRAM as a dense list of 4K cells beside the DRAM map,
and all 64 AMT sets as a list; ``NodeMemory.__setstate__`` and
``AssociativeMatchTable.__setstate__`` fold both into the sparse form.
"""

import copyreg
import io
import pickle

import pytest

from repro.asm.assembler import assemble
from repro.chaos import FaultSpec
from repro.core.amt import AssociativeMatchTable
from repro.core.costs import DEFAULT_COSTS
from repro.core.memory import EMEM_WORDS, NodeMemory
from repro.core.message import Message
from repro.core.registers import Priority
from repro.core.word import NIL, Word
from repro.network.fabric import Worm
from repro.network.routing import decode_key
from repro.network.stats import LatencySummary
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine
from repro.snapshot import CheckpointPolicy, read_snapshot, restore_machine
from repro.telemetry import Telemetry
from tests.util import assert_same_state, machine_state

from .test_cycle_resume import ECHO, _build, _digest

SLEEP_SLOTS = ("wake", "seen", "parked")

CHAOS_SPECS = (FaultSpec(kind="drop", rate=0.3),
               FaultSpec(kind="corrupt", rate=0.2))


def _machine(specs, probe, rounds=1):
    """The echo machine; each extra round injects the echoes again, so
    worms contend and node pairs recur after a mid-flight capture."""
    machine = _build(specs=specs)
    echo = assemble(ECHO).entry("echo")
    for _ in range(rounds - 1):
        for i in range(8):
            machine.inject(i, echo, [Word.from_int((i + 3) % 8),
                                     Word.from_int(100 + i)],
                           source=(i + 1) % 8)
    if probe:
        machine.fabric.attach_probe()
    return machine


def _finish(machine):
    """Run to the end: the digest, the probe, and the route memo's hit
    and miss counts (equal only if a restore kept the memo's entries)."""
    machine.run(max_cycles=20_000)
    fabric = machine.fabric
    probe = fabric.probe
    return (_digest(machine), probe.to_dict() if probe is not None else None,
            fabric.route_cache_hits, fabric.route_cache_misses)


def _midflight(tmp_path, specs, probe, rounds=1):
    """(digest of the uninterrupted run, a mid-flight capture of it)."""
    reference = _finish(_machine(specs, probe, rounds))
    machine = _machine(specs, probe, rounds)
    # The loop top first meets worms in the mesh at cycle 27 (earlier
    # windows go through one Fabric.advance call).
    machine.checkpoint = CheckpointPolicy(
        str(tmp_path / "old-{cycle}.ckpt"), every=27)
    machine.run(max_cycles=20_000)
    first = min(tmp_path.iterdir(),
                key=lambda p: int(p.stem.split("-")[1]))
    _header, payload = read_snapshot(str(first))
    assert payload["fabric"]["active"], "capture is not mid-flight"
    return reference, payload


def _resumes_equal(payload, reference):
    resumed = restore_machine(payload)
    assert resumed.fabric.worms_in_flight > 0
    assert _finish(resumed) == reference
    return resumed


def _worms(fabric_state):
    return (fabric_state["active"]
            + [w for queue in fabric_state["pending"].values() for w in queue]
            + [entry[2] for entry in fabric_state["staged"]])


@pytest.mark.parametrize("specs, probe", [
    ((), False), ((), True), (CHAOS_SPECS, False),
], ids=["plain", "probed", "chaos"])
def test_capture_without_sleep_slots_restores(tmp_path, specs, probe):
    reference, payload = _midflight(tmp_path, specs, probe)
    for worm in _worms(payload["fabric"]):
        for slot in SLEEP_SLOTS:
            delattr(worm, slot)
        worm.akey = _tuple_akey(worm)
    _resumes_equal(payload, reference)


def _tuple_akey(worm):
    """The arbitration key as earlier builds kept it: a tuple."""
    return (-worm.pri, int(worm.head < 1), worm.seq)


def _tuple_keys(keys, pclass):
    """Channel keys as the parent wrote them: ``(node, dim, dir, pclass)``."""
    return tuple(decode_key(key) + (pclass,) for key in keys)


def _parent_pickle(payload):
    """``payload`` pickled the way the parent wrote it: tuple keys
    everywhere, route memo entries ``(path, keys, hops, crosses)`` and a
    ``path`` slot in every worm's pickled state."""
    fabric = payload["fabric"]
    fabric["owner"] = {decode_key(key) + (worm.pri,): worm
                       for key, worm in fabric["owner"].items()}
    memo = {}
    for pair, (keys, crosses) in fabric["route_cache"].items():
        old = _tuple_keys(keys, pair[2])
        memo[pair] = (tuple(k[:3] for k in old), old, len(old) - 2, crosses)
    fabric["route_cache"] = memo

    class ParentPickler(pickle.Pickler):
        def reducer_override(self, obj):
            if type(obj) is not Worm:
                return NotImplemented
            slots = {name: getattr(obj, name) for name in Worm.__slots__}
            slots["keys"] = _tuple_keys(obj.keys, obj.pri)
            slots["akey"] = _tuple_akey(obj)
            slots["path"] = tuple(k[:3] for k in slots["keys"])
            return copyreg.__newobj__, (Worm,), (None, slots)

    buffer = io.BytesIO()
    ParentPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(payload)
    return buffer.getvalue()


@pytest.mark.parametrize("specs, probe", [
    ((), False), ((), True), (CHAOS_SPECS, False),
], ids=["plain", "probed", "chaos"])
def test_capture_with_tuple_channel_keys_restores(tmp_path, specs, probe):
    reference, payload = _midflight(tmp_path, specs, probe, rounds=4)
    old = pickle.loads(_parent_pickle(payload))
    assert any(isinstance(key, tuple) for key in old["fabric"]["owner"])
    assert all(isinstance(worm.keys[0], tuple)
               and isinstance(worm.akey, tuple)
               for worm in _worms(old["fabric"]))
    _resumes_equal(old, reference)


@pytest.mark.parametrize("specs", [(), CHAOS_SPECS], ids=["plain", "chaos"])
def test_capture_without_pending_frees_restores(tmp_path, specs):
    """Queues written before ``MessageQueue.pending_frees`` existed
    unpickle with none (as does every queue captured with none, whose
    state leaves it out: the class default); the per-node traffic counts were
    never in a capture and are recounted from the worms.  Every capture
    of the echo run that holds a free made ahead of the fabric still
    finishes digest-equal with it dropped (default queues never refuse a
    worm)."""
    reference = _finish(_machine(specs, probe=False))
    machine = _machine(specs, probe=False)
    machine.checkpoint = CheckpointPolicy(
        str(tmp_path / "old-{cycle}.ckpt"), every=5)
    machine.run(max_cycles=20_000)
    resumed = 0
    for path in tmp_path.iterdir():
        _header, payload = read_snapshot(str(path))
        queues = [queue for node in payload["nodes"]
                  for queue in node["proc"]["queues"].values()]
        if not any(queue.pending_frees for queue in queues):
            continue
        for queue in queues:
            queue.__dict__.pop("pending_frees", None)
        payload = pickle.loads(pickle.dumps(payload))  # what reading unpickles
        assert not any(queue.pending_frees
                       for node in payload["nodes"]
                       for queue in node["proc"]["queues"].values())
        assert _finish(restore_machine(payload)) == reference
        resumed += 1
    assert resumed, "no capture holds a free made ahead of the fabric"


#: What ``capture_machine`` wrote for the deleted sharded backend.
RETIRED_MACHINE_KEYS = {"parallel_shards": 2, "parallel_skip_reason": None,
                        "parallel_skips": 0}


@pytest.mark.parametrize("specs", [(), CHAOS_SPECS], ids=["plain", "chaos"])
def test_capture_with_retired_backend_keys_restores(tmp_path, specs):
    reference, payload = _midflight(tmp_path, specs, probe=False)
    assert not RETIRED_MACHINE_KEYS.keys() & payload.keys()
    payload.update(RETIRED_MACHINE_KEYS)
    # A dataclass unpickles by ``__dict__.update``: the dropped field
    # comes back as a stray instance attribute.
    payload["config"].__dict__["parallel_shards"] = 2
    resumed = _resumes_equal(payload, reference)
    assert not hasattr(resumed, "parallel_shards")


def test_capture_with_retired_settings_restores(tmp_path):
    """A file written while ``MachineConfig`` still had the interface
    latencies and ``ChaosEngine`` its log limit carries both: the config
    as stray attributes (the calibrated values, as every caller left
    them) and the chaos state as a key.  Nothing reads either now."""
    reference, payload = _midflight(tmp_path, CHAOS_SPECS, probe=False)
    assert "log_limit" not in payload["chaos"]
    payload["config"].__dict__.update(inject_latency=2, eject_latency=5)
    payload["chaos"]["log_limit"] = 100_000
    old = pickle.loads(pickle.dumps(payload))  # what reading unpickles
    resumed = _resumes_equal(old, reference)
    assert not hasattr(resumed.chaos, "_log_limit")


def _stamped_pickle(payload):
    """``payload`` pickled the way a build that still stamped messages
    and worms wrote it: every ``Message`` with ``arrive_time`` and
    ``dispatch_time`` slots, every ``Worm`` with a ``submit_time``."""

    class ParentPickler(pickle.Pickler):
        def reducer_override(self, obj):
            if type(obj) is Message:
                slots = {name: getattr(obj, name)
                         for name in Message.__slots__}
                slots.update(arrive_time=obj.inject_time, dispatch_time=None)
            elif type(obj) is Worm:
                slots = {name: getattr(obj, name) for name in Worm.__slots__}
                slots["submit_time"] = obj.launch_time or 0
            else:
                return NotImplemented
            return copyreg.__newobj__, (type(obj),), (None, slots)

    buffer = io.BytesIO()
    ParentPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(payload)
    return buffer.getvalue()


@pytest.mark.parametrize("specs", [(), CHAOS_SPECS], ids=["plain", "chaos"])
def test_capture_with_unread_state_restores(tmp_path, specs):
    reference, payload = _midflight(tmp_path, specs, probe=False)
    payload["fabric"]["stats"].__dict__.update(
        window_completed=3, window_message_words=9,
        window_latency=LatencySummary())
    for node in payload["nodes"]:
        node["proc"]["_suspended_by_fault"] = False
        node["proc"]["memory"].__dict__["emem_words"] = EMEM_WORDS
    blob = _stamped_pickle(payload)
    assert b"dispatch_time" in blob and b"submit_time" in blob
    resumed = _resumes_equal(pickle.loads(blob), reference)
    uninterrupted = _machine(specs, probe=False)
    uninterrupted.run(max_cycles=20_000)
    assert_same_state(machine_state(resumed), machine_state(uninterrupted))


#: A chaos plan that also poisons node 2's AMT after the first capture,
#: so the resumed run draws its victims from converted sets.
POISON_SPECS = CHAOS_SPECS + (
    FaultSpec(kind="poison", node=2, start=40, rate=0.5),)


def _populated_machine(specs):
    """The echo machine with 24 names entered in every node's AMT (more
    than one set holds two of them) and a few DRAM words written."""
    machine = _machine(specs, probe=False)
    for node in machine.nodes:
        memory = node.proc.memory
        for k in range(24):
            node.proc.amt.enter(Word.from_int(k * 5),
                                Word.from_int(node.node_id * 100 + k))
            memory.poke(memory.imem_words + 7 * k, Word.from_int(k))
    return machine


def _dense_pickle(payload):
    """``payload`` pickled the way a build with a dense SRAM list and
    every AMT set built up front wrote it."""

    class DensePickler(pickle.Pickler):
        def reducer_override(self, obj):
            state = dict(vars(obj)) if type(obj) in (
                NodeMemory, AssociativeMatchTable) else None
            if type(obj) is NodeMemory:
                cells = state.pop("_cells")
                state["_imem_cells"] = [cells.get(address, NIL) for address
                                        in range(obj.imem_words)]
                state["_emem_cells"] = {address: word for address, word
                                        in cells.items()
                                        if address >= obj.imem_words}
                state["emem_words"] = obj.total_words - obj.imem_words
            elif type(obj) is AssociativeMatchTable:
                state["_table"] = [list(obj._table.get(index, ()))
                                   for index in range(obj.sets)]
            else:
                return NotImplemented
            return copyreg.__newobj__, (type(obj),), state

    buffer = io.BytesIO()
    DensePickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(payload)
    return buffer.getvalue()


@pytest.mark.parametrize("specs", [(), POISON_SPECS], ids=["plain", "chaos"])
def test_capture_with_dense_sram_restores(tmp_path, specs):
    whole = _populated_machine(specs)
    reference = _finish(whole)
    machine = _populated_machine(specs)
    machine.checkpoint = CheckpointPolicy(
        str(tmp_path / "old-{cycle}.ckpt"), every=27)
    machine.run(max_cycles=20_000)
    first = min(tmp_path.iterdir(), key=lambda p: int(p.stem.split("-")[1]))
    _header, payload = read_snapshot(str(first))
    assert payload["fabric"]["active"], "capture is not mid-flight"
    assert any(len(entry_set) == 2 for entry_set
               in payload["nodes"][2]["proc"]["amt"]._table.values())
    blob = _dense_pickle(payload)
    old = pickle.loads(blob)
    memory = old["nodes"][0]["proc"]["memory"]
    assert b"_imem_cells" in blob and not hasattr(memory, "_imem_cells")
    assert not hasattr(memory, "emem_words")
    resumed = _resumes_equal(old, reference)
    if specs:
        assert resumed.chaos.counters["poisoned_entries"] > 0
    assert_same_state(machine_state(resumed), machine_state(whole))


#: What ``Fabric.state_dict`` wrote for the retired stagnation watchdog
#: (off, as every caller left it, with its clock mid-count).
RETIRED_FABRIC_KEYS = {"watchdog_cycles": 0, "stagnant_cycles": 3}


@pytest.mark.parametrize("specs", [(), CHAOS_SPECS], ids=["plain", "chaos"])
def test_capture_with_retired_watchdog_keys_restores(tmp_path, specs):
    reference, payload = _midflight(tmp_path, specs, probe=True)
    assert not RETIRED_FABRIC_KEYS.keys() & payload["fabric"].keys()
    payload["fabric"].update(RETIRED_FABRIC_KEYS)
    old = pickle.loads(pickle.dumps(payload))  # what reading unpickles
    # Equal digest, probe and route-memo counts, then equal statistics.
    resumed = _resumes_equal(old, reference)
    uninterrupted = _machine(specs, probe=True)
    uninterrupted.run(max_cycles=20_000)
    assert _stats(resumed.fabric) == _stats(uninterrupted.fabric)


#: ``CostModel`` fields retired with the one cost table, as a parent
#: build's pickle holds them.
RETIRED_COST_FIELDS = {
    "imem_operand_extra": 1, "emem_operand_extra": 5,
    "null_rpc_thread_cycles": 19, "remote_read_imem_per_word": 2,
    "remote_read_emem_per_word": 8, "phit": 1, "interface": 1,
    "sync_tag_success": 2, "sync_tag_failure": 6, "sync_tag_write": 4,
    "sync_flag_success": 5, "sync_flag_failure": 7, "sync_flag_write": 6,
    "suspend_save_min": 30, "suspend_save_max": 50, "restart_min": 20,
    "restart_max": 50, "extras": {},
}

#: Node 0's consumer suspends on a cfut slot; node 1 spins, then sends
#: the producer that fills the slot and restarts it.
SUSPENDER = """
consumer:
    MOVE  [A0+0], R2
    MOVE  R2, [A0+1]
    SUSPEND
producer:
    MOVE  [A3+1], [A0+0]
    SUSPEND
kick:
    MOVE  [A3+1], R0
spin:
    SUB   R0, #1, R0
    BT    R0, spin
    MOVE  #0, R1
    MOVE  #77, R2
    SEND  R1
    SEND2E #IP:producer, R2
    SUSPEND
"""


def _suspender(costs):
    machine = JMachine(MachineConfig(dims=(2, 1, 1), costs=costs),
                       telemetry=Telemetry())
    program = assemble(SUSPENDER)
    machine.load(program)
    base = program.end + 4
    for node in machine.nodes:
        node.proc.registers[Priority.P0].write("A0", Word.segment(base, 4))
        node.proc.memory.poke(base, Word.cfut())
    machine.inject(0, program.entry("consumer"))
    machine.inject(1, program.entry("kick"), [Word.from_int(40)])
    return machine


def test_capture_with_retired_config_costs_restores(tmp_path):
    """Tuned save/restart costs (Table 3's 8/8) survive a parent-form
    capture taken while a thread waits: the restart after the resume is
    charged 8, as in the uninterrupted run, not the default 20."""
    tuned = DEFAULT_COSTS.with_overrides(suspend_save=8, restart=8)
    whole = _suspender(tuned)
    whole.run(max_cycles=20_000)
    assert whole.nodes[0].proc.counters.restarts == 1
    reference = _digest(whole)
    machine = _suspender(tuned)
    machine.checkpoint = CheckpointPolicy(
        str(tmp_path / "old-{cycle}.ckpt"), every=10)
    machine.run(max_cycles=20_000)
    waiting = []
    for path in tmp_path.iterdir():
        _header, payload = read_snapshot(str(path))
        if payload["nodes"][0]["proc"]["_watch"]:
            waiting.append(payload)
    assert waiting, "no capture holds the suspended consumer"
    for payload in waiting:
        config = payload["config"]
        config.__dict__.update(suspend_save_cycles=8, restart_cycles=8)
        costs = config.costs.__dict__     # unpickled: not ``tuned``
        del costs["suspend_save"], costs["restart"]
        costs.update(RETIRED_COST_FIELDS)
        for node in payload["nodes"]:
            proc = node["proc"]
            proc["fault_policy"].__dict__.update(save_cycles=8,
                                                 restart_cycles=8)
            for threads in proc["_watch"].values():
                for thread in threads:
                    thread.__dict__["restart_cycles"] = 8
        old = pickle.loads(pickle.dumps(payload))  # what reading unpickles
        resumed = restore_machine(old)
        assert resumed.config.costs == tuned
        assert resumed.nodes[0].proc.costs is resumed.config.costs
        resumed.run(max_cycles=20_000)
        assert _digest(resumed) == reference


def _stats(fabric):
    stats = fabric.stats
    return ({k: v for k, v in vars(stats).items()
             if isinstance(v, (int, float))},
            stats.latency.snapshot())


# ------------------------------------------------------------- macro level


@pytest.mark.parametrize("faulty", [False, True], ids=["plain", "chaos"])
def test_macro_capture_with_every_completion_restores(tmp_path, monkeypatch,
                                                      faulty):
    from repro.apps import lcs
    from repro.jsim.sim import MacroSimulator
    from repro.telemetry import Telemetry
    from tests.jsim.reference_engine import ReferenceSimulator

    from .test_macro_resume import N_NODES, PARAMS, _chaos, _digest

    def run(**kwargs):
        telemetry = Telemetry()
        if faulty:
            kwargs.update(chaos=_chaos(), reliable=True)
        result = lcs.run_parallel(N_NODES, PARAMS, telemetry=telemetry,
                                  **kwargs)
        return _digest(result, telemetry)

    want = run()
    monkeypatch.setattr(lcs, "MacroSimulator", ReferenceSimulator)
    policy = CheckpointPolicy(str(tmp_path / "old-{cycle}.ckpt"),
                              every=want["cycles"] // 3)
    assert run(checkpoint=policy) == want     # the oracle is the parent
    monkeypatch.setattr(lcs, "MacroSimulator", MacroSimulator)

    files = sorted(tmp_path.iterdir(),
                   key=lambda p: int(p.stem.split("-")[1]))
    assert len(files) >= 2
    mid_task = 0
    for path in files:
        _header, payload = read_snapshot(str(path))
        running = [i for i, node in enumerate(payload["nodes"])
                   if node["running"]]
        mid_task += len(running)
        assert sorted(event[3] for event in payload["events"]
                      if event[2] == MacroSimulator._COMPLETE) == running
        assert run(restore_from=str(path)) == want
    assert mid_task, "no capture caught a task running"


def test_macro_capture_with_network_counters_restores(tmp_path):
    """A macro file written while the latency model counted messages
    holds two more keys in its network state; ``load_state`` reads
    neither."""
    from repro.apps import lcs
    from repro.snapshot import write_snapshot

    from .test_macro_resume import N_NODES, PARAMS, _digest

    def run(**kwargs):
        telemetry = Telemetry()
        result = lcs.run_parallel(N_NODES, PARAMS, telemetry=telemetry,
                                  **kwargs)
        return _digest(result, telemetry)

    want = run()
    path = str(tmp_path / "old.ckpt")
    run(checkpoint=CheckpointPolicy(path, every=want["cycles"] // 2))
    header, payload = read_snapshot(path)
    assert "messages" not in payload["network"]
    payload["network"].update(messages=200, crossing_messages=96)
    write_snapshot(path, "macro", payload, meta=header["meta"])
    assert run(restore_from=path) == want
