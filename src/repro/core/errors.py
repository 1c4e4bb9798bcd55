"""Exception hierarchy for the J-Machine reproduction.

Two families of exceptions exist:

* :class:`SimulationError` and subclasses signal *misuse of the simulator*
  (bad configuration, assembling garbage, indexing a node that does not
  exist).  These are ordinary Python errors.
* :class:`MdpFault` and subclasses model *architectural faults* of the MDP
  itself — events the real chip would vector to a system-software fault
  handler (reading a ``cfut`` slot, missing in the name-translation table,
  overflowing the hardware message queue, a send instruction finding the
  network interface unable to accept a word).  The processor model catches
  these internally and invokes the configured fault policy; they only
  escape to the caller when no handler is installed.
"""

from __future__ import annotations

__all__ = [
    "SimulationError",
    "ConfigurationError",
    "AssemblyError",
    "MemoryError_",
    "QueueUnderflowError",
    "DeadlockError",
    "DeliveryError",
    "SnapshotError",
    "MdpFault",
    "CfutFault",
    "FutUseFault",
    "XlateMissFault",
    "QueueOverflowFault",
    "SendFault",
    "EarlySuspend",
    "IllegalInstructionFault",
    "SegmentationFault",
    "TypeFault",
]


class SimulationError(Exception):
    """Base class for errors in the simulation infrastructure itself."""


class ConfigurationError(SimulationError):
    """An invalid machine/network/benchmark configuration was requested."""


class AssemblyError(SimulationError):
    """The MDP assembler rejected a source program."""

    def __init__(self, message: str, line: int = 0, source: str = "") -> None:
        self.line = line
        self.source = source
        location = f" (line {line})" if line else ""
        super().__init__(f"{message}{location}")


class MemoryError_(SimulationError):
    """Host-level misuse of a simulated memory (not an architectural fault)."""


class QueueUnderflowError(SimulationError):
    """Dequeue from an empty hardware message queue (host-side misuse).

    The real MDP cannot underflow — dispatch only fires when a message
    reaches the queue head — so an empty-queue dequeue is always a bug in
    the simulation host, not an architectural fault, and must not be
    conflated with :class:`QueueOverflowFault`.
    """


class DeadlockError(SimulationError):
    """The machine (or the network) stopped making progress.

    Raised by :class:`~repro.chaos.watchdog.DeadlockWatchdog` (whose
    message also lists each stuck worm and the worm blocking it) and by
    ``JMachine.run_until_quiescent`` when a run wedges.  Carries a
    diagnostic payload so a hung run fails with *evidence* instead of a
    generic error:

    Attributes:
        now: the simulated cycle the stall was detected at.
        snapshots: per-node diagnostic snapshots (see
            :func:`repro.chaos.watchdog.snapshot_node`), possibly empty.
        worms_in_flight: messages stuck in the network at detection time.
    """

    def __init__(self, detail: str = "", now: int = 0, snapshots=(),
                 worms_in_flight: int = 0) -> None:
        self.now = now
        self.snapshots = list(snapshots)
        self.worms_in_flight = worms_in_flight
        lines = [detail]
        for snap in self.snapshots[:16]:
            lines.append(f"  {snap}")
        if len(self.snapshots) > 16:
            lines.append(f"  ... and {len(self.snapshots) - 16} more nodes")
        super().__init__("\n".join(lines))


class DeliveryError(SimulationError):
    """A reliable-transport message exhausted its retry budget.

    Raised by :class:`repro.runtime.rpc.ReliableLayer` when a message is
    retransmitted ``max_retries`` times without an acknowledgment —
    either the injected loss rate is higher than the retry budget can
    absorb or the destination node is dead.
    """

    def __init__(self, detail: str = "", source: int = -1, dest: int = -1,
                 seq: int = -1, attempts: int = 0) -> None:
        self.source = source
        self.dest = dest
        self.seq = seq
        self.attempts = attempts
        super().__init__(detail)


class SnapshotError(SimulationError):
    """A checkpoint file could not be written, read, or applied.

    Raised by :mod:`repro.snapshot` for corrupt payloads (sha256
    mismatch), unknown format versions, and restores into a simulator
    whose shape (node count, registered handlers) does not match the
    one that was captured.
    """


class MdpFault(Exception):
    """Base class for architectural faults raised inside the MDP model.

    Attributes:
        fault_name: short mnemonic used to look up the fault vector.
        cycles: cycles charged for fault detection itself (the vectoring
            and handler costs are charged by whoever handles the fault).
    """

    fault_name = "fault"
    cycles = 1

    def __init__(self, detail: str = "") -> None:
        self.detail = detail
        super().__init__(f"{self.fault_name}: {detail}" if detail else self.fault_name)


class CfutFault(MdpFault):
    """A ``cfut``-tagged slot was read before its value was produced."""

    fault_name = "cfut"


class FutUseFault(MdpFault):
    """A ``fut``-tagged word was used as an operand."""

    fault_name = "fut"


class XlateMissFault(MdpFault):
    """``xlate`` did not find the key in the associative match table."""

    fault_name = "xlate_miss"


class QueueOverflowFault(MdpFault):
    """A message arrived while the hardware message queue was full."""

    fault_name = "queue_overflow"


class SendFault(MdpFault):
    """The network interface refused a word (injection backpressure)."""

    fault_name = "send"


class EarlySuspend(MdpFault):
    """Internal control-flow signal: the running thread suspended."""

    fault_name = "suspend"


class IllegalInstructionFault(MdpFault):
    """Decode failure or an operation applied to unsupported operands."""

    fault_name = "illegal"


class SegmentationFault(MdpFault):
    """An indexed access fell outside its segment descriptor's bounds."""

    fault_name = "segv"


class TypeFault(MdpFault):
    """A tag check failed (e.g. arithmetic on a non-numeric tag)."""

    fault_name = "type"
