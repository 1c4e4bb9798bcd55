"""Fault handling policies for the MDP.

The MDP reflects exceptional events — reading a not-present value, missing
in the name table, running out of queue space, the network refusing a word
— to *system software* through fault vectors.  What that software does is
a policy choice, and the paper is explicit that policy costs dominate some
mechanisms (Table 2 quotes 30-50 cycles for thread save and 20-50 for
restart, "reflecting different possible policies within the runtime and
compiler system").

:class:`FaultPolicy` is the hook the processor calls; the default
:class:`RuntimeFaultPolicy` implements the behaviour the paper's runtime
uses:

* **cfut read** — suspend the faulting thread, watch the faulted address,
  and restart the thread when a value is written there (charging the
  configured save and restart costs).
* **fut use** — same treatment (the future's value has not arrived).
* **xlate miss** — reload the binding from the software table, charging
  the miss-path cost, and resume the instruction.
* **send fault** — stall one cycle and retry (hardware backpressure).

:class:`AbortFaultPolicy` re-raises everything; unit tests use it to
assert that specific instruction sequences fault.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .errors import CfutFault, FutUseFault, MdpFault, SendFault, XlateMissFault
from .word import Word

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .processor import Mdp

__all__ = ["FaultPolicy", "RuntimeFaultPolicy", "AbortFaultPolicy"]


class FaultPolicy:
    """Interface the processor uses to resolve architectural faults.

    Each method returns the cycle cost of the fault path.  ``on_cfut``
    and ``on_fut_use`` may suspend the current thread (by calling
    ``proc.suspend_on(address)``); the processor then abandons the
    faulting instruction and re-runs it on restart.
    """

    def on_cfut(self, proc: "Mdp", address: Optional[int], fault: CfutFault) -> int:
        raise NotImplementedError

    def on_fut_use(self, proc: "Mdp", address: Optional[int], fault: FutUseFault) -> int:
        raise NotImplementedError

    def on_xlate_miss(self, proc: "Mdp", key: Word, fault: XlateMissFault) -> int:
        raise NotImplementedError

    def on_send_fault(self, proc: "Mdp", fault: SendFault) -> int:
        raise NotImplementedError


class RuntimeFaultPolicy(FaultPolicy):
    """The paper's runtime behaviour: suspend/restart on presence faults.

    A suspension charges the processor's ``costs.suspend_save`` after the
    fault vector; the restart charges ``costs.restart`` when the awaited
    write arrives (Table 2's Save/Restore column).
    """

    def on_cfut(self, proc: "Mdp", address: Optional[int], fault: CfutFault) -> int:
        if address is None:
            # A cfut in a register with no memory home cannot be watched;
            # that is a programming error under this runtime.
            raise fault
        proc.suspend_on(address)
        return proc.costs.fault_vector + proc.costs.suspend_save

    def on_fut_use(self, proc: "Mdp", address: Optional[int], fault: FutUseFault) -> int:
        if address is None:
            raise fault
        proc.suspend_on(address)
        return proc.costs.fault_vector + proc.costs.suspend_save

    def on_xlate_miss(self, proc: "Mdp", key: Word, fault: XlateMissFault) -> int:
        proc.amt.miss_fill(key)  # re-raises if genuinely unbound
        if proc._events is not None:
            # Single emission point covering both the reference
            # interpreter and the fast-path XLATE runner.
            priority = proc._active_priority
            proc._events.emit(
                "xlate-fault", proc._event_time, proc.node_id,
                int(priority) if priority is not None else 0,
                key=repr(key),
            )
        return proc.costs.xlate_miss

    def on_send_fault(self, proc: "Mdp", fault: SendFault) -> int:
        proc.counters.send_faults += 1
        return 1  # retry next cycle


class AbortFaultPolicy(FaultPolicy):
    """Re-raise every fault to the simulation host (for tests)."""

    def _raise(self, fault: MdpFault) -> int:
        raise fault

    def on_cfut(self, proc: "Mdp", address: Optional[int], fault: CfutFault) -> int:
        return self._raise(fault)

    def on_fut_use(self, proc: "Mdp", address: Optional[int], fault: FutUseFault) -> int:
        return self._raise(fault)

    def on_xlate_miss(self, proc: "Mdp", key: Word, fault: XlateMissFault) -> int:
        return self._raise(fault)

    def on_send_fault(self, proc: "Mdp", fault: SendFault) -> int:
        return self._raise(fault)
