"""The MDP core: tagged words, memory, ISA, queues, naming, and processor.

This package is the paper's primary contribution rendered as a library:
the Message-Driven Processor's mechanisms for communication (SEND
instructions, hardware message queues, 4-cycle dispatch), synchronization
(presence tags, fault-driven suspend/restart), and naming (the
``enter``/``xlate`` associative match table).
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".amt": ("AssociativeMatchTable",),
    ".costs": ("CLOCK_HZ", "CYCLE_NS", "DEFAULT_COSTS", "CostModel"),
    ".errors": ("AssemblyError", "CfutFault", "ConfigurationError",
                "FutUseFault", "IllegalInstructionFault", "MdpFault",
                "QueueOverflowFault", "SegmentationFault", "SendFault",
                "SimulationError", "TypeFault", "XlateMissFault"),
    ".faults": ("AbortFaultPolicy", "FaultPolicy", "RuntimeFaultPolicy"),
    ".isa": ("Imm", "Instr", "MemIdx", "MemOff", "OPCODES", "Reg"),
    ".memory": ("EMEM_WORDS", "IMEM_WORDS", "NodeMemory", "USER_BASE"),
    ".message": ("Message",),
    ".processor": ("Mdp", "MdpCounters", "NetworkInterface"),
    ".queues": ("DEFAULT_QUEUE_WORDS", "MIN_MESSAGE_WORDS", "MessageQueue"),
    ".registers": ("Priority", "RegisterFile", "RegisterSet"),
    ".tags": ("Tag",),
    ".word": ("FALSE", "NIL", "TRUE", "Word"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
