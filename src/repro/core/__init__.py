"""The MDP core: tagged words, memory, ISA, queues, naming, and processor.

This package is the paper's primary contribution rendered as a library:
the Message-Driven Processor's mechanisms for communication (SEND
instructions, hardware message queues, 4-cycle dispatch), synchronization
(presence tags, fault-driven suspend/restart), and naming (the
``enter``/``xlate`` associative match table).
"""

from .amt import AssociativeMatchTable
from .costs import CLOCK_HZ, CYCLE_NS, DEFAULT_COSTS, CostModel
from .errors import (
    AssemblyError,
    CfutFault,
    ConfigurationError,
    FutUseFault,
    IllegalInstructionFault,
    MdpFault,
    QueueOverflowFault,
    SegmentationFault,
    SendFault,
    SimulationError,
    TypeFault,
    XlateMissFault,
)
from .faults import AbortFaultPolicy, FaultPolicy, RuntimeFaultPolicy
from .isa import Imm, Instr, MemIdx, MemOff, OPCODES, Reg
from .memory import EMEM_WORDS, IMEM_WORDS, NodeMemory
from .message import Message
from .processor import Mdp, MdpCounters, NetworkInterface, USER_BASE
from .queues import DEFAULT_QUEUE_WORDS, MIN_MESSAGE_WORDS, MessageQueue
from .registers import Priority, RegisterFile, RegisterSet
from .tags import Tag
from .word import FALSE, NIL, TRUE, Word

__all__ = [
    "AssociativeMatchTable",
    "CLOCK_HZ",
    "CYCLE_NS",
    "DEFAULT_COSTS",
    "CostModel",
    "AssemblyError",
    "CfutFault",
    "ConfigurationError",
    "FutUseFault",
    "IllegalInstructionFault",
    "MdpFault",
    "QueueOverflowFault",
    "SegmentationFault",
    "SendFault",
    "SimulationError",
    "TypeFault",
    "XlateMissFault",
    "AbortFaultPolicy",
    "FaultPolicy",
    "RuntimeFaultPolicy",
    "Imm",
    "Instr",
    "MemIdx",
    "MemOff",
    "OPCODES",
    "Reg",
    "EMEM_WORDS",
    "IMEM_WORDS",
    "NodeMemory",
    "Message",
    "Mdp",
    "MdpCounters",
    "NetworkInterface",
    "USER_BASE",
    "DEFAULT_QUEUE_WORDS",
    "MIN_MESSAGE_WORDS",
    "MessageQueue",
    "Priority",
    "RegisterFile",
    "RegisterSet",
    "Tag",
    "FALSE",
    "NIL",
    "TRUE",
    "Word",
]
