"""Basic-block compiler for the MDP's fast execution path.

The reference interpreter (:meth:`repro.core.processor.Mdp._execute_one`)
re-classifies every operand and walks the opcode if-chain on every
execution.  This module translates a *basic block* — the straight-line
run of instructions from a start address up to and including its first
branch or boundary op — into the source text of one Python function,
``compile()``\\ s it once, and lets ``Mdp.tick`` call blocks instead of
instructions.  Register names, immediates, segment offsets, cost
constants and the counter category are literals in that text.

Registers live in locals.  A register is read from ``regset.regs`` on
its first use in the block and kept in a local from then on: its Word,
or — once an instruction of the block has written a known ``INT`` or
``BOOL`` into it — its raw int, so arithmetic on it skips the dict, the
tag tests and the ``Word`` allocation.  The generator tracks each
register's tag statically, with the guards its word has already passed,
and emits a guard only where the reference's could still fail.

A block whose branch goes back to its own start is a loop.  When no
instruction before the branch has a run-time cost (a memory operand or
a call-out), its first iteration is emitted as straight-line code under
the entry state (every register unloaded), then a steady-state body
specialised on the tags known at the back edge (the fixed point of the
body's effect), which the function repeats without returning.  The
steady body makes one deadline test per iteration — ``vnow + <start of
the branch> < end`` — and settles its counters once per iteration; when
the test fails the registers are stored back and the first-iteration
code, which tests the deadline per instruction, runs again to the cut.
A loop with a run-time cost has the one body: its back edge stores the
dirty registers and goes round to the top, which loads them again.
When the steady body is affine — it ends in ``BT``/``BF`` and writes
only induction variables, accumulators of them and the compare the
branch alone reads — a closed-form jump before it applies in O(1) the
iterations that all branch back and all start before the deadline, at
most all but the last one the body would run.

What a generated function keeps (the contract is cycle- and fault-
exactness against the reference, enforced by
``tests/test_fastpath_equivalence.py`` and ``tests/core/test_blocks.py``):

* the reference's guard order per instruction (operand 1 read and
  presence guards, operand 2, then the numeric check; segment bounds
  before the memory call) and its fault messages and ``fault.address``;
  a guard is left out only where the register's word is statically
  known to pass it;
* ``Word``'s 32-bit wrap on every raw write that can leave the range
  (``if not LO <= v <= HI``; comparisons, AND/OR/XOR, NOT and MOVEID
  cannot);
* every dirty register is stored back, boxed, at every exit (a deadline,
  a branch out, a boundary op, a watched store, a send held back), in the
  handler before :meth:`Mdp._block_fault`, and before every call-out
  (SEND-family, SUSPEND, XLATE, ENTER, a watched store's ``wake``), so
  ``regset.regs`` is what the interpreter leaves wherever anything can
  look; after ``XLATE``, whose fault policy may write registers, every
  register is read again;
* every memory access goes through ``NodeMemory.read``/``write``, a
  write to a watched address calls ``_wake_watchers`` with the
  instruction's start cycle and ends the block;
* an instruction starts iff it starts before the deadline ``end``
  (tested per instruction, or per steady iteration as above), and a
  SEND-family op only before ``send_before``, whose order into the
  fabric the machine must control under a stop condition;
* a jump leaves the registers, counters and virtual time the steady
  body leaves after as many iterations, and always leaves the steady
  body at least one more, which takes the exit or meets the deadline:
  it jumps nothing when a compared or branched-on value could leave the
  signed 32-bit range inside it (its compares would then differ from
  the wrapped words'), and wraps every register it writes;
* a raise from instruction *k* leaves instructions ``0..k-1`` charged,
  ``regset.ip == addr_k + 1``, ``_current_instr_addr == addr_k`` and
  virtual time at the start of *k* (each instruction that can raise has
  its own handler, with its address and register state as literals).

A block ends after a branch (:data:`BRANCH_OPS`), after a boundary op
(:data:`BOUNDARY_OPS`: the network or the scheduler must look), at the
SRAM/DRAM fetch-cost boundary, after :data:`MAX_BLOCK_INSTRS`, or before
the first instruction the generator declines (an immediate destination,
``CALL`` through memory); a declined instruction runs through the
reference interpreter, one step.

The generator is :mod:`repro.core.codegen`, loaded on the first cache
miss.  Generated code is cached *above the node*: :data:`_CACHE` maps
what the text depends on — start address, the instructions' ``text``,
the cost constants, and the emitted mode (event bus attached or not) —
to the compiled function, so a 512-node machine running one program
generates each block once.  A block is a plain
function, not a closure: it takes the processor's memory, meter,
counters and watch table as one :func:`context` tuple built once per
node, so binding a block to a node allocates nothing.  The ``ip ->
block`` tables are shared too, one pair per program image
(:func:`tables_for`): nodes loaded from one program bind each block
once between them, and the tables go when the last of those processors
does.
"""

from __future__ import annotations

import linecache
import weakref
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from .errors import IllegalInstructionFault
from .isa import Instr
from .word import Word

if TYPE_CHECKING:  # pragma: no cover
    from .processor import Mdp

__all__ = ["bind_block", "block_text", "context", "tables_for", "BlockTables",
           "BOUNDARY_OPS", "BRANCH_OPS", "MAX_BLOCK_INSTRS", "BLOCK_CACHE_MAX",
           "CODEGEN_METRICS", "STATS"]

#: Ops that hand words to the network interface.
_SEND_OPS = frozenset({"SEND", "SENDE", "SEND2", "SEND2E"})

#: Ops after which a block must stop: they change queue or send-buffer
#: state that the surrounding machine observes between processor steps.
BOUNDARY_OPS = _SEND_OPS | {"SUSPEND", "HALT"}

#: Control transfers: each ends its basic block.
BRANCH_OPS = frozenset({"BR", "JMP", "BT", "BF", "CALL"})

#: Ops that call out of the processor core (network, thread-completion
#: observers, the fault policy): ``ip``, ``_current_instr_addr`` and the
#: counters are made exact before the call.
_CALLOUT_OPS = _SEND_OPS | {"SUSPEND", "XLATE"}

#: Longest run compiled into one function.
MAX_BLOCK_INSTRS = 64

#: Bound on the process-wide code cache (least recently used goes first).
BLOCK_CACHE_MAX = 1024

#: The ``machine.codegen.*`` metric names (docs/OBSERVABILITY.md §2).
CODEGEN_METRICS = ("blocks_generated", "blocks_bound", "fallback_instructions")

#: Process-wide code-generation activity, keyed by :data:`CODEGEN_METRICS`.
STATS: Dict[str, int] = dict.fromkeys(CODEGEN_METRICS, 0)

#: cache key -> compiled block, or None when the generator declines the
#: first instruction of the run.
_CACHE: "OrderedDict[tuple, Optional[Callable]]" = OrderedDict()
_MISSING = object()


class BlockTables(list):
    """``[bare, events]``: the ``ip -> block`` tables of one code image,
    one per emitted mode.  A list subclass only so that :data:`_IMAGES`
    can refer to it weakly."""

    __slots__ = ("__weakref__",)


#: image -> {layout: weak reference to its BlockTables}.  Processors hold
#: the tables; this only finds them, so they die with the last processor
#: and the entry with the image.
_IMAGES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def tables_for(image: object, proc: "Mdp") -> BlockTables:
    """The block tables ``proc`` binds into when its whole code is
    ``image`` (``Program.load`` passes the program): shared with every
    processor of the same memory layout and cost constants holding that
    image.  ``image=None`` gives tables of its own."""
    if image is None:
        return BlockTables(({}, {}))
    costs = proc.costs
    layout = (proc.memory.imem_words, costs.reg_op, costs.emem_fetch_per_word,
              costs.branch_taken_extra, costs.enter, costs.xlate_hit)
    by_layout = _IMAGES.setdefault(image, {})
    ref = by_layout.get(layout)
    tables = ref() if ref is not None else None
    if tables is None:
        tables = BlockTables(({}, {}))
        by_layout[layout] = weakref.ref(tables)
    return tables


#: What a processor lends its blocks, in :func:`context` order.  Blocks
#: are plain shared functions, not closures: a node's whole binding is
#: this one tuple, so a machine allocates nothing per node per block.
_CONTEXT = ("proc", "mem_read", "mem_write", "meter", "counters", "watch",
            "wake", "amt", "ident")


def context(proc: "Mdp") -> tuple:
    """``proc``'s side of every compiled block (see :data:`_CONTEXT`).

    Holds the processor's memory, counters and watch table by identity,
    so whatever replaces those must drop it (``Mdp.drop_compiled``).
    """
    memory = proc.memory
    return (proc, memory.read, memory.write, memory.meter,
            proc.counters.__dict__, proc._watch, proc._wake_watchers,
            proc.amt, Word.from_int(proc.node_id))


def bind_block(proc: "Mdp", start: int, events: bool) -> Optional[Callable]:
    """The shared block for the code ``proc`` holds at ``start`` (the
    caller installs it in ``proc``'s table, which :func:`tables_for` may
    share with other processors).

    Returns ``block(regset, vnow, end, send_before, ctx) -> (vnow, stop)``, or
    None when the generator declines the instruction at ``start`` (the
    caller steps it through the reference interpreter).
    """
    code_get = proc.code.get
    costs = proc.costs
    is_internal = proc.memory.is_internal
    internal = is_internal(start)
    run: List[Instr] = []
    addr = start
    # A block never crosses the SRAM/DRAM fetch-cost boundary.
    while len(run) < MAX_BLOCK_INSTRS and is_internal(addr) == internal:
        instr = code_get(addr)
        if instr is None:
            break
        run.append(instr)
        addr += 1
        if instr.op in BOUNDARY_OPS or instr.op in BRANCH_OPS:
            break
    if not run:
        raise IllegalInstructionFault(
            f"node {proc.node_id}: no instruction at {start}")
    base = costs.reg_op
    if not internal:
        base += costs.emem_fetch_per_word // 2
    key = (start, tuple([instr.text for instr in run]), base, costs.reg_op,
           costs.branch_taken_extra, costs.enter, costs.xlate_hit, events)
    block = _CACHE.get(key, _MISSING)
    if block is _MISSING:
        from .codegen import generate  # first miss: load the generator

        block = _CACHE[key] = generate(start, run, base, costs, events)
        if len(_CACHE) > BLOCK_CACHE_MAX:
            _, evicted = _CACHE.popitem(last=False)
            if evicted is not None:
                linecache.cache.pop(evicted.__code__.co_filename, None)
    else:
        _CACHE.move_to_end(key)
    if block is not None:
        STATS["blocks_bound"] += 1
    return block


def block_text(block: Callable) -> str:
    """The generated source of a compiled block ("" once evicted)."""
    return "".join(linecache.getlines(block.__code__.co_filename))
