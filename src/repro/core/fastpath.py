"""Basic-block compiler for the MDP's fast execution path.

The reference interpreter (:meth:`repro.core.processor.Mdp._execute_one`)
re-classifies every operand and walks the opcode if-chain on every
execution.  This module translates a *basic block* — the straight-line
run of instructions from a start address up to and including its first
branch or boundary op — into the source text of one Python function,
``compile()``\\ s it once, and lets ``Mdp.tick`` call blocks instead of
instructions.  Register names, immediates, segment offsets, cost
constants and the counter category are literals in that text; a branch
back to the block's own start is a ``continue`` inside the function.

What a generated function keeps (the contract is cycle- and fault-
exactness against the reference, enforced by
``tests/test_fastpath_equivalence.py`` and ``tests/core/test_blocks.py``):

* the reference's guard order per instruction (operand 1 read and
  presence guards, operand 2, then the numeric check; segment bounds
  before the memory call) and its fault messages and ``fault.address``;
* every memory access goes through ``NodeMemory.read``/``write``, a
  write to a watched address calls ``_wake_watchers`` with the
  instruction's start cycle and ends the block;
* ``if vnow >= end`` before *every* instruction, so an instruction
  starts iff it starts before the deadline, and ``vnow >= send_before``
  before the four SEND ops, whose order into the fabric the machine
  must control under a stop condition;
* a raise from instruction *k* leaves instructions ``0..k-1`` charged,
  ``regset.ip == addr_k + 1``, ``_current_instr_addr == addr_k`` and
  virtual time at the start of *k* (``Mdp._block_fault``).

A block ends after a branch (:data:`BRANCH_OPS`), after a boundary op
(:data:`BOUNDARY_OPS`: the network or the scheduler must look), at the
SRAM/DRAM fetch-cost boundary, after :data:`MAX_BLOCK_INSTRS`, or before
the first instruction the generator declines (an immediate destination,
``CALL`` through memory); a declined instruction runs through the
reference interpreter, one step.

Generated code is cached *above the node*: :data:`_CACHE` maps what the
text depends on — start address, the instructions' ``text``, the cost
constants, and the emitted mode (event bus attached or not) — to the
compiled function, so a 512-node machine running one program generates
each block once.  A block is a plain
function, not a closure: it takes the processor's memory, meter,
counters and watch table as one :func:`context` tuple built once per
node, so binding a block to a node allocates nothing.
"""

from __future__ import annotations

import linecache
import re
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from .errors import (
    CfutFault,
    FutUseFault,
    IllegalInstructionFault,
    SegmentationFault,
    SendFault,
    TypeFault,
    XlateMissFault,
)
from .isa import COMPARE_OPS, Imm, Instr, MemOff, Operand, Reg
from .tags import Tag
from .word import FALSE, TRUE, Word, _SMALL_INTS

if TYPE_CHECKING:  # pragma: no cover
    from .processor import Mdp

__all__ = ["bind_block", "block_text", "context", "BOUNDARY_OPS", "BRANCH_OPS",
           "MAX_BLOCK_INSTRS", "BLOCK_CACHE_MAX", "CODEGEN_METRICS", "STATS"]

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

_NUMERIC = (Tag.INT, Tag.BOOL, Tag.SYM, Tag.FLOAT)

#: ALU ops written as a Python operator; the rest call the reference's
#: own function (``alu_DIV`` etc.), so semantics have one source.
_INLINE_ALU = {
    "ADD": "+", "SUB": "-", "MUL": "*", "AND": "&", "OR": "|", "XOR": "^",
    "EQ": "==", "NE": "!=", "LT": "<", "LE": "<=", "GT": ">", "GE": ">=",
}

_FLUSH = ('counters["instructions"] += n; '
          'counters["compute_cycles"] += cc; n = cc = 0')

#: What a processor lends its blocks, in :func:`context` order.  Blocks
#: are plain shared functions, not closures: a node's whole binding is
#: this one tuple, so a machine allocates nothing per node per block.
_CONTEXT = ("proc", "mem_read", "mem_write", "meter", "counters", "watch",
            "wake", "amt", "ident")

_HEAD = """\
def block(regset, vnow, end, send_before, ctx):
{unpack}    regs = regset.regs
    n = cc = 0
    pc = {start}
    stop = False
    meter.cycles = 0  # discard any stale charge
    try:
        while True:
"""

_TAIL = f"""\
    except BaseException as exc:
        {_FLUSH}
        return proc._block_fault(exc, regset, pc, vnow)
    {_FLUSH}
    regset.ip = ip
    return vnow, stop
"""


def context(proc: "Mdp") -> tuple:
    """``proc``'s side of every compiled block (see :data:`_CONTEXT`).

    Holds the processor's memory, counters and watch table by identity,
    so whatever replaces those must drop it (``Mdp.drop_compiled``).
    """
    memory = proc.memory
    return (proc, memory.read, memory.write, memory.meter,
            proc.counters.__dict__, proc._watch, proc._wake_watchers,
            proc.amt, Word.from_int(proc.node_id))


# ------------------------------------------------- helpers generated code calls


def _use_fault(tag: Tag, address: Optional[int]):
    fault = (CfutFault("use of cfut slot") if tag is Tag.CFUT
             else FutUseFault("use of unresolved future"))
    fault.address = address
    return fault


def _cfut_read(address: Optional[int]) -> CfutFault:
    fault = CfutFault("read of cfut slot")
    fault.address = address
    return fault


def _seg_fault(index: int, base: int, length: int) -> SegmentationFault:
    return SegmentationFault(
        f"index {index} outside segment base={base} length={length}")


def _type_fault(op: str, tag1: Tag, tag2: Tag) -> TypeFault:
    return TypeFault(f"{op} on non-numeric tags {tag1.name},{tag2.name}")


_NAMESPACE: Dict[str, object] = {}


def _namespace() -> Dict[str, object]:
    """Globals shared by all generated code (built on first generation)."""
    if not _NAMESPACE:
        from .processor import _ALU_FUNCS

        _NAMESPACE.update({f"alu_{op}": fn for op, fn in _ALU_FUNCS.items()})
        _NAMESPACE.update(
            INT=Tag.INT, CFUT=Tag.CFUT, FUT=Tag.FUT, NUMERIC=_NUMERIC, Tag=Tag,
            Word=Word, TRUE=TRUE, FALSE=FALSE, SMALL=_SMALL_INTS,
            from_int=Word.from_int, ZERO=Word.from_int(0),
            SendFault=SendFault, XlateMissFault=XlateMissFault,
            use_fault=_use_fault, cfut_read=_cfut_read,
            seg_fault=_seg_fault, type_fault=_type_fault)
    return _NAMESPACE


# ------------------------------------------------------------------ generator


def _static_target(instr: Instr) -> Optional[int]:
    """A branch's target address when it is an immediate, else None."""
    operand = instr.operands[1 if instr.op in ("BT", "BF") else 0]
    return operand.word.value if isinstance(operand, Imm) else None


def _destination(instr: Instr) -> Optional[Operand]:
    roles = instr.spec.roles
    return instr.operands[roles.index("d")] if "d" in roles else None


def _declined(instr: Instr) -> bool:
    """Forms left to the reference interpreter (it raises on the first)."""
    dest = _destination(instr)
    return isinstance(dest, Imm) or (
        instr.op == "CALL" and not isinstance(dest, Reg))


class _Generator:
    """Builds the source text of one block, instruction by instruction."""

    def __init__(self, start: int, base: int, costs, events: bool) -> None:
        self.start = start
        self.base = base  # reg_op plus the external-fetch surcharge
        self.costs = costs
        self.events = events
        self.lines: List[str] = []
        self.consts: Dict[str, Word] = {}
        self.tail = ""

    def emit(self, line: str, depth: int = 0) -> None:
        self.lines.append(f"{'    ' * (3 + depth)}{line}{self.tail}\n")

    def const(self, word: Word) -> str:
        name = f"K{len(self.consts)}"
        self.consts[name] = word
        return name

    # -- operands ----------------------------------------------------------

    def resolve(self, operand: Operand, i: int, depth: int) -> str:
        """Emit a memory operand's bounds-checked address; return its name."""
        self.emit(f'b{i}, l{i} = regs["{operand.areg.name}"].as_segment()',
                  depth)
        if isinstance(operand, MemOff):
            index = str(operand.offset)
        else:
            index = f"i{i}"
            self.emit(f'x{i} = regs["{operand.idxreg.name}"]', depth)
            self.emit(f"if x{i}.tag is CFUT or x{i}.tag is FUT: "
                      f"raise use_fault(x{i}.tag, None)", depth)
            self.emit(f"{index} = x{i}.value", depth)
        self.emit(f"if not 0 <= {index} < l{i}: "
                  f"raise seg_fault({index}, b{i}, l{i})", depth)
        self.emit(f"a{i} = b{i} + {index}", depth)
        return f"a{i}"

    def read(self, operand: Operand, mode: str, i: int,
             depth: int = 0) -> Tuple[str, str, str, Optional[bool]]:
        """Emit one operand read; ``mode`` is "read", "use" or "raw".

        Mirrors ``Mdp._read_operand``: immediates are unguarded
        constants, register reads guard without an address, memory reads
        guard with the resolved address on the fault.  Returns the
        (word, value, tag) expressions and, for an immediate, whether
        its tag is numeric (None when only known at run time).
        """
        if isinstance(operand, Imm):
            word = operand.word
            name = self.const(word)
            return name, f"({word.value})", f"{name}.tag", word.tag in _NUMERIC
        if isinstance(operand, Reg):
            address = "None"
            self.emit(f's{i} = regs["{operand.name}"]', depth)
        else:
            address = self.resolve(operand, i, depth)
            self.emit(f"s{i} = mem_read({address})", depth)
        if mode == "use":
            self.emit(f"t{i} = s{i}.tag", depth)
            self.emit(f"if t{i} is not INT and (t{i} is CFUT or t{i} is FUT): "
                      f"raise use_fault(t{i}, {address})", depth)
        elif mode == "read":
            self.emit(f"if s{i}.tag is CFUT: raise cfut_read({address})", depth)
        return f"s{i}", f"s{i}.value", f"t{i}", None

    def write(self, operand: Operand, expr: str, i: int) -> None:
        """Emit an operand write, including watched-address wakeups."""
        if isinstance(operand, Reg):
            self.emit(f'regs["{operand.name}"] = {expr}')
            return
        if expr != "w":  # the value exists before the destination resolves
            self.emit(f"w = {expr}")
        address = self.resolve(operand, i, 0)
        self.emit(f"mem_write({address}, w)")
        self.emit(f"if watch and {address} in watch: wake({address}, vnow)")

    # -- accounting and exits ----------------------------------------------

    def charge(self, category: str, extra, metered: bool,
               depth: int = 0) -> None:
        """Retire the instruction: count it, charge its category, advance
        virtual time.  ``extra`` is an int or the name of a local."""
        cost = str(self.base + extra) if isinstance(extra, int) else (
            f"{self.base} + {extra}")
        if metered:
            self.emit(f"cost = {cost} + meter.cycles; meter.cycles = 0", depth)
            cost = "cost"
        charged = (f"cc += {cost}" if category == "compute"
                   else f'counters["{category}_cycles"] += {cost}')
        self.emit(f"n += 1; {charged}; vnow += {cost}", depth)

    def leave(self, ip, stop: bool = False, depth: int = 0) -> None:
        self.emit(f"ip = {ip}; {'stop = True; ' if stop else ''}break", depth)

    def goto(self, target: Optional[int], depth: int = 0) -> None:
        """Leave through a taken branch; a back-edge stays in the block."""
        if target == self.start:
            self.emit("continue", depth)
        else:
            self.leave("regset.ip" if target is None else target, False, depth)

    # -- instructions --------------------------------------------------------

    def instruction(self, addr: int, instr: Instr) -> None:
        from .processor import _ALU_FUNCS, _KIND_CATEGORY, _MULTICYCLE_ALU

        op, ops, costs = instr.op, instr.operands, self.costs
        nxt = addr + 1
        self.tail = ""
        self.emit(f"# @{addr} {instr.text}")
        self.tail = f"  # @{addr} {instr.text}"
        self.emit(f"if vnow >= end: ip = {addr}; break")
        if op in _SEND_OPS:
            self.emit(f"if vnow >= send_before: ip = {addr}; stop = True; "
                      "break")
        self.emit(f"pc = {addr}")
        if self.events:
            self.emit("proc._event_time = vnow")

        category = _KIND_CATEGORY[instr.spec.kind]
        dest = _destination(instr)
        mem_dest = dest is not None and not isinstance(dest, Reg)
        metered = bool(instr.memory_operands()) or op in _CALLOUT_OPS
        if op in _CALLOUT_OPS:
            self.emit(f"regset.ip = {nxt}; proc._current_instr_addr = {addr}")
            self.emit(_FLUSH)

        if op in BRANCH_OPS:
            self.branch(addr, instr, category, metered)
            return
        extra = 0
        if op in _ALU_FUNCS:
            _, v1, t1, numeric1 = self.read(ops[0], "use", 1)
            _, v2, t2, numeric2 = self.read(ops[1], "use", 2)
            bad = ["True" if numeric is False
                   else f"({tag} is not INT and {tag} not in NUMERIC)"
                   for tag, numeric in ((t1, numeric1), (t2, numeric2))
                   if numeric is not True]
            if bad:
                self.emit(f'if {" or ".join(bad)}: '
                          f'raise type_fault("{op}", {t1}, {t2})')
            symbol = _INLINE_ALU.get(op)
            value = (f"{v1} {symbol} {v2}" if symbol
                     else f"alu_{op}({v1}, {v2})")
            if op in COMPARE_OPS:
                self.write(ops[2], f"TRUE if {value} else FALSE", 3)
            else:
                self.emit(f"v = {value}")
                self.write(ops[2], "SMALL.get(v) or Word(INT, v)", 3)
            extra = _MULTICYCLE_ALU.get(op, 0)
        elif op in ("MOVE", "MOVER"):
            word, *_ = self.read(ops[0], "raw" if op == "MOVER" else "read", 1)
            self.write(ops[1], word, 2)
        elif op in ("WTAG", "CHECK"):
            word, value, *_ = self.read(ops[0], "raw", 1)
            _, tag, *_ = self.read(ops[1], "raw", 2)
            self.write(ops[2], f"Word(Tag({tag}), {value})" if op == "WTAG"
                       else f"TRUE if {word}.tag is Tag({tag}) else FALSE", 3)
        elif op == "RTAG":
            word, *_ = self.read(ops[0], "raw", 1)
            self.write(ops[1], f"from_int(int({word}.tag))", 2)
        elif op == "MOVEID":
            self.write(ops[0], "ident", 1)
        elif op == "CYCLE":
            self.write(ops[0], "from_int(vnow)", 1)
        elif op in ("NOT", "NEG"):
            _, value, *_ = self.read(ops[0], "use", 1)
            self.write(ops[1],
                       f"from_int({'-' if op == 'NEG' else '~'}{value})", 2)
        elif op == "SUSPEND":
            self.emit("proc._finish_thread(proc._active_priority)")
        elif op == "HALT":
            self.emit("proc.halted = True")
        elif op in ("SEND", "SENDE"):
            # The word enters the interface when the instruction retires,
            # so a slow (external-memory) operand delays the launch.
            word, *_ = self.read(ops[0], "read", 1)
            self.emit(f"proc.network.send_word(proc._active_priority, {word}, "
                      f"end={op == 'SENDE'}, "
                      f"now=vnow + meter.cycles + {costs.reg_op})")
            self.sent(1, op == "SENDE")
        elif op in ("SEND2", "SEND2E"):
            word1, *_ = self.read(ops[0], "read", 1)
            word2, *_ = self.read(ops[1], "read", 2)
            self.emit("network = proc.network; priority = proc._active_priority")
            self.emit("if not network.can_accept(priority, 2): "
                      'raise SendFault("send buffer full")')
            self.emit(f"retire = vnow + meter.cycles + {costs.reg_op}")
            self.emit(f"network.send_word(priority, {word1}, end=False, "
                      "now=retire)")
            self.emit(f"network.send_word(priority, {word2}, "
                      f"end={op == 'SEND2E'}, now=retire)")
            self.sent(2, op == "SEND2E")
        elif op == "ENTER":
            key, *_ = self.read(ops[0], "read", 1)
            value, *_ = self.read(ops[1], "read", 2)
            self.emit(f"amt.enter({key}, {value})")
            extra = costs.enter - costs.reg_op
        elif op == "XLATE":
            key, *_ = self.read(ops[0], "read", 1)
            self.emit("try:")
            self.emit(f"w = amt.xlate({key}); "
                      f"x = {costs.xlate_hit - costs.reg_op}", 1)
            self.emit("except XlateMissFault as miss:")
            self.emit(f"x = proc.fault_policy.on_xlate_miss(proc, {key}, miss)",
                      1)
            self.emit(f"w = amt.probe({key})", 1)
            self.emit("if w is None: raise", 1)
            self.write(ops[1], "w", 2)
            extra = "x"
        elif op == "PROBE":
            key, *_ = self.read(ops[0], "read", 1)
            self.emit(f"w = amt.probe({key})")
            self.emit("if w is None: w = ZERO")
            self.write(ops[1], "w", 2)
            extra = costs.xlate_hit - costs.reg_op
        elif op != "NOP":  # pragma: no cover - every opcode has a template
            raise AssertionError(f"no block template for {op}")
        self.charge(category, extra, metered)

        if op in BOUNDARY_OPS:
            self.leave(nxt, True)
        elif op == "XLATE":  # a fault policy may wake or retire threads
            self.emit("if proc._woke or "
                      "proc._current[proc._active_priority] is None:")
            self.emit("proc._woke = False", 1)
            self.leave(nxt, True, 1)
        elif mem_dest:
            self.emit("if proc._woke:")
            self.emit("proc._woke = False", 1)
            self.leave(nxt, True, 1)

    def sent(self, words: int, end: bool) -> None:
        self.emit(f'counters["words_sent"] += {words}' + (
            '; counters["messages_sent"] += 1' if end else ""))

    def branch(self, addr: int, instr: Instr, category: str,
               metered: bool) -> None:
        op, ops = instr.op, instr.operands
        target = _static_target(instr)
        taken = self.costs.branch_taken_extra
        depth = 0
        if op in ("BT", "BF"):
            _, cond, *_ = self.read(ops[0], "use", 1)
            self.emit(f"if {cond} {'!=' if op == 'BT' else '=='} 0:")
            depth = 1
        if target is None:  # BT/BF name the target second, the rest first
            _, value, *_ = self.read(ops[depth], "use", 2, depth)
            self.emit(f"regset.ip = {value}", depth)
        if op == "CALL":
            self.emit(f'regs["{ops[1].name}"] = '
                      f"{self.const(Word.from_int(addr + 1))}")
        self.charge(category, taken, metered, depth)
        self.goto(target, depth)
        if depth:
            self.charge(category, 0, metered)
            self.leave(addr + 1)


def _generate(start: int, run: List[Instr], base: int, costs,
              events: bool) -> Optional[Callable]:
    """Generate and compile the block for ``run``; None when the
    generator declines its first instruction."""
    gen = _Generator(start, base, costs, events)
    addr = start
    for instr in run:
        if _declined(instr):
            break
        gen.instruction(addr, instr)
        addr += 1
    if addr == start:
        return None
    if run[addr - start - 1].op not in BOUNDARY_OPS | BRANCH_OPS:
        gen.tail = ""
        gen.leave(addr)
    STATS["blocks_generated"] += 1
    # The synthetic filename sits *under* this module's path so that
    # profilers folding by source path attribute generated code to it.
    filename = (f"{__file__}/<block {STATS['blocks_generated']} @{start}"
                f"{' events' * events}>")
    body = "".join(gen.lines) + _TAIL
    unpack = "".join(f"    {name} = ctx[{i}]\n"
                     for i, name in enumerate(_CONTEXT)
                     if re.search(rf"\b{name}\b", _HEAD + body))
    text = _HEAD.format(start=start, unpack=unpack) + body
    linecache.cache[filename] = (len(text), None, text.splitlines(True),
                                 filename)
    namespace = dict(_namespace(), **gen.consts)
    exec(compile(text, filename, "exec"), namespace)
    return namespace["block"]


def bind_block(proc: "Mdp", start: int, events: bool) -> Optional[Callable]:
    """The shared block for the code ``proc`` holds at ``start``.

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
        block = _CACHE[key] = _generate(start, run, base, costs, events)
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
