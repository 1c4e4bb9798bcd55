"""The block generator behind :mod:`repro.core.fastpath`.

Turns one basic block into the source text of one Python function and
compiles it; :func:`repro.core.fastpath.bind_block` imports this module
on its first cache miss, so a process that never compiles a block (the
reference interpreter, the macro level, the bare fabric) never compiles
the generator either.  What the text must keep — the exactness contract
against the interpreter, registers in locals, the peeled and steady
copies of a loop — is set out in :mod:`repro.core.fastpath`.
"""

from __future__ import annotations

import linecache
import re
from contextlib import contextmanager
from itertools import takewhile
from typing import Callable, Dict, List, Optional, Tuple

from . import fastpath
from .errors import (
    CfutFault,
    FutUseFault,
    SegmentationFault,
    TypeFault,
    XlateMissFault,
)
from .fastpath import (_CALLOUT_OPS, _CONTEXT, _SEND_OPS, BOUNDARY_OPS,
                       BRANCH_OPS, STATS)
from .isa import COMPARE_OPS, Imm, Instr, MemOff, Operand, Reg
from .tags import Tag
from .word import FALSE, TRUE, Word, _SMALL_INTS

__all__ = ["generate"]

_NUMERIC = (Tag.INT, Tag.BOOL, Tag.SYM, Tag.FLOAT)

#: ALU ops written as a Python operator; the rest call the reference's
#: own function (``alu_DIV`` etc.), so semantics have one source.
_INLINE_ALU = {
    "ADD": "+", "SUB": "-", "MUL": "*", "AND": "&", "OR": "|", "XOR": "^",
    "EQ": "==", "NE": "!=", "LT": "<", "LE": "<=", "GT": ">", "GE": ">=",
}

#: ALU ops whose result cannot leave the signed 32-bit range when their
#: operands are in it (every word's value is): no wrap after them.
_IN_RANGE = frozenset(("AND", "OR", "XOR") + COMPARE_OPS)

#: ``Word``'s wrap into the signed 32-bit range, for a raw register.
_WRAP = ("if not -2147483648 <= {v} <= 2147483647: "
         "{v} = (({v} + 2147483648) & 4294967295) - 2147483648")

#: The back-edge test of ``BF`` after a compare: the compare negated.
_NEGATED = {"LT": "GE", "GE": "LT", "LE": "GT", "GT": "LE", "EQ": "NE",
            "NE": "EQ"}

#: The guards a read mode applies (``Mdp._read_operand``), as the level a
#: register's word must have passed: "raw" none, "read" not CFUT, "use"
#: neither presence tag.  Level 3 is an ALU's numeric check.
_LEVEL = {"raw": 0, "read": 1, "use": 2}

_COUNTERS = 'counters["instructions"] += n; counters["compute_cycles"] += cc'
_FLUSH = f"{_COUNTERS}; n = cc = 0"

_HEAD = """\
def block(regset, vnow, end, send_before, ctx):
{unpack}    regs = regset.regs
    n = cc = 0
    stop = False
    meter.cycles = 0  # discard any stale charge
    while True:
"""

_TAIL = f"""\
    {_COUNTERS}
    regset.ip = ip
    return vnow, stop
"""


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


def trip_count(first: int, step: int, op: str, limit: int) -> int:
    """The trip-count solver: how many iterations j = 0, 1, ... in a row,
    at most ``limit``, pass ``first + j * step <op> 0`` in unbounded
    integers (``op`` a compare's name)."""
    if op in ("LT", "LE"):  # x < 0 is -x > 0
        first, step, op = -first, -step, "G" + op[1]
    if op == "GE":  # on integers x >= 0 is x + 1 > 0
        first, op = first + 1, "GT"
    if op == "GT":
        trips = (0 if first <= 0 else limit if step >= 0
                 else (first - 1) // -step + 1)
    elif op == "NE":  # the first j with first + j * step == 0, if any
        trips = (-first // step if first and step and not first % step
                 and (first > 0) != (step > 0) else limit if first else 0)
    else:  # EQ
        trips = 0 if first else 1 if step else limit
    return min(trips, limit)


def _plus(a: dict, b: dict, times: int = 1) -> dict:
    """``a + times * b`` on linear forms (atom -> coefficient)."""
    total = dict(a)
    for atom, coef in b.items():
        total[atom] = total.get(atom, 0) + times * coef
    return {atom: coef for atom, coef in total.items() if coef}


_NAMESPACE: Dict[str, object] = {}


def _namespace() -> Dict[str, object]:
    """Globals shared by all generated code (built on first generation)."""
    if not _NAMESPACE:
        from .processor import _ALU_FUNCS

        _NAMESPACE.update({f"alu_{op}": fn for op, fn in _ALU_FUNCS.items()})
        _NAMESPACE.update(
            INT=Tag.INT, BOOL=Tag.BOOL, CFUT=Tag.CFUT, FUT=Tag.FUT,
            NUMERIC=_NUMERIC, Tag=Tag, Word=Word, TRUE=TRUE, FALSE=FALSE,
            SMALL=_SMALL_INTS, ZERO=Word.from_int(0),
            XlateMissFault=XlateMissFault,
            use_fault=_use_fault, cfut_read=_cfut_read,
            seg_fault=_seg_fault, type_fault=_type_fault, trips=trip_count)
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


def _metered(instr: Instr) -> bool:
    """Whether the instruction's cost is only known at run time."""
    return bool(instr.memory_operands()) or instr.op in _CALLOUT_OPS


def _level(tag: Tag) -> int:
    """The guard level a word of ``tag`` passes (see :data:`_LEVEL`)."""
    if tag in _NUMERIC:
        return 3
    return {Tag.CFUT: 0, Tag.FUT: 1}.get(tag, 2)


def _sum(terms: list) -> str:
    """``terms`` (ints and names of run-time costs) as one expression."""
    names = [term for term in terms if not isinstance(term, int)]
    total = sum(term for term in terms if isinstance(term, int))
    return " + ".join(([str(total)] if total or not names else []) + names)


#: What the generator knows about a register held in a local: its kind
#: ("w": the local ``w<R>`` holds the Word; "i"/"b": ``v<R>`` holds the
#: raw value of an INT/BOOL word), the guard level its word has passed,
#: and whether ``regs`` is behind the local.
RegState = Tuple[str, int, bool]


def _join(a: Dict[str, RegState], b: Dict[str, RegState]
          ) -> Dict[str, RegState]:
    """The most specific register state both ``a`` and ``b`` convert to
    without reading ``regs``: unloaded on either side is unloaded, raw
    values of different kinds are boxed, levels meet, dirt accumulates."""
    joined = {}
    for name in a.keys() & b.keys():
        (kind_a, level_a, dirty_a) = a[name]
        (kind_b, level_b, dirty_b) = b[name]
        joined[name] = (kind_a if kind_a == kind_b else "w",
                        min(level_a, level_b), dirty_a or dirty_b)
    return joined


class _Val:
    """One operand as read: its value and tag expressions, whether it is
    statically numeric (None: known only at run time), the guard level
    its word has passed, its raw kind when the value is an unboxed
    INT/BOOL ("i"/"b", else None), the register it came from, and its
    Word expression (None for a register held raw)."""

    __slots__ = ("value", "tag", "numeric", "level", "kind", "reg", "word")

    def __init__(self, value: str, tag: str, numeric: Optional[bool],
                 level: int, kind: Optional[str] = None,
                 reg: Optional[str] = None, word: Optional[str] = None):
        self.value, self.tag, self.numeric = value, tag, numeric
        self.level, self.kind, self.reg, self.word = level, kind, reg, word


class _Generator:
    """Builds the source text of one block, instruction by instruction.

    :attr:`regs` is what is known, at the point being emitted, about each
    register the block has touched (:data:`RegState`); a register absent
    from it is read from ``regs`` on its next use.  Instruction and cycle
    charges not yet added to ``n``/``cc``/``vnow`` are pending in
    :attr:`n`, :attr:`cats` and :attr:`time`: settled after every
    instruction, or — in a folded steady-state body — at its exits.
    """

    def __init__(self, start: int, run: List[Instr], base: int, costs,
                 events: bool) -> None:
        self.start = start
        self.run = run
        self.base = base  # reg_op plus the external-fetch surcharge
        self.costs = costs
        self.events = events
        self.consts: Dict[str, Word] = {}
        self.const_names: Dict[int, str] = {}
        self.lines: List[str] = []
        self.tail = ""
        self.indent = 2
        self.regs: Dict[str, RegState] = {}
        # Whether every cost before the last instruction is known here:
        # only then does a loop get a steady-state body.
        self.static = not any(_metered(instr) for instr in run[:-1])
        self.fold = False
        self.n, self.cats, self.time = 0, {}, []
        self.offset = 0        # folded: the last instruction's start
        self.risky = False     # the guarded code being emitted can raise
        self.back: Optional[Dict[str, RegState]] = None  # at the back edge
        self.lap: tuple = ()   # a steady iteration's charges (pending())
        self.loop_state: Optional[Dict[str, RegState]] = None  # steady entry

    def line(self, text: str) -> str:
        return f"{'    ' * self.indent}{text}{self.tail}\n"

    def emit(self, text: str) -> None:
        self.lines.append(self.line(text))

    @contextmanager
    def nested(self, header: str):
        self.emit(header)
        self.indent += 1
        yield
        self.indent -= 1

    def const(self, word: Word) -> str:
        name = self.const_names.get(id(word))
        if name is None:
            name = self.const_names[id(word)] = f"K{len(self.consts)}"
            self.consts[name] = word
        return name

    # -- registers in locals -----------------------------------------------

    def load(self, name: str) -> RegState:
        state = self.regs.get(name)
        if state is None:
            self.emit(f'w{name} = regs["{name}"]')
            state = self.regs[name] = ("w", 0, False)
        return state

    @staticmethod
    def box(name: str, kind: str) -> str:
        if kind == "i":
            return f"(SMALL.get(v{name}) or Word(INT, v{name}))"
        return f"(TRUE if v{name} else FALSE)"

    def stores(self, regs: Optional[Dict[str, RegState]] = None) -> List[str]:
        """Statements putting every dirty register of ``regs`` back."""
        regs = self.regs if regs is None else regs
        return [f'regs["{name}"] = ' + (f"w{name}" if kind == "w"
                                       else self.box(name, kind))
                for name, (kind, _, dirty) in sorted(regs.items()) if dirty]

    def flush_registers(self) -> None:
        """Store every dirty register before a call-out; all are clean
        after it."""
        stores = self.stores()
        if stores:
            self.emit("; ".join(stores))
        self.regs = {name: (kind, level, False)
                     for name, (kind, level, _) in self.regs.items()}

    def convert(self, to: Dict[str, RegState]) -> None:
        """Bring the registers into the steady body's entry state ``to``
        (a :func:`_join` of this state, so only boxing and stores)."""
        stores = []
        for name, (kind, level, dirty) in sorted(self.regs.items()):
            want = to.get(name)
            if want is None:
                if dirty:
                    stores.append(self.stores({name: (kind, level, dirty)})[0])
            elif want[0] != kind:
                self.emit(f"w{name} = {self.box(name, kind)}")
        if stores:
            self.emit("; ".join(stores))
        self.regs = dict(to)

    # -- operands ----------------------------------------------------------

    def read_reg(self, name: str, mode: str, tag_local: str) -> _Val:
        kind, level, dirty = self.load(name)
        if kind != "w":
            return _Val(f"v{name}", "INT" if kind == "i" else "BOOL", True, 3,
                        kind, name)
        tag = f"w{name}.tag"
        if level < _LEVEL[mode]:
            self.risky = True
            if mode == "use":
                self.emit(f"{tag_local} = {tag}")
                tag = tag_local
                self.emit(f"if {tag} is not INT and ({tag} is CFUT or "
                          f"{tag} is FUT): raise use_fault({tag}, None)")
            else:
                self.emit(f"if {tag} is CFUT: raise cfut_read(None)")
            level = _LEVEL[mode]
            self.regs[name] = (kind, level, dirty)
        return _Val(f"w{name}.value", tag, True if level == 3 else None, level,
                    None, name, f"w{name}")

    def resolve(self, operand: Operand, i: int) -> str:
        """Emit a memory operand's bounds-checked address; return its name."""
        self.risky = True
        areg = operand.areg.name
        kind = self.load(areg)[0]
        segment = f"w{areg}" if kind == "w" else self.box(areg, kind)
        self.emit(f"b{i}, l{i} = {segment}.as_segment()")
        if isinstance(operand, MemOff):
            index = str(operand.offset)
        else:
            index = f"i{i}"
            value = self.read_reg(operand.idxreg.name, "use", f"x{i}").value
            self.emit(f"{index} = {value}")
        self.emit(f"if not 0 <= {index} < l{i}: "
                  f"raise seg_fault({index}, b{i}, l{i})")
        self.emit(f"a{i} = b{i} + {index}")
        return f"a{i}"

    def read(self, operand: Operand, mode: str, i: int) -> _Val:
        """Emit one operand read; ``mode`` is "read", "use" or "raw".

        Mirrors ``Mdp._read_operand``: immediates are unguarded
        constants, register reads guard without an address (and only
        what the register's word has not passed yet), memory reads guard
        with the resolved address on the fault.
        """
        if isinstance(operand, Imm):
            word = operand.word
            name = self.const(word)
            return _Val(f"({word.value})", f"{name}.tag",
                        word.tag in _NUMERIC, _level(word.tag),
                        {Tag.INT: "i", Tag.BOOL: "b"}.get(word.tag), None, name)
        if isinstance(operand, Reg):
            return self.read_reg(operand.name, mode, f"t{i}")
        address = self.resolve(operand, i)
        self.emit(f"s{i} = mem_read({address})")
        tag = f"s{i}.tag"
        if mode == "use":
            self.emit(f"t{i} = {tag}")
            tag = f"t{i}"
            self.emit(f"if {tag} is not INT and ({tag} is CFUT or {tag} is FUT)"
                      f": raise use_fault({tag}, {address})")
        elif mode == "read":
            self.emit(f"if {tag} is CFUT: raise cfut_read({address})")
        return _Val(f"s{i}.value", tag, None, _LEVEL[mode], word=f"s{i}")

    def word(self, val: _Val) -> str:
        """``val`` as a Word; a register held raw is boxed once, in place."""
        if val.word is not None:
            return val.word
        kind, _, dirty = self.regs[val.reg]
        if kind != "w":
            self.emit(f"w{val.reg} = {self.box(val.reg, kind)}")
            self.regs[val.reg] = ("w", 3, dirty)
        return f"w{val.reg}"

    def set_raw(self, name: str, kind: str, expr: str, wrap: bool) -> None:
        self.emit(f"v{name} = {expr}")
        if wrap:
            self.emit(_WRAP.format(v=f"v{name}"))
        self.regs[name] = (kind, 3, True)

    def write_int(self, operand: Operand, expr: str, i: int,
                  wrap: bool = True) -> None:
        if isinstance(operand, Reg):
            self.set_raw(operand.name, "i", expr, wrap)
        else:  # the value exists before the destination resolves
            self.emit(f"v = {expr}")
            self.store(operand, "SMALL.get(v) or Word(INT, v)", i)

    def write_bool(self, operand: Operand, cond: str, i: int) -> None:
        if isinstance(operand, Reg):
            self.set_raw(operand.name, "b", f"1 if {cond} else 0", False)
        else:
            self.store(operand, f"TRUE if {cond} else FALSE", i)

    def write_word(self, operand: Operand, expr: str, i: int,
                   level: int) -> None:
        if isinstance(operand, Reg):
            self.emit(f"w{operand.name} = {expr}")
            self.regs[operand.name] = ("w", level, True)
        else:
            self.store(operand, expr, i)

    def copy(self, operand: Operand, val: _Val, i: int) -> None:
        """A move: the destination knows what the source was known as."""
        if isinstance(operand, Reg) and val.kind is not None:
            self.set_raw(operand.name, val.kind, val.value, False)
        else:
            self.write_word(operand, self.word(val), i, val.level)

    def store(self, operand: Operand, expr: str, i: int) -> None:
        """Emit a memory write, including watched-address wakeups."""
        if expr != "w":
            self.emit(f"w = {expr}")
        address = self.resolve(operand, i)
        self.emit(f"mem_write({address}, w)")
        self.emit(f"if watch and {address} in watch: " + "; ".join(
            self.stores() + [f"wake({address}, {self.now()})"]))

    # -- accounting and exits ----------------------------------------------

    def now(self) -> str:
        """The current instruction's start cycle."""
        offset = sum(self.time)  # only static costs are ever pending here
        return f"(vnow + {offset})" if offset else "vnow"

    def pending(self) -> tuple:
        cats = {category: list(terms) for category, terms in self.cats.items()}
        return self.n, cats, list(self.time)

    def charge(self, category: str, extra, metered: bool) -> None:
        """Retire the instruction: count it, charge its category, advance
        virtual time.  ``extra`` is an int or the name of a local."""
        cost = self.base + extra if isinstance(extra, int) else (
            f"{self.base} + {extra}")
        if metered:
            self.emit(f"cost = {cost} + meter.cycles; meter.cycles = 0")
            cost = "cost"
        self.n += 1
        self.cats.setdefault(category, []).append(cost)
        self.time.append(cost)
        if not self.fold:
            self.settle()

    def settled(self, pending: Optional[tuple] = None) -> List[str]:
        """The statements adding the ``pending`` charges (default: all)."""
        n, cats, time = pending if pending is not None else self.pending()
        if not n:
            return []
        return [f"n += {n}"] + [
            ("cc" if category == "compute" else f'counters["{category}_cycles"]')
            + f" += {_sum(terms)}" for category, terms in cats.items()
        ] + [f"vnow += {_sum(time)}"]

    def settle(self) -> None:
        statements = self.settled()
        if statements:
            self.emit("; ".join(statements))
        self.n, self.cats, self.time = 0, {}, []

    def exit(self, ip, stop: bool = False) -> str:
        return "; ".join(self.stores() + [f"ip = {ip}"]
                         + ["stop = True"] * stop + ["break"])

    def leave(self, ip, stop: bool = False) -> None:
        self.settle()
        self.emit(self.exit(ip, stop))

    def guarded(self, addr: int, body: Callable[[], object]):
        """Emit ``body()`` under its own handler if the code it emits can
        raise: the handler leaves what the per-instruction loop leaves
        (registers stored as at the instruction's start, charges up to
        it) and hands over to ``Mdp._block_fault``."""
        regs, pending = dict(self.regs), self.pending()
        mark = len(self.lines)
        self.risky = False
        self.indent += 1
        result = body()
        self.indent -= 1
        if self.risky:
            self.lines.insert(mark, self.line("try:"))
            with self.nested("except BaseException as exc:"):
                self.emit("; ".join(
                    self.stores(regs) + self.settled(pending) + [
                        f"return proc._block_fault(exc, regset, {addr}, vnow, "
                        "n, cc)"]))
        else:
            self.lines[mark:] = [line[4:] for line in self.lines[mark:]]
        return result

    # -- instructions --------------------------------------------------------

    def body(self, regs: Dict[str, RegState], fold: bool) -> List[str]:
        """The run's lines from register state ``regs``: the first
        iteration, or with ``fold`` the steady-state body.  The state at a
        static loop's back edge is left in :attr:`back`."""
        self.lines, self.regs = [], dict(regs)
        self.fold, self.indent = fold, 3 if fold else 2
        self.n, self.cats, self.time, self.back = 0, {}, [], None
        addr = self.start
        for instr in self.run:
            self.instruction(addr, instr)
            addr += 1
        if self.run[-1].op not in BOUNDARY_OPS | BRANCH_OPS:
            self.tail = ""
            self.leave(addr)
        return self.lines

    def steady(self) -> List[str]:
        """The loop around the steady-state body, entered from the first
        iteration's back edge in :attr:`loop_state`: one deadline test
        per iteration stands for the per-instruction tests; when it fails
        the registers go back and the first-iteration code (which tests
        per instruction) runs again.  An affine body is preceded by
        its closed-form :meth:`jump`."""
        entry = self.loop_state
        body = self.body(entry, True)
        pad = "    " * 2
        test = f"vnow + {self.offset} < end" if self.offset else "vnow < end"
        return (self.jump() + [f"{pad}while {test}:\n"] + body
                + [f"{pad}else:\n",
                   f"{pad}    " + "; ".join(self.stores(entry) + ["continue"])
                   + "\n", f"{pad}break\n"])

    def jump(self) -> List[str]:
        """Before an affine steady body, all but the last of the ``k``
        iterations that branch back and start before ``end``, applied in
        O(1); else nothing.  Affine: it ends in ``BT``/``BF`` and writes
        only induction variables (``x ± c``, ``c`` an immediate or a
        register it does not write), accumulators of them (``x ± y``) and
        the compare the branch alone reads, as linear forms of the
        registers at the iteration's start ("" the constant term)."""
        state, branch, (lap_n, cats, time) = (self.loop_state, self.run[-1],
                                              self.lap)
        forms: Dict[str, object] = {}  # a compare's result: (op, a, b)

        def read(operand) -> dict:
            if isinstance(operand, Imm) and operand.word.tag in _NUMERIC:
                return {"": operand.word.value}
            form = (isinstance(operand, Reg) and state[operand.name][1] == 3
                    and forms.get(operand.name, {operand.name: 1}))
            if not isinstance(form, dict):
                raise KeyError(operand)  # not affine
            return form

        def rise(form: dict) -> dict:  # its change per iteration
            total: dict = {}
            for atom, coef in form.items():
                if atom in forms:  # KeyError unless an induction variable
                    total = _plus(total, steps[atom], coef)
            return total

        values = {name: f"w{name}.value" if kind == "w" else f"v{name}"
                  for name, (kind, _, _) in state.items()}

        def expr(form: dict) -> str:
            terms = [("" if coef == 1 else f"{coef} * ") + values[atom] if atom
                     else str(coef) for atom, coef in form.items()]
            return f"({' + '.join(terms)})" if terms else "0"

        if branch.op not in ("BT", "BF") or sum(time) <= 0:
            return []
        try:
            for instr in self.run[:-1]:
                op, ops = instr.op, instr.operands
                if op in ("ADD", "SUB"):
                    forms[ops[2].name] = _plus(read(ops[0]), read(ops[1]),
                                               1 if op == "ADD" else -1)
                elif op in COMPARE_OPS:
                    forms[ops[2].name] = (op, read(ops[0]), read(ops[1]))
                elif op != "NOP":
                    return []
            test = forms.get(getattr(branch.operands[0], "name", None))
            compare = test if isinstance(test, tuple) else None
            op, a, b = compare or ("NE", read(branch.operands[0]), {})
            op = _NEGATED[op] if branch.op == "BF" else op
            written = [name for name in forms if forms[name] is not compare]
            if not written or any(not isinstance(forms[name], dict)
                                  or forms[name].get(name) != 1
                                  for name in written):
                return []
            firsts = {name: _plus(forms[name], {name: 1}, -1)
                      for name in written}
            steps = {name: first for name, first in firsts.items()
                     if not forms.keys() & first.keys()}
            # k times the first iteration's rise, plus an accumulator's ramp
            new = [f"v{name} + k * {expr(first)}" + (
                f" + k * (k - 1) // 2 * {expr(rise(first))}"
                if rise(first) else "") for name, first in firsts.items()]
            diff = _plus(a, b, -1)
            solve = (f"k = trips({expr(diff)}, {expr(rise(diff))}, "
                     f'"{op}", (end - vnow - {self.offset + 1}) '
                     f"// {sum(time)})")
            bounds = [f"-2147483648 <= {expr(form)}{term} <= 2147483647"
                      for form in (a, b) if forms.keys() & form.keys()
                      for term in ("", f" + (k - 1) * {expr(rise(form))}")]
        except KeyError:
            return []
        self.lines, self.indent, self.tail = [], 2, ""
        self.emit(solve)
        with self.nested(" and ".join(["if k > 0"] + bounds) + ":"):
            self.emit(", ".join(f"v{name}" for name in written) + " = "
                      + ", ".join(new))
            for name in written:
                self.emit(_WRAP.format(v=f"v{name}"))
            if compare:  # the compare the branch took
                self.emit(f"v{branch.operands[0].name} = "
                          f"{int(branch.op == 'BT')}")
            self.emit("; ".join(self.settled((
                f"k * {lap_n}", {category: [f"k * {sum(terms)}"]
                                 for category, terms in cats.items()},
                [f"k * {sum(time)}"]))))
        return self.lines

    def instruction(self, addr: int, instr: Instr) -> None:
        from .processor import _KIND_CATEGORY

        op = instr.op
        nxt = addr + 1
        self.tail = ""
        self.emit(f"# @{addr} {instr.text}")
        self.tail = f"  # @{addr} {instr.text}"
        if self.fold:
            self.offset = sum(self.time)
        else:
            self.emit(f"if vnow >= end: {self.exit(addr)}")
        if op in _SEND_OPS:
            self.emit(f"if vnow >= send_before: {self.exit(addr, True)}")
        if self.events:
            self.emit(f"proc._event_time = {self.now()}")

        category = _KIND_CATEGORY[instr.spec.kind]
        dest = _destination(instr)
        mem_dest = dest is not None and not isinstance(dest, Reg)
        metered = _metered(instr)
        if op in _CALLOUT_OPS:
            self.emit(f"regset.ip = {nxt}; proc._current_instr_addr = {addr}")
            self.emit(_FLUSH)
        if op in _CALLOUT_OPS or op == "ENTER":
            self.flush_registers()

        if op in BRANCH_OPS:
            self.branch(addr, instr, category, metered)
            return
        extra = self.guarded(addr, lambda: self.semantics(instr))
        self.charge(category, extra, metered)

        if op in BOUNDARY_OPS:
            self.leave(nxt, True)
        elif op == "XLATE":  # a fault policy may wake or retire threads
            with self.nested("if proc._woke or "
                             "proc._current[proc._active_priority] is None:"):
                self.emit("proc._woke = False")
                self.leave(nxt, True)
        elif mem_dest:
            with self.nested("if proc._woke:"):
                self.emit("proc._woke = False")
                self.leave(nxt, True)

    def semantics(self, instr: Instr):
        """Emit what ``instr`` does; return its cost beyond the base."""
        from .processor import _ALU_FUNCS, _MULTICYCLE_ALU

        op, ops, costs = instr.op, instr.operands, self.costs
        extra = 0
        if op in _ALU_FUNCS:
            a, b = self.read(ops[0], "use", 1), self.read(ops[1], "use", 2)
            bad = ["True" if val.numeric is False
                   else f"({val.tag} is not INT and {val.tag} not in NUMERIC)"
                   for val in (a, b) if val.numeric is not True]
            if bad:
                self.risky = True
                self.emit(f'if {" or ".join(bad)}: '
                          f'raise type_fault("{op}", {a.tag}, {b.tag})')
                for val in (a, b):  # both words are numeric from here on
                    if val.reg is not None and self.regs[val.reg][0] == "w":
                        self.regs[val.reg] = ("w", 3, self.regs[val.reg][2])
            symbol = _INLINE_ALU.get(op)
            if symbol is None:  # DIV/MOD by zero, shifts the reference's way
                self.risky = True
            value = (f"{a.value} {symbol} {b.value}" if symbol
                     else f"alu_{op}({a.value}, {b.value})")
            if op in COMPARE_OPS:
                self.write_bool(ops[2], value, 3)
            else:
                self.write_int(ops[2], value, 3, wrap=op not in _IN_RANGE)
            extra = _MULTICYCLE_ALU.get(op, 0)
        elif op in ("MOVE", "MOVER"):
            self.copy(ops[1], self.read(
                ops[0], "raw" if op == "MOVER" else "read", 1), 2)
        elif op in ("WTAG", "CHECK"):
            src = self.read(ops[0], "raw", 1)
            tag = self.read(ops[1], "raw", 2).value
            self.risky = True  # Tag() refuses a code outside the set
            if op == "WTAG":
                self.write_word(ops[2], f"Word(Tag({tag}), {src.value})", 3, 0)
            else:
                self.write_bool(ops[2], f"{src.tag} is Tag({tag})", 3)
        elif op == "RTAG":
            self.write_int(ops[1], f"int({self.read(ops[0], 'raw', 1).tag})", 2,
                           wrap=False)
        elif op == "MOVEID":
            self.write_int(ops[0], "ident.value", 1, wrap=False)
        elif op == "CYCLE":
            self.write_int(ops[0], self.now(), 1)
        elif op in ("NOT", "NEG"):
            value = self.read(ops[0], "use", 1).value
            self.write_int(ops[1], f"{'-' if op == 'NEG' else '~'}{value}", 2,
                           wrap=op == "NEG")
        elif op == "SUSPEND":
            self.risky = True  # thread-completion observers run here
            self.emit("proc._finish_thread(proc._active_priority, vnow)")
        elif op == "HALT":
            self.emit("proc.halted = True")
        elif op in ("SEND", "SENDE"):
            # The word enters the interface when the instruction retires,
            # so a slow (external-memory) operand delays the launch.
            word = self.word(self.read(ops[0], "read", 1))
            self.risky = True
            self.emit(f"proc.network.send_word(proc._active_priority, {word}, "
                      f"end={op == 'SENDE'}, "
                      f"now=vnow + meter.cycles + {costs.reg_op})")
            self.sent(1, op == "SENDE")
        elif op in ("SEND2", "SEND2E"):
            first = self.read(ops[0], "read", 1)
            second = self.read(ops[1], "read", 2)
            word1, word2 = self.word(first), self.word(second)
            self.risky = True
            self.emit(f"proc.network.send_two(proc._active_priority, {word1}, "
                      f"{word2}, {op == 'SEND2E'}, "
                      f"vnow + meter.cycles + {costs.reg_op})")
            self.sent(2, op == "SEND2E")
        elif op == "ENTER":
            key = self.read(ops[0], "read", 1)
            value = self.read(ops[1], "read", 2)
            self.risky = True
            self.emit(f"amt.enter({self.word(key)}, {self.word(value)})")
            extra = costs.enter - costs.reg_op
        elif op == "XLATE":
            key = self.word(self.read(ops[0], "read", 1))
            self.risky = True
            with self.nested("try:"):
                self.emit(f"w = amt.xlate({key}); "
                          f"x = {costs.xlate_hit - costs.reg_op}")
            with self.nested("except XlateMissFault as miss:"):
                self.emit(f"x = proc.fault_policy.on_xlate_miss(proc, {key}, "
                          "miss)")
                self.emit(f"w = amt.probe({key})")
                self.emit("if w is None: raise")
            self.regs = {}  # the policy may have written any register
            self.write_word(ops[1], "w", 2, 0)
            extra = "x"
        elif op == "PROBE":
            key = self.word(self.read(ops[0], "read", 1))
            self.emit(f"w = amt.probe({key})")
            self.emit("if w is None: w = ZERO")
            self.write_word(ops[1], "w", 2, 0)
            extra = costs.xlate_hit - costs.reg_op
        elif op != "NOP":  # pragma: no cover - every opcode has a template
            raise AssertionError(f"no block template for {op}")
        return extra

    def sent(self, words: int, end: bool) -> None:
        self.emit(f'counters["words_sent"] += {words}' + (
            '; counters["messages_sent"] += 1' if end else ""))

    def branch(self, addr: int, instr: Instr, category: str,
               metered: bool) -> None:
        """The not-taken exit first, then the taken path: out of the
        block, or — a back edge — into the steady-state body, or, when
        the body has run-time costs, back to the block's top with the
        registers stored."""
        op, ops = instr.op, instr.operands
        target = _static_target(instr)
        conditional = op in ("BT", "BF")
        if conditional:
            cond = self.guarded(addr, lambda: self.read(ops[0], "use", 1)).value
            pending = self.pending()
            with self.nested(f"if {'not ' if op == 'BT' else ''}{cond}:"):
                self.charge(category, 0, metered)
                self.leave(addr + 1)
            self.n, self.cats, self.time = pending
        if target is None:  # BT/BF name the target second, the rest first
            value = self.guarded(addr, lambda: self.read(
                ops[1 if conditional else 0], "use", 2)).value
            self.emit(f"regset.ip = {value}")
        if op == "CALL":
            self.set_raw(ops[1].name, "i", str(addr + 1), False)
        self.charge(category, self.costs.branch_taken_extra, metered)
        if target != self.start:
            self.leave("regset.ip" if target is None else target)
            return
        self.lap = self.pending()
        self.settle()
        if not self.static:
            self.emit("; ".join(self.stores() + ["continue"]))
            return
        self.back = dict(self.regs)
        if self.loop_state is not None:
            self.convert(self.loop_state)


def generate(start: int, run: List[Instr], base: int, costs,
             events: bool) -> Optional[Callable]:
    """Generate and compile the block for ``run``; None when the
    generator declines its first instruction."""
    run = list(takewhile(lambda instr: not _declined(instr), run))
    if not run:
        return None
    gen = _Generator(start, run, base, costs, events)
    lines = gen.body({}, False)
    if gen.back is not None:  # a static loop: peel the first iteration
        state = gen.back
        while True:  # the steady entry: a fixed point of the body
            gen.body(state, True)
            joined = _join(state, gen.back)
            if joined == state:
                break
            state = joined
        gen.loop_state = state
        lines = gen.body({}, False) + gen.steady()
    STATS["blocks_generated"] += 1
    # The synthetic filename sits *under* fastpath.py's path so that
    # profilers folding by source path attribute generated code to it.
    filename = (f"{fastpath.__file__}/<block {STATS['blocks_generated']} "
                f"@{start}{' events' * events}>")
    body = "".join(lines) + _TAIL
    used = set(re.findall(r"\w+", _HEAD + body))
    unpack = "".join(f"    {name} = ctx[{i}]\n"
                     for i, name in enumerate(_CONTEXT) if name in used)
    text = _HEAD.format(unpack=unpack) + body
    linecache.cache[filename] = (len(text), None, text.splitlines(True),
                                 filename)
    namespace = dict(_namespace(), **gen.consts)
    exec(compile(text, filename, "exec"), namespace)
    return namespace["block"]
