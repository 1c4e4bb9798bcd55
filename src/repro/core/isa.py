"""The MDP instruction set.

The real MDP packs two 17-bit instructions per 36-bit word and provides
"the usual arithmetic, data movement, and control instructions" plus the
communication (``SEND`` family), synchronization (tag checks, faulting
reads), and naming (``ENTER``/``XLATE``) instructions that make it unique
(Section 2.1).  This module defines the *architectural* form of those
instructions — operands, addressing modes, opcode metadata — independent
of both the assembler (which produces them from text) and the processor
(which executes them).

Addressing modes
----------------

======================  =============================  ===================
mode                    assembly syntax                class
======================  =============================  ===================
data register           ``R0`` .. ``R3``               :class:`Reg`
address register        ``A0`` .. ``A3``               :class:`Reg`
immediate               ``#5``, ``#'x``, ``#lbl``      :class:`Imm`
indexed                 ``[A2+3]``, ``[A2]``           :class:`MemOff`
register-indexed        ``[A2+R1]``                    :class:`MemIdx`
======================  =============================  ===================

Indexed modes go through the segment descriptor held in the address
register, so every memory access is bounds checked — the MDP's memory
protection model.  An instruction may name at most one memory operand
(matching the encoding constraint that lets "most operators read one of
the operands from memory").

Cycle costs are *not* stored on instructions; the processor consults the
:class:`~repro.core.costs.CostModel` so ablation benches can retime the
machine without reassembling programs.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

from .errors import AssemblyError, IllegalInstructionFault
from .registers import ADDR_REG_NAMES, DATA_REG_NAMES
from .tags import Tag
from .word import Word

__all__ = [
    "Reg", "Imm", "MemOff", "MemIdx", "Operand",
    "Instr", "OPCODES", "OpSpec",
    "ALU_OPS", "COMPARE_OPS",
]


class Reg:
    """A register operand: one of R0-R3 / A0-A3."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        name = name.upper()
        if name not in DATA_REG_NAMES and name not in ADDR_REG_NAMES:
            raise IllegalInstructionFault(f"unknown register {name!r}")
        self.name = name

    @property
    def is_address(self) -> bool:
        """True for A-registers (which hold segment descriptors)."""
        return self.name in ADDR_REG_NAMES

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Reg) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("Reg", self.name))

    def __repr__(self) -> str:
        return self.name


class Imm:
    """An immediate operand carrying a full tagged word."""

    __slots__ = ("word",)

    def __init__(self, word: Word) -> None:
        self.word = word

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Imm) and other.word == self.word

    def __hash__(self) -> int:
        return hash(("Imm", self.word))

    def __repr__(self) -> str:
        if self.word.tag is Tag.INT:
            return f"#{self.word.value}"
        if self.word.tag is Tag.IP:
            return f"#IP:{self.word.value}"
        return f"#{self.word!r}"


class MemOff:
    """Indexed memory operand ``[Areg + offset]`` (offset may be 0)."""

    __slots__ = ("areg", "offset")

    def __init__(self, areg: str, offset: int = 0) -> None:
        self.areg = Reg(areg)
        if not self.areg.is_address:
            raise IllegalInstructionFault("indexed access requires an A register")
        self.offset = int(offset)

    def __repr__(self) -> str:
        return f"[{self.areg.name}+{self.offset}]"


class MemIdx:
    """Register-indexed memory operand ``[Areg + Rreg]``."""

    __slots__ = ("areg", "idxreg")

    def __init__(self, areg: str, idxreg: str) -> None:
        self.areg = Reg(areg)
        if not self.areg.is_address:
            raise IllegalInstructionFault("indexed access requires an A register")
        self.idxreg = Reg(idxreg)
        if self.idxreg.is_address:
            raise IllegalInstructionFault("index must be a data register")

    def __repr__(self) -> str:
        return f"[{self.areg.name}+{self.idxreg.name}]"


Operand = Union[Reg, Imm, MemOff, MemIdx]


class OpSpec:
    """Static description of one opcode: operand count and roles.

    ``roles`` is a string of one character per operand:
    ``s`` source, ``d`` destination, ``t`` branch target (label/imm),
    ``g`` tag name (encoded as an Imm holding the tag code).
    """

    __slots__ = ("name", "roles", "kind", "doc")

    def __init__(self, name: str, roles: str, kind: str, doc: str) -> None:
        self.name = name
        self.roles = roles
        self.kind = kind
        self.doc = doc

    @property
    def arity(self) -> int:
        return len(self.roles)


#: Binary ALU operations: dst = s1 OP s2 (INT result).
ALU_OPS = ("ADD", "SUB", "MUL", "DIV", "MOD", "AND", "OR", "XOR", "ASH", "LSH")

#: Comparison operations: dst = s1 CMP s2 (BOOL result).
COMPARE_OPS = ("EQ", "NE", "LT", "LE", "GT", "GE")

OPCODES: Dict[str, OpSpec] = {}


def _op(name: str, roles: str, kind: str, doc: str) -> None:
    OPCODES[name] = OpSpec(name, roles, kind, doc)


# --- data movement ----------------------------------------------------------
_op("MOVE", "sd", "move", "dst = src; faults on cfut read, copies fut freely")
_op("MOVER", "sd", "move", "raw move: no presence-tag fault (fault-handler use)")
_op("WTAG", "sgd", "move", "dst = Word(tag, src.value): retag a word")
_op("RTAG", "sd", "move", "dst = INT(tag code of src)")
_op("MOVEID", "d", "move", "dst = INT(node id) — read the node-number register")
_op("CYCLE", "d", "move",
    "dst = INT(current cycle) — the statistics counter the paper's "
    "critique wished the MDP had included")

# --- arithmetic / logic ------------------------------------------------------
for _name in ALU_OPS:
    _op(_name, "ssd", "alu", f"dst = s1 {_name} s2")
for _name in COMPARE_OPS:
    _op(_name, "ssd", "alu", f"dst = BOOL(s1 {_name} s2)")
_op("NOT", "sd", "alu", "dst = bitwise complement of src")
_op("NEG", "sd", "alu", "dst = -src")

# --- control -------------------------------------------------------------------
_op("BR", "t", "branch", "unconditional branch")
_op("BT", "st", "branch", "branch if src is nonzero")
_op("BF", "st", "branch", "branch if src is zero")
_op("CALL", "td", "branch", "dst = return address; jump to target")
_op("JMP", "s", "branch", "jump to the address held in src")
_op("SUSPEND", "", "control", "end this thread; dispatch the next message")
_op("HALT", "", "control", "stop this node (simulation control)")
_op("NOP", "", "control", "no operation")

# --- messaging ---------------------------------------------------------------------
_op("SEND", "s", "send", "inject one word into the send buffer")
_op("SEND2", "ss", "send", "inject two words in one cycle")
_op("SENDE", "s", "send", "inject final word and launch the message")
_op("SEND2E", "ss", "send", "inject two final words and launch the message")

# --- naming ---------------------------------------------------------------------------
_op("ENTER", "ss", "name", "insert (key, value) into the match table")
_op("XLATE", "sd", "name", "dst = translation of key; faults on miss")
_op("PROBE", "sd", "name", "dst = translation of key, or INT 0 (no fault)")

# --- synchronization ----------------------------------------------------------------------
_op("CHECK", "sgd", "sync", "dst = BOOL(tag of src == tag)")


class Instr:
    """One decoded MDP instruction.

    Attributes:
        op: opcode mnemonic (a key of :data:`OPCODES`).
        operands: operand objects, matching the opcode's :class:`OpSpec`.
        label: optional source-level label attached to this address.
        line: source line (diagnostics).
    """

    __slots__ = ("op", "operands", "label", "line", "_text")

    def __init__(
        self,
        op: str,
        operands: Sequence[Operand] = (),
        label: Optional[str] = None,
        line: int = 0,
    ) -> None:
        op = op.upper()
        spec = OPCODES.get(op)
        if spec is None:
            raise AssemblyError(f"unknown opcode {op!r}", line)
        if len(operands) != spec.arity:
            raise AssemblyError(
                f"{op} takes {spec.arity} operands, got {len(operands)}", line
            )
        self.op = op
        self.operands = tuple(operands)
        self.label = label
        self.line = line

    @property
    def spec(self) -> OpSpec:
        return OPCODES[self.op]

    def memory_operands(self) -> Tuple[Operand, ...]:
        """The operands that touch memory (for cost accounting)."""
        return tuple(
            operand
            for operand in self.operands
            if isinstance(operand, (MemOff, MemIdx))
        )

    @property
    def text(self) -> str:
        """``OP a, b`` without the label: what the instruction *is*.

        Cached on first use (operands are final once a program is
        assembled); the block compiler keys its shared code cache on it.
        """
        try:
            return self._text
        except AttributeError:
            self._text = text = self._render()
            return text

    def _render(self) -> str:
        parts = ", ".join(repr(operand) for operand in self.operands)
        return f"{self.op} {parts}".strip()

    def __repr__(self) -> str:
        # Not ``text``: a repr taken mid-assembly must not be cached.
        return f"{self.label}: {self._render()}" if self.label else self._render()


def tag_imm(tag: Tag) -> Imm:
    """Encode a tag name as an immediate operand (for WTAG/CHECK)."""
    return Imm(Word(Tag.SYM, int(tag)))
