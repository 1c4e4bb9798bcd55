"""A two-pass assembler for the MDP instruction set.

The paper's micro-benchmarks and library routines (barrier, RPC handlers)
were written in assembly; so are ours.  The syntax is line oriented:

.. code-block:: asm

    ; comments run to end of line
    .equ  NREPS, 100          ; named constant
    .org  128                 ; set the location counter (optional)

    reply:                    ; a label
        MOVE   [A3+1], R0     ; message operand via the A3 window
        ADD    R0, #1, R0
        SEND   R1             ; R1 holds the destination node id
        SEND2E #IP:reply, R0  ; header word + payload, launch
        SUSPEND

    table: .word 1, 2, 3      ; data words (INT tagged)
           .space 4           ; reserve 4 zeroed words
           .word CFUT         ; a presence-tagged empty slot

Operand forms::

    R0..R3  A0..A3            registers
    #5  #-2                   integer immediates
    #'x'                      symbol (character) immediate
    #name                     value of a label or .equ constant
    #IP:name                  IP-tagged immediate (message header word)
    %CFUT  %INT  %FUT ...     tag immediates (for WTAG / CHECK)
    [A2]  [A2+3]  [A2+R1]     indexed memory via segment descriptor
    name                      branch target (resolved label)

Assembly is relocatable: :func:`assemble` builds a :class:`Program` at a
given base address; :meth:`Program.load` installs code and data into a
processor.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple, Union

from ..core.errors import AssemblyError
from ..core.isa import Imm, Instr, MemIdx, MemOff, OPCODES, Operand, Reg
from ..core.processor import Mdp, USER_BASE
from ..core.tags import Tag
from ..core.word import Word

__all__ = ["Program", "assemble"]

_REGISTER_RE = re.compile(r"^(R[0-3]|A[0-3])$", re.IGNORECASE)
_MEM_RE = re.compile(
    r"^\[\s*(A[0-3])\s*(?:([+-])\s*(R[0-3]|\d+)\s*)?\]$", re.IGNORECASE
)
_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class _PendingLabel:
    """A forward reference resolved in pass two."""

    __slots__ = ("name", "wrap_ip")

    def __init__(self, name: str, wrap_ip: bool = False) -> None:
        self.name = name
        self.wrap_ip = wrap_ip


class Program:
    """An assembled program: positioned instructions, data, and labels."""

    def __init__(
        self,
        base: int,
        instrs: List[Tuple[int, Instr]],
        data: List[Tuple[int, Word]],
        labels: Dict[str, int],
        end: int,
    ) -> None:
        self.base = base
        self.instrs = instrs
        self.data = data
        self.labels = labels
        self.end = end

    def entry(self, label: str) -> int:
        """Address of a label (for message headers / background entry)."""
        try:
            return self.labels[label]
        except KeyError:
            raise AssemblyError(f"no such label {label!r}") from None

    def load(self, proc: Mdp) -> None:
        """Install this program's code and data into a processor."""
        proc.install_code(self.instrs)
        for addr, word in self.data:
            proc.memory.poke(addr, word)

    @property
    def size(self) -> int:
        """Extent in address units (instructions + data words)."""
        return self.end - self.base

    def __repr__(self) -> str:
        return (
            f"Program(base={self.base}, instrs={len(self.instrs)}, "
            f"data={len(self.data)}, labels={sorted(self.labels)})"
        )


def _strip_comment(line: str) -> str:
    in_char = False
    for i, ch in enumerate(line):
        if ch == "'":
            in_char = not in_char
        elif ch == ";" and not in_char:
            return line[:i]
    return line


def _split_operands(text: str) -> List[str]:
    """Split on commas that are not inside brackets or character quotes."""
    parts: List[str] = []
    depth = 0
    in_char = False
    current = ""
    for ch in text:
        if ch == "'":
            in_char = not in_char
        if ch == "[" and not in_char:
            depth += 1
        elif ch == "]" and not in_char:
            depth -= 1
        if ch == "," and depth == 0 and not in_char:
            parts.append(current.strip())
            current = ""
        else:
            current += ch
    if current.strip():
        parts.append(current.strip())
    return parts


def _parse_int(text: str, line_no: int) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise AssemblyError(f"bad integer {text!r}", line_no) from None


class _Assembler:
    """Internal state for the two assembly passes."""

    def __init__(self, source: str, base: int) -> None:
        self.source = source
        self.base = base
        self.labels: Dict[str, int] = {}
        self.equs: Dict[str, int] = {}
        self.instrs: List[Tuple[int, Instr]] = []
        self.data: List[Tuple[int, Word]] = []
        self.counter = base

    # ---------------------------------------------------------------- pass 1

    def run(self) -> Program:
        for line_no, raw in enumerate(self.source.splitlines(), start=1):
            line = _strip_comment(raw).strip()
            if not line:
                continue
            line = self._take_labels(line, line_no)
            if not line:
                continue
            if line.startswith("."):
                self._directive(line, line_no)
            else:
                self._instruction(line, line_no)
        self._resolve()
        return Program(
            self.base, self.instrs, self.data, dict(self.labels), self.counter
        )

    def _take_labels(self, line: str, line_no: int) -> str:
        while True:
            match = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)\s*:\s*", line)
            if not match:
                return line
            name = match.group(1)
            if name in self.labels:
                raise AssemblyError(f"duplicate label {name!r}", line_no)
            self.labels[name] = self.counter
            line = line[match.end():]

    def _directive(self, line: str, line_no: int) -> None:
        parts = line.split(None, 1)
        name = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        if name == ".org":
            self.counter = _parse_int(rest.strip(), line_no)
        elif name == ".equ":
            pieces = _split_operands(rest)
            if len(pieces) != 2:
                raise AssemblyError(".equ takes a name and a value", line_no)
            if not _LABEL_RE.match(pieces[0]):
                raise AssemblyError(f"bad constant name {pieces[0]!r}", line_no)
            self.equs[pieces[0]] = _parse_int(pieces[1], line_no)
        elif name == ".word":
            for piece in _split_operands(rest):
                self.data.append((self.counter, self._data_word(piece, line_no)))
                self.counter += 1
        elif name == ".space":
            count = _parse_int(rest.strip(), line_no)
            if count < 0:
                raise AssemblyError(".space count must be non-negative", line_no)
            for _ in range(count):
                self.data.append((self.counter, Word.from_int(0)))
                self.counter += 1
        else:
            raise AssemblyError(f"unknown directive {name!r}", line_no)

    def _data_word(self, text: str, line_no: int) -> Word:
        text = text.strip()
        if text.upper() == "CFUT":
            return Word.cfut()
        if text.upper() == "FUT":
            return Word.fut()
        if text.startswith("'") and text.endswith("'") and len(text) == 3:
            return Word.from_sym(ord(text[1]))
        if text.upper().startswith("IP:"):
            target = text[3:].strip()
            if _LABEL_RE.match(target):
                # May be a forward label: park a pending marker.
                return _pending_data(self, target, line_no, wrap_ip=True)
            return Word.ip(_parse_int(target, line_no))
        if _LABEL_RE.match(text) and not re.match(r"^\d", text):
            return _pending_data(self, text, line_no, wrap_ip=False)
        return Word.from_int(_parse_int(text, line_no))

    def _instruction(self, line: str, line_no: int) -> None:
        parts = line.split(None, 1)
        op = parts[0].upper()
        if op not in OPCODES:
            raise AssemblyError(f"unknown opcode {op!r}", line_no)
        operand_text = _split_operands(parts[1]) if len(parts) > 1 else []
        spec = OPCODES[op]
        if len(operand_text) != spec.arity:
            raise AssemblyError(
                f"{op} takes {spec.arity} operands, got {len(operand_text)}", line_no
            )
        operands: List[Union[Operand, _PendingLabel]] = []
        for text, role in zip(operand_text, spec.roles):
            operands.append(self._operand(text, role, line_no))
        instr = Instr.__new__(Instr)  # defer operand validation to resolve
        instr.op = op
        instr.operands = tuple(operands)
        instr.label = None
        instr.line = line_no
        self.instrs.append((self.counter, instr))
        self.counter += 1

    def _operand(
        self, text: str, role: str, line_no: int
    ) -> Union[Operand, _PendingLabel]:
        text = text.strip()
        if _REGISTER_RE.match(text):
            return Reg(text)
        mem = _MEM_RE.match(text)
        if mem:
            areg, sign, index = mem.group(1), mem.group(2), mem.group(3)
            if index is None:
                return MemOff(areg, 0)
            if index.upper().startswith("R"):
                if sign == "-":
                    raise AssemblyError("negative register index not supported", line_no)
                return MemIdx(areg, index)
            offset = int(index)
            return MemOff(areg, -offset if sign == "-" else offset)
        if text.startswith("%"):
            tag_name = text[1:].upper()
            try:
                tag = Tag[tag_name]
            except KeyError:
                raise AssemblyError(f"unknown tag {tag_name!r}", line_no) from None
            return Imm(Word(Tag.SYM, int(tag)))
        if text.startswith("#"):
            return self._immediate(text[1:].strip(), line_no)
        # Bare word: branch target or named constant.
        if _LABEL_RE.match(text):
            if text in self.equs:
                return Imm(Word.from_int(self.equs[text]))
            return _PendingLabel(text)
        return Imm(Word.from_int(_parse_int(text, line_no)))

    def _immediate(self, text: str, line_no: int) -> Union[Imm, _PendingLabel]:
        if text.startswith("'") and text.endswith("'") and len(text) == 3:
            return Imm(Word.from_sym(ord(text[1])))
        if text.upper().startswith("IP:"):
            target = text[3:].strip()
            if _LABEL_RE.match(target) and not re.match(r"^\d", target):
                return _PendingLabel(target, wrap_ip=True)
            return Imm(Word.ip(_parse_int(target, line_no)))
        if _LABEL_RE.match(text) and not re.match(r"^\d", text):
            if text in self.equs:
                return Imm(Word.from_int(self.equs[text]))
            return _PendingLabel(text)
        return Imm(Word.from_int(_parse_int(text, line_no)))

    # ---------------------------------------------------------------- pass 2

    def _resolve(self) -> None:
        for addr, instr in self.instrs:
            resolved: List[Operand] = []
            for operand in instr.operands:
                if isinstance(operand, _PendingLabel):
                    resolved.append(self._resolve_label(operand, instr.line))
                else:
                    resolved.append(operand)
            instr.operands = tuple(resolved)
        data_resolved: List[Tuple[int, Word]] = []
        for addr, word in self.data:
            if isinstance(word, _PendingDataRef):
                data_resolved.append((addr, word.resolve(self)))
            else:
                data_resolved.append((addr, word))
        self.data = data_resolved

    def _resolve_label(self, pending: _PendingLabel, line_no: int) -> Imm:
        value = self.labels.get(pending.name)
        if value is None:
            value = self.equs.get(pending.name)
        if value is None:
            raise AssemblyError(f"undefined label {pending.name!r}", line_no)
        return Imm(Word.ip(value) if pending.wrap_ip else Word.from_int(value))


class _PendingDataRef(Word):
    """Placeholder in the data stream for a forward label reference."""

    # Word is immutable/slotted; we bypass it entirely and just carry state.
    def __new__(cls, name: str, line_no: int, wrap_ip: bool):  # type: ignore[override]
        obj = object.__new__(cls)
        object.__setattr__(obj, "tag", Tag.INT)
        object.__setattr__(obj, "value", 0)
        object.__setattr__(obj, "_name", name)
        object.__setattr__(obj, "_line", line_no)
        object.__setattr__(obj, "_wrap_ip", wrap_ip)
        return obj

    def __init__(self, *args, **kwargs) -> None:  # pragma: no cover - trivial
        pass

    def resolve(self, assembler: _Assembler) -> Word:
        name = object.__getattribute__(self, "_name")
        line = object.__getattribute__(self, "_line")
        wrap_ip = object.__getattribute__(self, "_wrap_ip")
        value = assembler.labels.get(name)
        if value is None:
            value = assembler.equs.get(name)
        if value is None:
            raise AssemblyError(f"undefined label {name!r}", line)
        return Word.ip(value) if wrap_ip else Word.from_int(value)


def _pending_data(
    assembler: _Assembler, name: str, line_no: int, wrap_ip: bool
) -> Word:
    if name in assembler.labels:
        value = assembler.labels[name]
        return Word.ip(value) if wrap_ip else Word.from_int(value)
    if name in assembler.equs:
        value = assembler.equs[name]
        return Word.ip(value) if wrap_ip else Word.from_int(value)
    return _PendingDataRef(name, line_no, wrap_ip)


def assemble(source: str, base: int = USER_BASE) -> Program:
    """Assemble MDP source text into a :class:`Program` at ``base``.

    Raises :class:`~repro.core.errors.AssemblyError` with a line number on
    any syntax or reference error.
    """
    return _Assembler(source, base).run()
