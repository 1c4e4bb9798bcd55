"""Tests for the two-pass MDP assembler."""

import pytest
from hypothesis import given, strategies as st

from repro.asm.assembler import assemble
from repro.core.errors import AssemblyError
from repro.core.isa import Imm, MemIdx, MemOff, Reg
from repro.core.memory import USER_BASE
from repro.core.tags import Tag
from repro.core.word import Word


class TestBasics:
    def test_empty_program(self):
        program = assemble("")
        assert program.instrs == []
        assert program.size == 0

    def test_comment_only(self):
        assert assemble("; nothing here\n  ; more").instrs == []

    def test_single_instruction(self):
        program = assemble("MOVE #1, R0")
        assert len(program.instrs) == 1
        addr, instr = program.instrs[0]
        assert addr == USER_BASE
        assert instr.op == "MOVE"

    def test_sequential_addresses(self):
        program = assemble("NOP\nNOP\nNOP")
        addresses = [addr for addr, _ in program.instrs]
        assert addresses == [USER_BASE, USER_BASE + 1, USER_BASE + 2]

    def test_custom_base(self):
        program = assemble("NOP", base=500)
        assert program.instrs[0][0] == 500

    def test_case_insensitive_opcode(self):
        assert assemble("move #1, r0").instrs[0][1].op == "MOVE"

    def test_unknown_opcode(self):
        with pytest.raises(AssemblyError):
            assemble("FROB R0")

    def test_wrong_arity(self):
        with pytest.raises(AssemblyError):
            assemble("MOVE R0")

    def test_error_carries_line_number(self):
        with pytest.raises(AssemblyError) as info:
            assemble("NOP\nNOP\nBADOP R0")
        assert info.value.line == 3


class TestLabels:
    def test_label_resolves_to_address(self):
        program = assemble("""
        start:
            NOP
        target:
            NOP
        """)
        assert program.entry("target") == program.entry("start") + 1

    def test_forward_reference(self):
        program = assemble("""
            BR later
        later:
            HALT
        """)
        _, branch = program.instrs[0]
        assert branch.operands[0].word.value == program.entry("later")

    def test_backward_reference(self):
        program = assemble("""
        loop:
            NOP
            BR loop
        """)
        _, branch = program.instrs[1]
        assert branch.operands[0].word.value == program.entry("loop")

    def test_duplicate_label(self):
        with pytest.raises(AssemblyError):
            assemble("x: NOP\nx: NOP")

    def test_undefined_label(self):
        with pytest.raises(AssemblyError):
            assemble("BR nowhere")

    def test_missing_entry(self):
        with pytest.raises(AssemblyError):
            assemble("NOP").entry("nope")

    def test_label_on_same_line_as_instruction(self):
        program = assemble("go: HALT")
        assert program.entry("go") == USER_BASE

    def test_multiple_labels_same_address(self):
        program = assemble("a: b: NOP")
        assert program.entry("a") == program.entry("b")


class TestOperands:
    def _operand(self, text, op="MOVE", position=0):
        program = assemble(f"{op} {text}, R0")
        return program.instrs[0][1].operands[position]

    def test_data_register(self):
        assert self._operand("R2") == Reg("R2")

    def test_address_register(self):
        assert self._operand("A1") == Reg("A1")

    def test_int_immediate(self):
        assert self._operand("#42") == Imm(Word.from_int(42))

    def test_negative_immediate(self):
        assert self._operand("#-7") == Imm(Word.from_int(-7))

    def test_hex_immediate(self):
        assert self._operand("#0x10") == Imm(Word.from_int(16))

    def test_char_immediate(self):
        assert self._operand("#'z'") == Imm(Word.from_sym(ord("z")))

    def test_ip_immediate_numeric(self):
        operand = self._operand("#IP:300")
        assert operand.word == Word.ip(300)

    def test_ip_immediate_label(self):
        program = assemble("""
        handler:
            NOP
            MOVE #IP:handler, R0
        """)
        _, instr = program.instrs[1]
        assert instr.operands[0].word == Word.ip(program.entry("handler"))

    def test_tag_immediate(self):
        program = assemble("CHECK R0, %CFUT, R1")
        tag_imm = program.instrs[0][1].operands[1]
        assert tag_imm.word.value == int(Tag.CFUT)

    def test_unknown_tag(self):
        with pytest.raises(AssemblyError):
            assemble("CHECK R0, %BOGUS, R1")

    def test_memory_plain(self):
        operand = self._operand("[A2]")
        assert isinstance(operand, MemOff)
        assert operand.offset == 0

    def test_memory_offset(self):
        operand = self._operand("[A2+5]")
        assert operand.offset == 5

    def test_memory_negative_offset(self):
        operand = self._operand("[A2-3]")
        assert operand.offset == -3

    def test_memory_register_index(self):
        operand = self._operand("[A2+R1]")
        assert isinstance(operand, MemIdx)
        assert operand.idxreg == Reg("R1")

    def test_equ_as_immediate(self):
        program = assemble("""
        .equ LIMIT, 99
            MOVE #LIMIT, R0
        """)
        assert program.instrs[0][1].operands[0].word.value == 99


class TestDirectives:
    def test_word_emits_data(self):
        program = assemble("table: .word 1, 2, 3")
        values = [word.value for _, word in program.data]
        assert values == [1, 2, 3]

    def test_word_cfut(self):
        program = assemble("slot: .word CFUT")
        assert program.data[0][1].tag is Tag.CFUT

    def test_word_char(self):
        program = assemble(".word 'q'")
        assert program.data[0][1] == Word.from_sym(ord("q"))

    def test_word_label_reference(self):
        program = assemble("""
        ptr: .word target
        target: NOP
        """)
        assert program.data[0][1].value == program.entry("target")

    def test_word_ip_label(self):
        program = assemble("""
        vec: .word IP:handler
        handler: NOP
        """)
        assert program.data[0][1] == Word.ip(program.entry("handler"))

    def test_space_reserves(self):
        program = assemble(".space 5\nafter: NOP")
        assert program.entry("after") == USER_BASE + 5
        assert len(program.data) == 5

    def test_org_moves_counter(self):
        program = assemble(".org 1000\nhere: NOP")
        assert program.entry("here") == 1000

    def test_equ_bad_name(self):
        with pytest.raises(AssemblyError):
            assemble(".equ 2bad, 1")

    def test_unknown_directive(self):
        with pytest.raises(AssemblyError):
            assemble(".frobnicate 1")

    def test_negative_space(self):
        with pytest.raises(AssemblyError):
            assemble(".space -1")


class TestLoad:
    def test_load_installs_code_and_data(self):
        from repro.core.processor import Mdp

        program = assemble("""
        start: MOVE #1, R0
               HALT
        datum: .word 77
        """)
        proc = Mdp(node_id=0)
        program.load(proc)
        assert proc.code[program.entry("start")].op == "MOVE"
        assert proc.memory.peek(program.entry("datum")).value == 77


@given(st.integers(-2**31, 2**31 - 1))
def test_any_int32_immediate_assembles(value):
    program = assemble(f"MOVE #{value}, R0")
    assert program.instrs[0][1].operands[0].word.value == value


@given(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,10}", fullmatch=True))
def test_any_identifier_labels_work(name):
    if name.upper() in ("R0", "R1", "R2", "R3", "A0", "A1", "A2", "A3"):
        return  # register names shadow labels in operand position
    program = assemble(f"{name}: NOP\nBR {name}")
    assert program.entry(name) == USER_BASE
