"""Functional (golden) execution.

Two jobs live here:

1. :func:`trace_program` runs a :class:`~repro.isa.program.Program` on a
   simple in-order functional machine and records the dynamic instruction
   stream as a :class:`~repro.isa.coltrace.ColumnTrace`, resolving register
   dataflow into producer seq numbers exactly as register renaming would.

2. :func:`golden_execute` runs any trace in program order, straight off its
   columns, and returns the architecturally-correct load values and final
   memory image.
   Every timing configuration -- baseline or speculative -- must commit
   state identical to this; the integration suite enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.coltrace import ColumnTrace
from repro.isa.inst import NO_PRODUCER, DynInst
from repro.isa.ops import OpClass
from repro.isa.program import Mnemonic, Program
from repro.memsys.memimg import MemoryImage

_WORD64 = 0xFFFF_FFFF_FFFF_FFFF


@dataclass(slots=True)
class GoldenResult:
    """Architecturally-correct results of executing a trace.

    Attributes:
        load_values: value returned by each load, keyed by the load's seq.
        silent_stores: seqs of stores that wrote the value already present.
        memory: final memory image.
    """

    load_values: dict[int, int]
    silent_stores: set[int]
    memory: MemoryImage


def golden_execute(trace: ColumnTrace) -> GoldenResult:
    """Execute ``trace`` in program order on a functional memory, reading
    its flat columns (no ``DynInst`` materialization)."""
    memory = MemoryImage(trace.initial_memory)
    load_values: dict[int, int] = {}
    silent: set[int] = set()
    op = trace.op
    addr = trace.addr
    size = trace.size
    store_value = trace.store_value
    load, store = int(OpClass.LOAD), int(OpClass.STORE)
    read, write = memory.read, memory.write
    for seq in range(len(op)):
        code = op[seq]
        if code == load:
            load_values[seq] = read(addr[seq], size[seq])
        elif code == store:
            value = store_value[seq]
            if read(addr[seq], size[seq]) == value:
                silent.add(seq)
            write(addr[seq], value, size[seq])
    return GoldenResult(load_values=load_values, silent_stores=silent, memory=memory)


_ALU_MNEMONICS = {
    Mnemonic.ADDI: OpClass.IALU,
    Mnemonic.ADD: OpClass.IALU,
    Mnemonic.SUB: OpClass.IALU,
    Mnemonic.AND: OpClass.IALU,
    Mnemonic.XOR: OpClass.IALU,
    Mnemonic.SHR: OpClass.IALU,
    Mnemonic.MUL: OpClass.IMUL,
    Mnemonic.FADD: OpClass.FALU,
}

_BRANCH_MNEMONICS = (Mnemonic.BEQ, Mnemonic.BNE, Mnemonic.BLT, Mnemonic.BGE, Mnemonic.JUMP)


class _FunctionalMachine:
    """In-order functional interpreter with dataflow recording."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.regs = [0] * program.num_regs
        # Last dynamic writer of each architectural register.
        self.writer = [NO_PRODUCER] * program.num_regs
        self.memory = MemoryImage(program.initial_memory)
        self.pc = 0
        self.insts: list[DynInst] = []
        self.halted = False

    def _producers(self, *regs: int) -> tuple[int, ...]:
        """Producer seqs of live register operands (r0 and start-state drop out)."""
        return tuple(
            sorted({self.writer[r] for r in regs if r != 0 and self.writer[r] != NO_PRODUCER})
        )

    def step(self) -> None:
        program = self.program
        if self.pc >= len(program.ops):
            self.halted = True
            return
        op = program.ops[self.pc]
        seq = len(self.insts)
        mnemonic = op.mnemonic
        next_pc = self.pc + 1

        if mnemonic is Mnemonic.HALT:
            self.halted = True
            return

        if mnemonic in _ALU_MNEMONICS:
            if mnemonic is Mnemonic.ADDI:
                value = (self.regs[op.rs] + op.imm) & _WORD64
                srcs = self._producers(op.rs)
            elif mnemonic is Mnemonic.SHR:
                value = (self.regs[op.rs] >> (op.imm & 63)) & _WORD64
                srcs = self._producers(op.rs)
            else:
                a, b = self.regs[op.rs], self.regs[op.rt]
                if mnemonic is Mnemonic.ADD or mnemonic is Mnemonic.FADD:
                    value = (a + b) & _WORD64
                elif mnemonic is Mnemonic.SUB:
                    value = (a - b) & _WORD64
                elif mnemonic is Mnemonic.AND:
                    value = a & b
                elif mnemonic is Mnemonic.XOR:
                    value = a ^ b
                else:  # MUL
                    value = (a * b) & _WORD64
                srcs = self._producers(op.rs, op.rt)
            self.insts.append(
                DynInst(seq=seq, pc=self.pc, op=_ALU_MNEMONICS[mnemonic], src_seqs=srcs, dst_reg=op.rd)
            )
            if op.rd != 0:
                self.regs[op.rd] = value
                self.writer[op.rd] = seq

        elif mnemonic is Mnemonic.LOAD:
            addr = (self.regs[op.rs] + op.imm) & _WORD64
            base_producer = self.writer[op.rs] if op.rs != 0 else NO_PRODUCER
            value = self.memory.read(addr, op.size)
            self.insts.append(
                DynInst(
                    seq=seq,
                    pc=self.pc,
                    op=OpClass.LOAD,
                    src_seqs=self._producers(op.rs),
                    dst_reg=op.rd,
                    addr=addr,
                    size=op.size,
                    base_seq=base_producer,
                    offset=op.imm,
                )
            )
            if op.rd != 0:
                self.regs[op.rd] = value
                self.writer[op.rd] = seq

        elif mnemonic is Mnemonic.STORE:
            addr = (self.regs[op.rt] + op.imm) & _WORD64
            base_producer = self.writer[op.rt] if op.rt != 0 else NO_PRODUCER
            data_producer = self.writer[op.rs] if op.rs != 0 else NO_PRODUCER
            value = self.regs[op.rs] & (0xFFFF_FFFF if op.size == 4 else _WORD64)
            self.insts.append(
                DynInst(
                    seq=seq,
                    pc=self.pc,
                    op=OpClass.STORE,
                    src_seqs=self._producers(op.rs, op.rt),
                    addr=addr,
                    size=op.size,
                    store_value=value,
                    store_data_seq=data_producer,
                    base_seq=base_producer,
                    offset=op.imm,
                )
            )
            self.memory.write(addr, value, op.size)

        elif mnemonic in _BRANCH_MNEMONICS:
            if mnemonic is Mnemonic.JUMP:
                taken = True
                srcs: tuple[int, ...] = ()
            else:
                a, b = self.regs[op.rs], self.regs[op.rt]
                if mnemonic is Mnemonic.BEQ:
                    taken = a == b
                elif mnemonic is Mnemonic.BNE:
                    taken = a != b
                elif mnemonic is Mnemonic.BLT:
                    taken = a < b
                else:  # BGE
                    taken = a >= b
                srcs = self._producers(op.rs, op.rt)
            self.insts.append(
                DynInst(seq=seq, pc=self.pc, op=OpClass.BRANCH, src_seqs=srcs, taken=taken)
            )
            if taken:
                next_pc = program.target_pc(op)
        else:  # pragma: no cover - exhaustive over Mnemonic
            raise AssertionError(f"unhandled mnemonic {mnemonic}")

        self.pc = next_pc


def trace_program(program: Program, max_insts: int = 1_000_000) -> ColumnTrace:
    """Run ``program`` functionally and return its dynamic trace.

    Raises ``RuntimeError`` if the program executes more than ``max_insts``
    dynamic instructions (runaway loop guard).
    """
    machine = _FunctionalMachine(program)
    while not machine.halted:
        if len(machine.insts) >= max_insts:
            raise RuntimeError(
                f"program {program.name!r} exceeded {max_insts} dynamic instructions"
            )
        machine.step()
    trace = ColumnTrace.from_insts(
        program.name, machine.insts, initial_memory=dict(program.initial_memory)
    )
    trace.validate()
    return trace
