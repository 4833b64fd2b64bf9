"""Operation classes and execution latencies.

The paper's machine issues instructions from five scheduling classes per
cycle (integer, floating-point, load, store, branch).  We keep integer
multiply/divide as a distinct :class:`OpClass` because its longer latency
shapes the dataflow height of real kernels, but it shares the integer issue
ports.
"""

from __future__ import annotations

import enum


class OpClass(enum.IntEnum):
    """Scheduling class of a dynamic instruction."""

    IALU = 0
    IMUL = 1
    FALU = 2
    LOAD = 3
    STORE = 4
    BRANCH = 5
    NOP = 6


#: Execution latencies in cycles (excluding cache access for memory ops).
#: Loads/stores listed here cover address generation; the memory hierarchy
#: adds its own access latency on top.
_LATENCY = {
    OpClass.IALU: 1,
    OpClass.IMUL: 7,
    OpClass.FALU: 4,
    OpClass.LOAD: 1,
    OpClass.STORE: 1,
    OpClass.BRANCH: 1,
    OpClass.NOP: 1,
}

#: Issue-port class used for bandwidth accounting.  IMUL shares the integer
#: issue ports; everything else maps to itself.
_ISSUE_CLASS = {
    OpClass.IALU: OpClass.IALU,
    OpClass.IMUL: OpClass.IALU,
    OpClass.FALU: OpClass.FALU,
    OpClass.LOAD: OpClass.LOAD,
    OpClass.STORE: OpClass.STORE,
    OpClass.BRANCH: OpClass.BRANCH,
    OpClass.NOP: OpClass.IALU,
}

#: The rules as flat tables indexed by ``int(op)``: per-trace metadata
#: (:class:`repro.isa.inst.TraceMeta`) is built from these, so the
#: simulator's per-cycle loops pay no dict lookup or enum hash.
LATENCY_BY_OP: tuple[int, ...] = tuple(_LATENCY[op] for op in OpClass)
ISSUE_CLASS_BY_OP: tuple[int, ...] = tuple(int(_ISSUE_CLASS[op]) for op in OpClass)
