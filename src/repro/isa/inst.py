"""Dynamic instruction records and per-trace metadata.

A :class:`DynInst` is one *dynamic* instruction: a single execution of a
static instruction at a given PC.  A trace is a program-ordered sequence of
dynamic instructions, stored as columns by
:class:`~repro.isa.coltrace.ColumnTrace`, which serves ``DynInst`` records
as a lazy view.  The record is deliberately immutable -- per-execution
timing state lives in the pipeline's in-flight wrappers so that a trace can
be replayed across machine configurations (and re-fetched after squashes)
without copying.

Register dataflow is pre-resolved into *producer sequence numbers*:
``src_seqs`` names the dynamic instructions whose results this instruction
consumes.  This is exactly the information register renaming would recover
and lets the scheduler model wakeup without simulating a register file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.isa.ops import OpClass

#: Sentinel producer index meaning "value ready at fetch" (architectural
#: state older than the trace window).
NO_PRODUCER = -1

#: Instruction-kind codes used by :class:`TraceMeta` (cheaper than enum
#: identity tests in the simulator's per-cycle loops).
KIND_OTHER = 0
KIND_LOAD = 1
KIND_STORE = 2
KIND_BRANCH = 3


@dataclass(frozen=True, slots=True)
class DynInst:
    """One dynamic instruction.

    Attributes:
        seq: Position in the dynamic trace (0-based, monotonic).
        pc: Static PC; indexes predictors, store-sets, steering bits, SPCT.
        op: Scheduling class.
        src_seqs: Dynamic seq numbers of register producers (``NO_PRODUCER``
            entries are already-ready operands and are dropped by the trace
            builders; they never appear here).
        dst_reg: Architectural destination register, or -1 if none.  Used by
            RLE's integration signatures and by debugging output only.
        addr: Effective address for memory ops (4-byte aligned), else 0.
        size: Access size in bytes for memory ops (4 or 8), else 0.
        store_value: Value written by stores, else 0.
        store_data_seq: For stores, the producer seq of the *data* operand
            (distinct from address operands; speculative memory bypassing
            links a redundant load to this producer), else ``NO_PRODUCER``.
        taken: Branch outcome for branches, else False.
        base_seq: Producer seq of the base-address register for memory ops
            (register-integration signatures key on this), else
            ``NO_PRODUCER``.
        offset: Address-generation immediate for memory ops.
    """

    seq: int
    pc: int
    op: OpClass
    src_seqs: tuple[int, ...] = ()
    dst_reg: int = -1
    addr: int = 0
    size: int = 0
    store_value: int = 0
    store_data_seq: int = NO_PRODUCER
    taken: bool = False
    base_seq: int = NO_PRODUCER
    offset: int = 0

    @property
    def is_load(self) -> bool:
        return self.op is OpClass.LOAD

    @property
    def is_store(self) -> bool:
        return self.op is OpClass.STORE

    @property
    def is_branch(self) -> bool:
        return self.op is OpClass.BRANCH

    @property
    def is_mem(self) -> bool:
        return self.op is OpClass.LOAD or self.op is OpClass.STORE

    def words(self) -> tuple[int, ...]:
        """The 4-byte-aligned word addresses this memory op touches."""
        if self.size <= 4:
            return (self.addr,)
        return (self.addr, self.addr + 4)


#: A memory op's register-integration signature: (base producer, offset,
#: size).  ``None`` when the base register predates the trace window.
Signature = tuple[int, int, int]


def memory_signature(inst: DynInst) -> Signature | None:
    """Operation signature of a memory instruction, or None if untrackable.

    The producer seq of the base register plays the role of the physical
    register name, exactly the information renaming exposes (this is what
    :mod:`repro.rle.integration` keys its table on).
    """
    if inst.base_seq == NO_PRODUCER:
        return None
    return (inst.base_seq, inst.offset, inst.size)


class TraceMeta:
    """Flat per-instruction metadata precomputed once per trace.

    The simulator's inner loops index these lists by dynamic seq instead
    of calling :meth:`DynInst.words`, reading
    :data:`~repro.isa.ops.LATENCY_BY_OP` /
    :data:`~repro.isa.ops.ISSUE_CLASS_BY_OP`, or the ``is_load``/``is_store``
    properties once per instruction per cycle.  Everything here is derived
    from the immutable trace columns, so one build is shared by every
    machine configuration that replays it (see
    :meth:`~repro.isa.coltrace.ColumnTrace.meta`).
    """

    __slots__ = ("kind", "latency", "issue_class", "words", "_signature", "_build_signature")

    def __init__(
        self,
        kind: list[int],
        latency: list[int],
        issue_class: list[int],
        words: list[tuple[int, ...]],
        signature: Callable[[], list[Signature | None]],
    ) -> None:
        if not (len(kind) == len(latency) == len(issue_class) == len(words)):
            raise ValueError("TraceMeta columns must have equal lengths")
        #: KIND_* code per seq.
        self.kind = kind
        #: Execution latency per seq (address generation for memory ops).
        self.latency = latency
        #: Issue-bandwidth class (``int(OpClass)``) per seq.
        self.issue_class = issue_class
        #: Touched 4-byte-aligned words per seq (empty for non-memory ops).
        self.words = words
        self._signature = None
        self._build_signature = signature

    @property
    def signature(self) -> list[Signature | None]:
        """Register-integration signature per seq (None if untrackable).

        Built by the ``signature`` callable on the first read (only RLE
        reads it).  This is a property, not a ``__getattr__`` hook: a class
        with that hook loses CPython's specialized slot reads on every
        attribute."""
        signature = self._signature
        if signature is None:
            signature = self._build_signature()
            if len(signature) != len(self.kind):
                raise ValueError("TraceMeta columns must have equal lengths")
            self._signature = signature
            self._build_signature = None
        return signature
