"""Dynamic instruction records and traces.

A :class:`DynInst` is one *dynamic* instruction: a single execution of a
static instruction at a given PC.  Traces are program-ordered sequences of
dynamic instructions.  The record is deliberately immutable -- per-execution
timing state lives in the pipeline's in-flight wrappers so that a trace can
be replayed across machine configurations (and re-fetched after squashes)
without copying.

Register dataflow is pre-resolved into *producer sequence numbers*:
``src_seqs`` names the dynamic instructions whose results this instruction
consumes.  This is exactly the information register renaming would recover
and lets the scheduler model wakeup without simulating a register file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.isa.ops import ISSUE_CLASS_BY_OP, LATENCY_BY_OP, OpClass

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
    of calling :meth:`DynInst.words`, :func:`~repro.isa.ops.latency_of`,
    :func:`~repro.isa.ops.issue_class_of`, or the ``is_load``/``is_store``
    properties once per instruction per cycle.  Everything here is derived
    from the immutable trace, so one build is shared by every machine
    configuration that replays it (see :meth:`Trace.meta`).
    """

    __slots__ = ("kind", "latency", "issue_class", "words", "signature")

    def __init__(self, insts: Sequence[DynInst]) -> None:
        load, store, branch = OpClass.LOAD, OpClass.STORE, OpClass.BRANCH
        #: KIND_* code per seq.
        self.kind: list[int] = [
            KIND_LOAD
            if inst.op is load
            else KIND_STORE
            if inst.op is store
            else KIND_BRANCH
            if inst.op is branch
            else KIND_OTHER
            for inst in insts
        ]
        #: Execution latency per seq (address generation for memory ops).
        self.latency: list[int] = [LATENCY_BY_OP[inst.op] for inst in insts]
        #: Issue-bandwidth class (``int(OpClass)``) per seq.
        self.issue_class: list[int] = [ISSUE_CLASS_BY_OP[inst.op] for inst in insts]
        #: Touched 4-byte-aligned words per seq (empty for non-memory ops).
        self.words: list[tuple[int, ...]] = [
            inst.words() if inst.op is load or inst.op is store else ()
            for inst in insts
        ]
        #: Register-integration signature per seq (None if untrackable).
        self.signature: list[Signature | None] = [
            memory_signature(inst) if inst.op is load or inst.op is store else None
            for inst in insts
        ]

    @classmethod
    def from_columns(
        cls,
        kind: list[int],
        latency: list[int],
        issue_class: list[int],
        words: list[tuple[int, ...]],
        signature: list["Signature | None"],
    ) -> "TraceMeta":
        """Adopt already-materialized columns without touching a trace.

        This is the decode path of :mod:`repro.isa.codec`: the columns were
        computed once at encode time, so reattaching them must not walk the
        instruction list or the ops tables again.
        """
        if not (len(kind) == len(latency) == len(issue_class) == len(words) == len(signature)):
            raise ValueError("TraceMeta columns must have equal lengths")
        meta = cls.__new__(cls)
        meta.kind = kind
        meta.latency = latency
        meta.issue_class = issue_class
        meta.words = words
        meta.signature = signature
        return meta


@dataclass(slots=True)
class Trace:
    """A program-ordered dynamic instruction stream plus provenance.

    Attributes:
        name: Workload name (benchmark profile or kernel).
        insts: The dynamic instructions, ``insts[i].seq == i``.
        initial_memory: Word-granularity initial memory image
            (4-byte-aligned address -> 32-bit value); absent words read 0.
        wrong_path_addrs: For each dynamic branch/flush point the workload
            generator can supply plausible wrong-path store addresses used to
            model speculative SSBF pollution (see DESIGN.md).  Keyed by the
            seq at which a flush might occur.
    """

    name: str
    insts: list[DynInst]
    initial_memory: dict[int, int] = field(default_factory=dict)
    wrong_path_addrs: dict[int, tuple[int, ...]] = field(default_factory=dict)
    #: Lazily-built :class:`TraceMeta` cache; identity metadata only, so it
    #: participates in neither equality nor construction by callers.
    _meta: TraceMeta | None = field(default=None, repr=False, compare=False)
    #: Lazily-built columnar view (see :meth:`columns`); cache only.
    _columns: object = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.insts)

    def columns(self):
        """The :class:`~repro.isa.coltrace.ColumnTrace` view of this trace.

        Built once and cached: the column-native simulator core and codec
        normalize every input through this hook, so object-built traces
        (kernels, hand-written tests) pay a single conversion per trace.
        """
        if self._columns is None:
            from repro.isa.coltrace import ColumnTrace

            self._columns = ColumnTrace.from_trace(self)
        return self._columns

    def meta(self) -> TraceMeta:
        """Per-instruction metadata, built once and shared across runs."""
        if self._meta is None:
            self._meta = TraceMeta(self.insts)
        return self._meta

    def attach_meta(self, meta: TraceMeta) -> None:
        """Install externally-built metadata (the trace codec's decode path).

        The caller guarantees ``meta`` describes exactly this instruction
        stream; sizes are cross-checked, content is trusted.
        """
        if len(meta.kind) != len(self.insts):
            raise ValueError(
                f"meta covers {len(meta.kind)} insts, trace has {len(self.insts)}"
            )
        self._meta = meta

    def __iter__(self) -> Iterator[DynInst]:
        return iter(self.insts)

    def __getitem__(self, i: int) -> DynInst:
        return self.insts[i]

    def validate(self) -> None:
        """Check internal consistency; raises ``ValueError`` on violation.

        Invariants: seq numbering is dense; producers strictly precede
        consumers; memory ops have aligned addresses and sane sizes; and
        address-generation is register-consistent -- two memory ops with
        the same (base producer, offset) compute the same address, which
        is what register-integration signatures rely on.
        """
        signatures: dict[tuple[int, int], int] = {}
        for i, inst in enumerate(self.insts):
            if inst.seq != i:
                raise ValueError(f"inst {i} has seq {inst.seq}")
            for src in inst.src_seqs:
                if not 0 <= src < i:
                    raise ValueError(f"inst {i} consumes future/invalid producer {src}")
            if inst.base_seq != NO_PRODUCER and not 0 <= inst.base_seq < i:
                raise ValueError(f"inst {i} has invalid base producer {inst.base_seq}")
            if inst.is_mem:
                if inst.size not in (4, 8):
                    raise ValueError(f"mem inst {i} has size {inst.size}")
                if inst.addr % 4 != 0:
                    raise ValueError(f"mem inst {i} unaligned addr {inst.addr:#x}")
                if inst.size == 8 and inst.addr % 8 != 0:
                    raise ValueError(f"mem inst {i} unaligned 8B addr {inst.addr:#x}")
                if inst.base_seq != NO_PRODUCER:
                    key = (inst.base_seq, inst.offset)
                    previous = signatures.setdefault(key, inst.addr)
                    if previous != inst.addr:
                        raise ValueError(
                            f"mem inst {i}: signature {key} maps to both "
                            f"{previous:#x} and {inst.addr:#x}"
                        )

    def stats(self) -> dict[str, float]:
        """Aggregate mix statistics (fractions of the dynamic stream)."""
        counts: dict[OpClass, int] = {}
        for inst in self.insts:
            counts[inst.op] = counts.get(inst.op, 0) + 1
        total = max(1, len(self.insts))
        return {
            "insts": float(total),
            "load_frac": counts.get(OpClass.LOAD, 0) / total,
            "store_frac": counts.get(OpClass.STORE, 0) / total,
            "branch_frac": counts.get(OpClass.BRANCH, 0) / total,
        }
