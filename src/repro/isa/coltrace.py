"""Column-native traces: flat per-field arrays with ``DynInst`` as a view.

A :class:`ColumnTrace` stores one dynamic instruction stream as typed
:mod:`array` columns -- one array per :class:`~repro.isa.inst.DynInst`
field, plus a CSR pair (``src_offsets``/``src_flat``) for the
variable-length register-source lists.  It is the only trace type in the
system, and its layout is the one the trace codec puts on the wire:

- the synthetic generator emits these columns directly (no per-instruction
  object allocation);
- :func:`repro.isa.codec.encode_trace` serializes them with one
  ``tobytes()`` per column, and ``decode_trace`` rebuilds them with one
  ``frombytes()`` per column -- no object graph on either side;
- the :class:`~repro.pipeline.processor.Processor` reads the columns by
  dynamic seq in its dispatch loop instead of walking ``DynInst`` records.

``DynInst`` is a *view*: :attr:`ColumnTrace.insts` materializes the object
list lazily for consumers that want records (fixed-trace digests, analysis
code, tests), and :meth:`ColumnTrace.from_insts` builds the columns from a
``DynInst`` list (the kernel tracer, hand-written streams).
"""

from __future__ import annotations

from array import array
from functools import partial
from itertools import pairwise
from typing import Iterator, Mapping, Sequence

from repro.isa.inst import (
    KIND_BRANCH,
    KIND_LOAD,
    KIND_OTHER,
    KIND_STORE,
    NO_PRODUCER,
    DynInst,
    Signature,
    TraceMeta,
)
from repro.isa.ops import ISSUE_CLASS_BY_OP, LATENCY_BY_OP, OpClass

#: Fixed-width per-instruction columns: ``(name, narrow typecode, wide
#: typecode)``.  ``seq`` is implicit (dense ``0..n-1``) and never stored.
#: Columns are kept in the narrow typecode when every value fits and
#: silently widen otherwise; consumers read the typecode off the array.
INST_COLUMNS: tuple[tuple[str, str, str], ...] = (
    ("pc", "I", "Q"),
    ("op", "B", "B"),
    ("dst_reg", "i", "q"),
    ("addr", "I", "Q"),
    ("size", "B", "B"),
    ("store_value", "Q", "Q"),
    ("store_data_seq", "i", "q"),
    ("taken", "B", "B"),
    ("base_seq", "i", "q"),
    ("offset", "i", "q"),
)

#: KIND_* code per ``int(OpClass)``.
KIND_BY_OP: tuple[int, ...] = tuple(
    KIND_LOAD
    if op is OpClass.LOAD
    else KIND_STORE
    if op is OpClass.STORE
    else KIND_BRANCH
    if op is OpClass.BRANCH
    else KIND_OTHER
    for op in OpClass
)

_MEM_KINDS = (KIND_LOAD, KIND_STORE)

#: Byte-translation tables mapping the (one-byte) op column to the derived
#: meta columns in a single C-level pass.  Shared by :meth:`ColumnTrace.meta`
#: and the trace codec's wire-compatibility columns.
KIND_TABLE = bytes(KIND_BY_OP[i] if i < len(KIND_BY_OP) else 0 for i in range(256))
LATENCY_TABLE = bytes(
    LATENCY_BY_OP[i] if i < len(LATENCY_BY_OP) else 0 for i in range(256)
)
ISSUE_TABLE = bytes(
    ISSUE_CLASS_BY_OP[i] if i < len(ISSUE_CLASS_BY_OP) else 0 for i in range(256)
)


def _signatures(
    kind: list[int], base_seq: list[int], offset: array, size: list[int]
) -> list[Signature | None]:
    """The register-integration signature per seq (``TraceMeta.signature``)."""
    mem = _MEM_KINDS
    return [
        (b, o, s) if k in mem and b != NO_PRODUCER else None
        for k, b, o, s in zip(kind, base_seq, offset.tolist(), size)
    ]


def _shared(column: array) -> list[int]:
    """``column`` as a list holding one int object per distinct value.

    The array is boxed item by item, so no unshared copy is ever whole."""
    share = {}.setdefault
    return list(map(share, column, column))


def narrowest_array(values, narrow: str, wide: str) -> array:
    """An :mod:`array` of ``values`` in ``narrow`` form, widened on overflow."""
    if narrow != wide:
        try:
            return array(narrow, values)
        except OverflowError:
            pass
    return array(wide, values)


class HotColumns:
    """Plain-list views of the per-instruction columns for hot loops.

    Typed arrays box a fresh int object on every subscript; the processor's
    dispatch loop indexes these columns once per dispatched instruction
    (re-dispatches included), so a one-time ``tolist()`` conversion --
    shared by every machine configuration replaying the trace -- keeps the
    sim core at object-path speed.  ``srcs`` holds the CSR slices as tuples
    and ``taken`` is pre-converted to ``bool``.  ``srcs``, ``base_seq`` and
    ``store_data_seq`` share one int object per producer seq, so a seq
    named by several consumers is boxed once, not once per mention.  ``pc``,
    ``addr`` and ``srcs`` hold one object per distinct value (a loop's pcs
    and a working set's addresses repeat; so do operand tuples): at 120k
    gcc insts that is 3.6k pc ints instead of 120k.  ``store_value`` is
    not shared: its values are nearly all distinct.
    """

    __slots__ = (
        "pc",
        "dst_reg",
        "addr",
        "size",
        "store_value",
        "store_data_seq",
        "base_seq",
        "taken",
        "srcs",
    )


class ColumnTrace:
    """A program-ordered dynamic instruction stream in columnar form.

    Attributes:
        name: Workload name (benchmark profile or kernel).
        initial_memory: Word-granularity initial memory image
            (4-byte-aligned address -> 32-bit value); absent words read 0.

    One typed array per :data:`INST_COLUMNS` entry plus the
    ``src_offsets``/``src_flat`` CSR pair hold the instructions; ``seq`` is
    implicit (dense ``0..n-1``).  Iteration and indexing go through the
    ``DynInst`` view.
    """

    __slots__ = (
        "name",
        "initial_memory",
        "pc",
        "op",
        "dst_reg",
        "addr",
        "size",
        "store_value",
        "store_data_seq",
        "taken",
        "base_seq",
        "offset",
        "src_offsets",
        "src_flat",
        "_meta",
        "_hot",
        "_golden_loads",
        "_insts",
    )

    def __init__(
        self,
        name: str,
        columns: Mapping[str, array],
        initial_memory: dict[int, int] | None = None,
    ) -> None:
        self.name = name
        n = len(columns["pc"])
        for col_name, _, _ in INST_COLUMNS:
            col = columns[col_name]
            if len(col) != n:
                raise ValueError(
                    f"column {col_name!r} has {len(col)} items, expected {n}"
                )
            setattr(self, col_name, col)
        src_offsets = columns["src_offsets"]
        src_flat = columns["src_flat"]
        if len(src_offsets) != n + 1:
            raise ValueError(
                f"src_offsets has {len(src_offsets)} items, expected {n + 1}"
            )
        if n and src_offsets[n] > len(src_flat):
            raise ValueError("src_offsets reach past src_flat")
        self.src_offsets = src_offsets
        self.src_flat = src_flat
        self.initial_memory = {} if initial_memory is None else initial_memory
        self._meta: TraceMeta | None = None
        self._hot: HotColumns | None = None
        self._golden_loads: dict[int, int] | None = None
        self._insts: list[DynInst] | None = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_lists(
        cls,
        name: str,
        columns: Mapping[str, Sequence[int]],
        initial_memory: dict[int, int] | None = None,
    ) -> "ColumnTrace":
        """Adopt plain-list columns (the generator's output), narrowing each."""
        arrays: dict[str, array] = {
            col_name: narrowest_array(columns[col_name], narrow, wide)
            for col_name, narrow, wide in INST_COLUMNS
        }
        arrays["src_offsets"] = narrowest_array(columns["src_offsets"], "I", "Q")
        arrays["src_flat"] = narrowest_array(columns["src_flat"], "i", "q")
        return cls(name, arrays, initial_memory)

    @classmethod
    def from_insts(
        cls,
        name: str,
        insts: Sequence[DynInst],
        initial_memory: dict[int, int] | None = None,
    ) -> "ColumnTrace":
        """Columnize a ``DynInst`` list (kernels, hand-written streams).

        Raises ``ValueError`` unless ``insts[i].seq == i``: the columns
        store no seq, so a non-dense numbering cannot be represented.
        """
        for i, inst in enumerate(insts):
            if inst.seq != i:
                raise ValueError(f"inst {i} has seq {inst.seq}")
        columns: dict[str, list[int]] = {
            col_name: [getattr(inst, col_name) for inst in insts]
            for col_name, _, _ in INST_COLUMNS
        }
        src_offsets = [0]
        src_flat: list[int] = []
        for inst in insts:
            src_flat.extend(inst.src_seqs)
            src_offsets.append(len(src_flat))
        columns["src_offsets"] = src_offsets
        columns["src_flat"] = src_flat
        return cls.from_lists(name, columns, initial_memory)

    # -- protocol ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.pc)

    def meta(self) -> TraceMeta:
        """Per-instruction metadata derived from the columns, built once.

        ``kind``/``latency``/``issue_class`` are pure functions of the op
        column; ``words`` and ``signature`` are built from :meth:`hot`'s
        lists, so their tuples share those lists' int objects -- no
        ``DynInst`` is materialized.  ``words`` holds one tuple per distinct
        word set, as :class:`HotColumns` holds one int per distinct
        address.  ``signature`` is built on first read (only register
        integration reads it).
        """
        if self._meta is None:
            hot = self.hot()
            op_bytes = self.op.tobytes()
            kind = list(op_bytes.translate(KIND_TABLE))
            mem = _MEM_KINDS
            share = {}.setdefault
            words: list[tuple[int, ...]] = [
                share((w := (a,) if s <= 4 else (a, a + 4)), w) if k in mem else ()
                for k, a, s in zip(kind, hot.addr, hot.size)
            ]
            self._meta = TraceMeta(
                kind=kind,
                latency=list(op_bytes.translate(LATENCY_TABLE)),
                issue_class=list(op_bytes.translate(ISSUE_TABLE)),
                words=words,
                # A partial over the columns, not a closure over ``self``:
                # a reference cycle would keep a dropped trace alive until
                # the next full garbage collection.
                signature=partial(_signatures, kind, hot.base_seq, self.offset, hot.size),
            )
        return self._meta

    def hot(self) -> HotColumns:
        """List views of the dispatch-time columns (cached, shared by all
        configurations replaying this trace).

        Producer seqs are :data:`NO_PRODUCER` or an earlier seq, as
        :meth:`validate` requires; each is looked up in one shared list
        of seq ints (whose last item, index ``NO_PRODUCER``, is
        ``NO_PRODUCER`` itself).  ``pc``, ``addr`` and ``srcs`` keep the
        first object of each distinct value."""
        if self._hot is None:
            seqs = list(range(len(self.pc)))
            seqs.append(NO_PRODUCER)
            seq_of = seqs.__getitem__
            hot = HotColumns()
            hot.pc = _shared(self.pc)
            hot.dst_reg = self.dst_reg.tolist()
            hot.addr = _shared(self.addr)
            hot.size = self.size.tolist()
            hot.store_value = self.store_value.tolist()
            hot.store_data_seq = list(map(seq_of, self.store_data_seq.tolist()))
            hot.base_seq = list(map(seq_of, self.base_seq.tolist()))
            hot.taken = list(map(bool, self.taken.tolist()))
            flat = tuple(map(seq_of, self.src_flat.tolist()))
            share = {}.setdefault
            hot.srcs = [
                share((t := flat[a:b]), t) for a, b in pairwise(self.src_offsets)
            ]
            self._hot = hot
        return self._hot

    def golden_loads(self) -> dict[int, int]:
        """Each load's architecturally-correct value, keyed by seq (the
        ``load_values`` of :func:`~repro.isa.golden.golden_execute`),
        computed once and shared by every validating configuration that
        replays this trace."""
        if self._golden_loads is None:
            from repro.isa.golden import golden_execute

            self._golden_loads = golden_execute(self).load_values
        return self._golden_loads

    # -- DynInst view ---------------------------------------------------------

    @property
    def insts(self) -> list[DynInst]:
        """Lazily-materialized ``DynInst`` list (``insts[i].seq == i``)."""
        if self._insts is None:
            n = len(self.pc)
            ops = tuple(OpClass)
            hot = self.hot()
            self._insts = list(
                map(
                    DynInst,
                    range(n),
                    hot.pc,
                    [ops[code] for code in self.op],
                    hot.srcs,
                    hot.dst_reg,
                    hot.addr,
                    hot.size,
                    hot.store_value,
                    hot.store_data_seq,
                    hot.taken,
                    hot.base_seq,
                    list(self.offset),
                )
            )
        return self._insts

    def __iter__(self) -> Iterator[DynInst]:
        return iter(self.insts)

    def __getitem__(self, i: int) -> DynInst:
        return self.insts[i]

    # -- invariants / statistics ---------------------------------------------

    def validate(self) -> None:
        """Check internal consistency; raises ``ValueError`` on violation.

        Invariants: producers strictly precede consumers; memory ops have
        aligned addresses and sane sizes; and address generation is
        register-consistent -- two memory ops with the same (base producer,
        offset) compute the same address, which is what register-integration
        signatures rely on.  Dense seq numbering is structural here (and
        checked by :meth:`from_insts`).

        Runs after every generation, so the columns are flattened to lists
        once (C-speed) and walked in a single fused pass.
        """
        ops = self.op.tolist()
        base = self.base_seq.tolist()
        offset = self.offset.tolist()
        addr = self.addr.tolist()
        size = self.size.tolist()
        flat = self.src_flat.tolist()
        offsets = self.src_offsets.tolist()
        load, store = int(OpClass.LOAD), int(OpClass.STORE)
        signatures: dict[tuple[int, int], int] = {}
        setdefault = signatures.setdefault
        j = 0
        for i, code in enumerate(ops):
            end = offsets[i + 1]
            while j < end:
                src = flat[j]
                if src < 0 or src >= i:
                    raise ValueError(f"inst {i} consumes future/invalid producer {src}")
                j += 1
            b = base[i]
            if b != NO_PRODUCER and not 0 <= b < i:
                raise ValueError(f"inst {i} has invalid base producer {b}")
            if code == load or code == store:
                s = size[i]
                a = addr[i]
                if s != 8:
                    if s != 4:
                        raise ValueError(f"mem inst {i} has size {s}")
                    if a % 4 != 0:
                        raise ValueError(f"mem inst {i} unaligned addr {a:#x}")
                elif a % 8 != 0:
                    if a % 4 != 0:
                        raise ValueError(f"mem inst {i} unaligned addr {a:#x}")
                    raise ValueError(f"mem inst {i} unaligned 8B addr {a:#x}")
                if b != NO_PRODUCER:
                    key = (b, offset[i])
                    previous = setdefault(key, a)
                    if previous != a:
                        raise ValueError(
                            f"mem inst {i}: signature {key} maps to both "
                            f"{previous:#x} and {a:#x}"
                        )

    def stats(self) -> dict[str, float]:
        """Aggregate mix statistics (fractions of the dynamic stream)."""
        counts = [0] * len(OpClass)
        for code in self.op:
            counts[code] += 1
        total = max(1, len(self.op))
        return {
            "insts": float(total),
            "load_frac": counts[int(OpClass.LOAD)] / total,
            "store_frac": counts[int(OpClass.STORE)] / total,
            "branch_frac": counts[int(OpClass.BRANCH)] / total,
        }
