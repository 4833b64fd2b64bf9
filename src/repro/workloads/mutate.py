"""Differential-fuzzing trace mutations (semantics-preserving by design).

Each :class:`MutationOp` perturbs one axis the paper's re-execution
machinery is sensitive to, while keeping the trace *valid* -- every
mutation preserves the :meth:`~repro.isa.coltrace.ColumnTrace.validate`
invariants, and because :func:`~repro.isa.golden.golden_execute` is purely
self-consistent (stores write the trace's ``store_value``, loads read the
functional memory), any valid mutated trace still has well-defined golden
semantics.  A correct simulator therefore commits golden values on *any*
mutated trace; a divergence flagged by the fuzzer is a simulator bug, not
a malformed input.

The axes:

``alias``
    Remap a fraction of memory accesses onto a tiny shared address pool
    (a dedicated, generator-untouched slice of the heap region).  This
    manufactures dense same-address store/store/load chains -- forwarding
    from stale suppliers, SSBF conflict pressure, memory-ordering
    violations -- far beyond what stationary profiles produce.
``wrap``
    Convert a fraction of branches into extra stores (to the pool),
    inflating SSN allocation pressure so narrow-``ssn_bits``
    configurations hit wraparound drains mid-trace.
``sizemix``
    Flip access sizes (8B -> 4B freely; 4B -> 8B where alignment allows),
    exercising sub-quadword forwarding and SSBF granularity corners.
``storeset``
    Collapse memory-access PCs onto a few shared static sites, mistraining
    every PC-indexed predictor (store sets, FSQ steering, RLE tables).

Address-signature safety: the generator's convention for ambiguous /
address-computed accesses is ``offset == addr`` (the full address *is*
the offset), so a remapped row sets ``offset = new_addr`` and the
``(base_seq, offset) -> addr`` map stays one-to-one -- any pre-existing
key equal to ``(b, new_addr)`` necessarily already mapped to ``new_addr``.
The pool lives at ``HEAP_BASE + 8MiB``, beyond any generated heap/stream
offset, so no un-mutated row can collide with it.

Determinism: every op draws from its own ``numpy`` PCG64 stream seeded by
integer/CRC arithmetic over ``(op.seed, op.kind)`` -- same op, same
choices, on any platform.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.fingerprint import stable_digest
from repro.isa.coltrace import ColumnTrace
from repro.isa.inst import NO_PRODUCER
from repro.isa.ops import OpClass
from repro.workloads.synthetic import HEAP_BASE, _PC_LOAD, _PC_STORE

MUTATION_KINDS = ("alias", "wrap", "sizemix", "storeset")

#: Shared-address pool: 8-aligned, in a heap slice the generator never
#: reaches (generated heap offsets are bounded by ``heap_bytes`` << 8MiB).
POOL_BASE = HEAP_BASE + (1 << 23)
POOL_SLOTS = 6

_OP_LOAD = int(OpClass.LOAD)
_OP_STORE = int(OpClass.STORE)
_OP_BRANCH = int(OpClass.BRANCH)


@dataclass(frozen=True, slots=True)
class MutationOp:
    """One mutation pass: ``kind`` applied to ``rate`` of eligible rows."""

    kind: str
    rate: float
    seed: int

    def validate(self) -> None:
        if self.kind not in MUTATION_KINDS:
            raise ValueError(f"unknown mutation kind {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"mutation rate {self.rate} out of [0,1]")

    def to_dict(self) -> dict[str, object]:
        return {"kind": self.kind, "rate": self.rate, "seed": self.seed}

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "MutationOp":
        return cls(
            kind=str(payload["kind"]),
            rate=float(payload["rate"]),  # type: ignore[arg-type]
            seed=int(payload["seed"]),  # type: ignore[call-overload]
        )


@dataclass(frozen=True, slots=True)
class TraceMutation:
    """An ordered sequence of mutation ops applied to one base trace."""

    ops: tuple[MutationOp, ...]

    def validate(self) -> None:
        if not self.ops:
            raise ValueError("a TraceMutation needs at least one op")
        for op in self.ops:
            op.validate()

    def to_dict(self) -> dict[str, object]:
        return {"ops": [op.to_dict() for op in self.ops]}

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "TraceMutation":
        ops = payload.get("ops")
        if not isinstance(ops, list):
            raise ValueError("mutation payload has no ops list")
        return cls(ops=tuple(MutationOp.from_dict(dict(op)) for op in ops))

    def fingerprint(self) -> str:
        return stable_digest(self.to_dict())

    def describe(self) -> str:
        return "+".join(f"{op.kind}@{op.rate:g}#{op.seed}" for op in self.ops)


def _rng(op: MutationOp) -> np.random.Generator:
    entropy = (op.seed ^ zlib.crc32(f"svw-mut:{op.kind}".encode())) & 0xFFFF_FFFF
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _chosen(rng: np.random.Generator, eligible: np.ndarray, rate: float) -> np.ndarray:
    """Deterministically chosen row indices: ``rate`` of ``eligible``."""
    if not len(eligible):
        return eligible
    return eligible[rng.random(len(eligible)) < rate]


class _Columns:
    """Mutable plain-list working copy of a trace's columns."""

    def __init__(self, trace: ColumnTrace) -> None:
        self.name = trace.name
        self.pc = trace.pc.tolist()
        self.op = trace.op.tolist()
        self.dst_reg = trace.dst_reg.tolist()
        self.addr = trace.addr.tolist()
        self.size = trace.size.tolist()
        self.store_value = trace.store_value.tolist()
        self.store_data_seq = trace.store_data_seq.tolist()
        self.taken = trace.taken.tolist()
        self.base_seq = trace.base_seq.tolist()
        self.offset = trace.offset.tolist()
        self.src_offsets = trace.src_offsets.tolist()
        self.src_flat = trace.src_flat.tolist()
        self.initial_memory = dict(trace.initial_memory)

    def rebuild(self, name: str) -> ColumnTrace:
        trace = ColumnTrace.from_lists(
            name,
            {
                "pc": self.pc,
                "op": self.op,
                "dst_reg": self.dst_reg,
                "addr": self.addr,
                "size": self.size,
                "store_value": self.store_value,
                "store_data_seq": self.store_data_seq,
                "taken": self.taken,
                "base_seq": self.base_seq,
                "offset": self.offset,
                "src_offsets": self.src_offsets,
                "src_flat": self.src_flat,
            },
            initial_memory=self.initial_memory,
        )
        trace.validate()
        return trace


def _mem_rows(cols: _Columns) -> np.ndarray:
    ops = np.asarray(cols.op)
    return np.flatnonzero((ops == _OP_LOAD) | (ops == _OP_STORE))


def _apply_alias(cols: _Columns, op: MutationOp) -> None:
    rng = _rng(op)
    rows = _chosen(rng, _mem_rows(cols), op.rate)
    if not len(rows):
        return
    slots = rng.integers(0, POOL_SLOTS, size=len(rows))
    for i, slot in zip(rows.tolist(), slots.tolist()):
        new = POOL_BASE + slot * 8
        cols.addr[i] = new
        # Full-address offsets keep (base_seq, offset) -> addr one-to-one
        # (the generator's own convention for ambiguous/computed accesses).
        cols.offset[i] = new


def _apply_wrap(cols: _Columns, op: MutationOp) -> None:
    rng = _rng(op)
    branches = np.flatnonzero(np.asarray(cols.op) == _OP_BRANCH)
    rows = _chosen(rng, branches, op.rate)
    if not len(rows):
        return
    slots = rng.integers(0, POOL_SLOTS, size=len(rows))
    values = rng.integers(0, 1 << 63, size=len(rows), dtype=np.int64)
    for i, slot, value in zip(rows.tolist(), slots.tolist(), values.tolist()):
        new = POOL_BASE + slot * 8
        cols.op[i] = _OP_STORE
        cols.addr[i] = new
        cols.offset[i] = new
        cols.size[i] = 8
        cols.store_value[i] = int(value)
        cols.store_data_seq[i] = NO_PRODUCER
        cols.taken[i] = 0


def _apply_sizemix(cols: _Columns, op: MutationOp) -> None:
    rng = _rng(op)
    rows = _chosen(rng, _mem_rows(cols), op.rate)
    for i in rows.tolist():
        if cols.size[i] == 8:
            cols.size[i] = 4
        elif cols.addr[i] % 8 == 0:
            cols.size[i] = 8


def _apply_storeset(cols: _Columns, op: MutationOp) -> None:
    rng = _rng(op)
    rows = _chosen(rng, _mem_rows(cols), op.rate)
    if not len(rows):
        return
    sites = rng.integers(0, 4, size=len(rows))
    for i, site in zip(rows.tolist(), sites.tolist()):
        base = _PC_LOAD if cols.op[i] == _OP_LOAD else _PC_STORE
        cols.pc[i] = base + 0xF000 + site * 4


_APPLIERS = {
    "alias": _apply_alias,
    "wrap": _apply_wrap,
    "sizemix": _apply_sizemix,
    "storeset": _apply_storeset,
}


def apply_mutation(trace: ColumnTrace, mutation: TraceMutation) -> ColumnTrace:
    """Apply ``mutation``'s ops in order; returns a new, validated trace.

    The result is named ``<base>+mut<digest8>`` so simulator logs and
    reproducers identify the exact mutation without extra bookkeeping.
    """
    mutation.validate()
    cols = _Columns(trace)
    for op in mutation.ops:
        _APPLIERS[op.kind](cols, op)
    return cols.rebuild(f"{trace.name}+mut{mutation.fingerprint()[:8]}")
