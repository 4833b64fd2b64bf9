"""Phase-structured synthetic workloads: profiles composed over time.

A :class:`WorkloadProfile` is *stationary*: every statistical property of
the stream is constant over the whole trace.  Real programs are not --
their hot sets drift, oscillate between loop nests, and get interrupted
by scan storms (GC sweeps, memcpy bursts) that evict everything.  The
``capsa`` trace-generator taxonomy names these shapes (static / dynamic /
oscillating hot sets, scan interleavings); this module expresses them as
a :class:`PhasedWorkload`: an ordered composition of ordinary profiles,
each generating one *segment* of the final trace through the epoch-v2
block sampler.

Phased traces are ordinary :class:`~repro.isa.coltrace.ColumnTrace`
streams: segments are generated independently (each from its own derived
seed) and concatenated by shifting every producer reference -- register
sources, base-address producers and store-data producers -- by the running
row offset.  Cross-segment dataflow is deliberately absent (a phase change
behaves like a call into fresh code), which keeps the
``validate()`` invariants compositional: producers stay strictly earlier,
and signature keys ``(base_seq, offset)`` cannot collide across segments
because base producers live in disjoint seq ranges.

Determinism matches the stationary generator: a phased trace is a pure
function of ``(PhasedWorkload, n_insts, seed)``, with per-segment seeds
derived by integer/CRC arithmetic (never ``hash()``), so golden stats
fingerprints pin phased identity exactly like the v2 goldens do.
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass

from repro.fingerprint import stable_digest
from repro.isa.coltrace import INST_COLUMNS, ColumnTrace
from repro.isa.inst import NO_PRODUCER
from repro.workloads.profile import WorkloadProfile
from repro.workloads.spec2000 import spec_profile

#: The phase-structure taxonomy (capsa's WorkloadType, adapted):
#: ``static`` -- one stationary hot set (the degenerate single-phase case,
#: kept in the taxonomy so sweeps can report it alongside the others);
#: ``dynamic`` -- the hot set migrates monotonically across phases;
#: ``oscillating`` -- phases alternate cyclically (``repeat`` cycles);
#: ``scan-storm`` -- normal phases interrupted by streaming scan bursts.
PHASE_KINDS = ("static", "dynamic", "oscillating", "scan-storm")


@dataclass(frozen=True, slots=True)
class PhasedWorkload:
    """An ordered, weighted composition of profiles into one trace.

    ``phases`` holds ``(profile, weight)`` pairs; the instruction budget is
    split proportionally to weight over the expanded phase sequence (the
    ``phases`` tuple cycled ``repeat`` times), with every segment getting
    at least one instruction.
    """

    name: str
    kind: str
    phases: tuple[tuple[WorkloadProfile, float], ...]
    seed: int = 0
    #: Number of times the phase sequence cycles (oscillation/storm period).
    repeat: int = 1

    def validate(self) -> None:
        if self.kind not in PHASE_KINDS:
            raise ValueError(f"{self.name}: unknown phase kind {self.kind!r}")
        if not self.phases:
            raise ValueError(f"{self.name}: needs at least one phase")
        if self.repeat < 1:
            raise ValueError(f"{self.name}: repeat must be >= 1")
        for profile, weight in self.phases:
            if weight <= 0:
                raise ValueError(f"{self.name}: phase weight {weight} must be > 0")
            profile.validate()

    def segments(self) -> list[tuple[WorkloadProfile, float]]:
        """The expanded (cycled) phase sequence the budget is split over."""
        return list(self.phases) * self.repeat

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly form; round-trips through :meth:`from_dict`."""
        return {
            "name": self.name,
            "kind": self.kind,
            "phases": [
                {"profile": profile.to_dict(), "weight": weight}
                for profile, weight in self.phases
            ],
            "seed": self.seed,
            "repeat": self.repeat,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "PhasedWorkload":
        phases = payload.get("phases")
        if not isinstance(phases, list):
            raise ValueError("phased payload has no phases list")
        return cls(
            name=str(payload["name"]),
            kind=str(payload["kind"]),
            phases=tuple(
                (WorkloadProfile.from_dict(dict(p["profile"])), float(p["weight"]))
                for p in phases
            ),
            seed=int(payload.get("seed", 0)),  # type: ignore[call-overload]
            repeat=int(payload.get("repeat", 1)),  # type: ignore[call-overload]
        )

    def fingerprint(self) -> str:
        """Stable digest of everything that affects the generated stream.

        Per-phase profile *fingerprints* stand in for the profiles (they
        already exclude prose ``notes``), so two phased workloads with the
        same structure over equivalent profiles digest identically.
        """
        return stable_digest(
            {
                "name": self.name,
                "kind": self.kind,
                "seed": self.seed,
                "repeat": self.repeat,
                "phases": [
                    [profile.fingerprint(), weight] for profile, weight in self.phases
                ],
            }
        )


def _segment_seed(seed: int, index: int, profile: WorkloadProfile) -> int:
    """Deterministic per-segment generator seed (CRC mixing, no hash())."""
    tag = f"svw-phase:{index}:{profile.name}".encode()
    return ((seed * 0x9E3779B1) ^ zlib.crc32(tag)) & 0xFFFF_FFFF


def split_budget(weights: list[float], n_insts: int) -> list[int]:
    """Split ``n_insts`` proportionally to ``weights`` (largest-remainder),
    guaranteeing every segment at least one instruction."""
    count = len(weights)
    if n_insts < count:
        raise ValueError(f"n_insts={n_insts} cannot cover {count} phase segments")
    total = sum(weights)
    raw = [n_insts * w / total for w in weights]
    out = [max(1, int(r)) for r in raw]
    # Largest-remainder distribution of whatever the floors left over;
    # deficits (out below the fractional target) are topped up first, and
    # any excess (from the at-least-one floor) is shaved off the most
    # over-allocated segments without ever dropping one below 1.
    leftover = n_insts - sum(out)
    if leftover > 0:
        order = sorted(range(count), key=lambda i: (out[i] - raw[i], i))
        for k in range(leftover):
            out[order[k % count]] += 1
    while leftover < 0:
        order = sorted(range(count), key=lambda i: (raw[i] - out[i], i))
        for i in order:
            if leftover == 0:
                break
            if out[i] > 1:
                out[i] -= 1
                leftover += 1
    return out


def generate_phased_trace(
    phased: PhasedWorkload, n_insts: int, seed: int | None = None
) -> ColumnTrace:
    """Generate a deterministic epoch-v2 trace for a phased workload.

    Each segment runs the stationary v2 generator on its own derived seed;
    columns are concatenated with producer references (``src_flat``,
    ``base_seq``, ``store_data_seq``) shifted by the running row offset.
    The result revalidates the full column invariants.
    """
    # Imported here so that naming or keying a phased workload never
    # loads the generator (and numpy).
    from repro.workloads.synthetic import generate_trace

    phased.validate()
    if n_insts <= 0:
        raise ValueError("n_insts must be positive")
    base_seed = phased.seed if seed is None else seed
    segments = phased.segments()
    budgets = split_budget([weight for _, weight in segments], n_insts)

    columns: dict[str, list[int]] = {name: [] for name, _, _ in INST_COLUMNS}
    src_offsets: list[int] = [0]
    src_flat: list[int] = []
    initial_memory: dict[int, int] = {}
    row_base = 0
    for index, ((profile, _), budget) in enumerate(zip(segments, budgets)):
        segment = generate_trace(
            profile, budget, seed=_segment_seed(base_seed, index, profile)
        )
        for name, _, _ in INST_COLUMNS:
            col = getattr(segment, name)
            if name in ("base_seq", "store_data_seq"):
                columns[name].extend(
                    v if v == NO_PRODUCER else v + row_base for v in col
                )
            else:
                columns[name].extend(col)
        flat_base = len(src_flat)
        src_flat.extend(v + row_base for v in segment.src_flat)
        src_offsets.extend(v + flat_base for v in list(segment.src_offsets)[1:])
        initial_memory.update(segment.initial_memory)
        row_base += len(segment)
    columns["src_offsets"] = src_offsets
    columns["src_flat"] = src_flat
    trace = ColumnTrace.from_lists(phased.name, columns, initial_memory=initial_memory)
    trace.validate()
    return trace


def _phase(base: str, name: str, **overrides: object) -> WorkloadProfile:
    """A catalog phase: a SPEC2000 profile with targeted overrides."""
    profile = dataclasses.replace(spec_profile(base), name=name, **overrides)
    profile.validate()
    return profile


def _catalog() -> dict[str, PhasedWorkload]:
    """The built-in phase-structured workload classes, one per taxonomy kind.

    All are derived from SPEC2000 profiles so their stationary statistics
    stay in the tuned range; the overrides move only the knobs that define
    the phase structure (hot-set size/placement and the region mix).
    """
    hot_static = PhasedWorkload(
        name="hot-static",
        kind="static",
        phases=(
            (
                _phase(
                    "gcc",
                    "hot-static/p0",
                    global_frac=0.55,
                    stack_frac=0.25,
                    stream_frac=0.05,
                    global_words=64,
                    heap_bytes=1 << 12,
                ),
                1.0,
            ),
        ),
        seed=101,
    )
    # Hot set migrates: small-and-tight -> medium -> large-and-cold.
    hot_dynamic = PhasedWorkload(
        name="hot-dynamic",
        kind="dynamic",
        phases=(
            (
                _phase(
                    "gcc",
                    "hot-dynamic/small",
                    global_frac=0.50,
                    global_words=32,
                    heap_bytes=1 << 12,
                ),
                1.0,
            ),
            (
                _phase(
                    "vortex",
                    "hot-dynamic/medium",
                    global_frac=0.35,
                    global_words=256,
                    heap_bytes=1 << 15,
                ),
                1.0,
            ),
            (
                _phase(
                    "mcf",
                    "hot-dynamic/large",
                    global_frac=0.15,
                    global_words=1024,
                    heap_bytes=1 << 18,
                ),
                1.0,
            ),
        ),
        seed=211,
    )
    # Two loop nests traded cyclically (A B A B A B).
    hot_oscillating = PhasedWorkload(
        name="hot-oscillating",
        kind="oscillating",
        phases=(
            (
                _phase(
                    "twolf",
                    "hot-oscillating/a",
                    global_frac=0.45,
                    global_words=64,
                    heap_bytes=1 << 13,
                ),
                1.0,
            ),
            (
                _phase(
                    "vpr.route",
                    "hot-oscillating/b",
                    global_frac=0.20,
                    stack_frac=0.15,
                    heap_bytes=1 << 16,
                ),
                1.0,
            ),
        ),
        seed=307,
        repeat=3,
    )
    # Ordinary phases interrupted by streaming scan bursts that sweep a
    # large footprint (GC/memcpy-style storms; short but destructive).
    scan_storm = PhasedWorkload(
        name="scan-storm",
        kind="scan-storm",
        phases=(
            (_phase("gcc", "scan-storm/steady"), 3.0),
            (
                _phase(
                    "bzip2",
                    "scan-storm/burst",
                    stream_frac=0.70,
                    stack_frac=0.10,
                    global_frac=0.10,
                    heap_bytes=1 << 18,
                    stream_stride=8,
                ),
                1.0,
            ),
        ),
        seed=401,
        repeat=2,
    )
    return {
        workload.name: workload
        for workload in (hot_static, hot_dynamic, hot_oscillating, scan_storm)
    }


#: Built-in phase-structured workloads by name (one per taxonomy kind).
PHASED_CATALOG: dict[str, PhasedWorkload] = _catalog()
