"""The unified workload registry: one spec union, one resolver, one key.

Every subsystem that consumes workloads -- :class:`ExperimentSpec`
builders, the :class:`~repro.experiments.traces.TraceProvider`, the CLI's
``--benchmarks`` and ``--workloads`` flags, the differential fuzzer -- resolves what it was
given through :func:`resolve_workload` into a single
:class:`WorkloadSpec` union covering every registered workload form:

========== =================================================================
profile     a stationary :class:`~repro.workloads.profile.WorkloadProfile`
            (SPEC2000 look-alikes; the original and still-default form)
phased      a :class:`~repro.workloads.phased.PhasedWorkload` composing
            profiles into static/dynamic/oscillating/scan-storm phases
mutated     a profile or phased base plus a
            :class:`~repro.workloads.mutate.TraceMutation` (the fuzzer's
            form: fully content-addressed, regenerable on any worker)
fixed       an in-memory trace object (kernels, hand-built streams),
            built in process with :meth:`WorkloadSpec.from_trace`
========== =================================================================

The first three are *persistable*: pure functions of their spec, safe to
regenerate anywhere and to cache on disk under :func:`workload_key`.
A fixed trace carries its instruction stream and never ships over the
campaign wire.

Content addressing is stable by construction: a key is a pure function
of the spec, the budget and :data:`~repro.fingerprint.TRACE_EPOCH`, so a
generator change that bumps the epoch rolls every key over at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro import fingerprint
from repro.fingerprint import stable_digest
from repro.isa.coltrace import ColumnTrace
from repro.workloads.phased import PHASED_CATALOG, PhasedWorkload, generate_phased_trace
from repro.workloads.profile import WorkloadProfile
from repro.workloads.spec2000 import SPEC2000_PROFILES, SPEC_SHORT_NAMES, spec_profile
from repro.workloads.trace_cache import trace_key

# The synthetic generator and the mutator are imported where a trace is
# built or a mutation decoded: naming, keying and shipping a workload --
# all a worker agent does with one -- never loads them or numpy.
if TYPE_CHECKING:
    from repro.workloads.mutate import TraceMutation


def _trace_digest(trace: ColumnTrace) -> str:
    """Content digest of a fixed trace's dynamic instruction stream."""
    insts = [
        (
            inst.seq,
            inst.pc,
            int(inst.op),
            inst.src_seqs,
            inst.dst_reg,
            inst.addr,
            inst.size,
            inst.store_value,
            inst.store_data_seq,
            inst.taken,
            inst.base_seq,
            inst.offset,
        )
        for inst in trace.insts
    ]
    return stable_digest(
        {
            "name": trace.name,
            "insts": insts,
            "initial_memory": sorted(trace.initial_memory.items()),
        }
    )


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """One workload of a sweep: the registry's union type.

    Exactly one *base* is set -- ``profile``, ``phased``, or ``trace``.
    ``mutation`` layers a deterministic trace mutation over a regenerable
    base (profile or phased).

    Regenerable workloads rebuild their trace deterministically from the
    spec wherever they run, which is what makes cells picklable and
    cacheable without shipping instruction streams around.  Fixed-trace
    workloads carry the trace itself; its content digest -- not the
    unpicklable/unstable object identity -- stands in for it in hashing,
    equality, and fingerprints.
    """

    name: str
    profile: WorkloadProfile | None = None
    trace: ColumnTrace | None = field(default=None, compare=False)
    trace_digest: str | None = None
    phased: PhasedWorkload | None = None
    mutation: TraceMutation | None = None

    def __post_init__(self) -> None:
        bases = sum(
            x is not None for x in (self.profile, self.phased, self.trace)
        )
        if bases != 1:
            raise ValueError(
                f"workload {self.name!r} needs exactly one of profile, "
                f"phased, or trace"
            )
        if self.mutation is not None:
            if self.trace is not None:
                raise ValueError(
                    f"workload {self.name!r}: mutations apply to regenerable "
                    "bases (profile or phased), not fixed traces"
                )
            self.mutation.validate()
        if self.trace is not None and self.trace_digest is None:
            object.__setattr__(self, "trace_digest", _trace_digest(self.trace))

    @classmethod
    def from_name(cls, name: str) -> "WorkloadSpec":
        """A SPEC2000 workload by full or short benchmark name."""
        profile = spec_profile(name)
        return cls(name=profile.name, profile=profile)

    @classmethod
    def from_profile(cls, profile: WorkloadProfile) -> "WorkloadSpec":
        return cls(name=profile.name, profile=profile)

    @classmethod
    def from_phased(cls, phased: PhasedWorkload) -> "WorkloadSpec":
        phased.validate()
        return cls(name=phased.name, phased=phased)

    @classmethod
    def from_trace(cls, name: str, trace: ColumnTrace) -> "WorkloadSpec":
        return cls(name=name, trace=trace)

    def mutated(self, mutation: TraceMutation) -> "WorkloadSpec":
        """This workload with ``mutation`` layered on (fuzzer cells)."""
        return WorkloadSpec(
            name=f"{self.name}+mut{mutation.fingerprint()[:8]}",
            profile=self.profile,
            phased=self.phased,
            mutation=mutation,
        )

    @property
    def persistable(self) -> bool:
        """Whether the workload is a pure function of its spec -- safe to
        regenerate anywhere and to persist in content-addressed caches."""
        return self.trace is None

    def fingerprint(self) -> str:
        """Stable digest of the workload's dynamic instruction stream."""
        if self.mutation is not None:
            return stable_digest(
                {"base": self._base_fingerprint(), "mutation": self.mutation.to_dict()}
            )
        return self._base_fingerprint()

    def _base_fingerprint(self) -> str:
        if self.profile is not None:
            return self.profile.fingerprint()
        if self.phased is not None:
            return self.phased.fingerprint()
        assert self.trace_digest is not None
        return self.trace_digest

    def to_payload(self) -> dict[str, object]:
        """JSON-safe wire form (campaign submissions); regenerable only.

        A fixed workload would need its instruction stream shipped
        alongside the JSON; until a campaign trace-upload path
        exists it is rejected loudly rather than silently dropped.
        Plain profile workloads keep the exact historical payload shape
        (campaign fingerprints are derived from it).
        """
        if self.trace is not None:
            raise ValueError(
                f"workload {self.name!r} is a fixed trace; campaign "
                "submissions carry regenerable workloads only"
            )
        payload: dict[str, object] = {"name": self.name}
        if self.profile is not None:
            payload["profile"] = self.profile.to_dict()
        else:
            assert self.phased is not None
            payload["phased"] = self.phased.to_dict()
        if self.mutation is not None:
            payload["mutation"] = self.mutation.to_dict()
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "WorkloadSpec":
        profile = payload.get("profile")
        phased = payload.get("phased")
        if not isinstance(profile, dict) and not isinstance(phased, dict):
            raise ValueError("workload payload has no profile or phased object")
        mutation = payload.get("mutation")
        if isinstance(mutation, dict):
            from repro.workloads.mutate import TraceMutation

            mutation = TraceMutation.from_dict(dict(mutation))
        else:
            mutation = None
        return cls(
            name=str(payload["name"]),
            profile=WorkloadProfile.from_dict(profile)
            if isinstance(profile, dict)
            else None,
            phased=PhasedWorkload.from_dict(phased)
            if isinstance(phased, dict)
            else None,
            mutation=mutation,
        )

    def materialize(
        self, n_insts: int, seed: int | None = None
    ) -> ColumnTrace:
        """The trace to simulate (generated, or as-is for fixed traces).
        ``seed`` overrides the base's own seed
        for regenerable workloads; it must be ``None`` for fixed traces."""
        if self.trace is not None:
            if seed is not None:
                raise ValueError(f"workload {self.name!r} is a fixed trace")
            return self.trace
        if self.profile is not None:
            from repro.workloads.synthetic import generate_trace as generate_profile_trace

            base = generate_profile_trace(self.profile, n_insts, seed=seed)
        else:
            assert self.phased is not None
            base = generate_phased_trace(self.phased, n_insts, seed=seed)
        if self.mutation is not None:
            from repro.workloads.mutate import apply_mutation

            return apply_mutation(base, self.mutation)
        return base


def workload_key(workload: WorkloadSpec, n_insts: int) -> str:
    """Content identity of a workload's materialized trace within a sweep.

    Plain profile workloads key as :func:`trace_key` does
    (``{fingerprint}-s{seed}-n{n}``); every other form derives an equally
    self-describing key from its spec fingerprint.  Every key ends in
    ``-e{TRACE_EPOCH}``.
    """
    if workload.profile is not None and workload.mutation is None:
        return trace_key(workload.profile, n_insts)
    if workload.mutation is not None:
        key = f"{workload.fingerprint()}-n{n_insts}"
    elif workload.phased is not None:
        key = f"{workload.fingerprint()}-s{workload.phased.seed}-n{n_insts}"
    else:
        key = f"{workload.fingerprint()}-fixed"
    return f"{key}-e{fingerprint.TRACE_EPOCH}"


def resolve_workload(
    ref: "str | WorkloadSpec | WorkloadProfile | PhasedWorkload",
) -> WorkloadSpec:
    """The registry's single entrypoint: anything workload-shaped in,
    one :class:`WorkloadSpec` out.

    A string is a :data:`~repro.workloads.phased.PHASED_CATALOG` name or a
    SPEC2000 benchmark name (full or short).  Resolution is a pure
    function of the reference, so any process resolving the same
    reference gets a spec with the same fingerprint and key.
    """
    if isinstance(ref, WorkloadSpec):
        return ref
    if isinstance(ref, WorkloadProfile):
        return WorkloadSpec.from_profile(ref)
    if isinstance(ref, PhasedWorkload):
        return WorkloadSpec.from_phased(ref)
    if not isinstance(ref, str):
        raise TypeError(f"cannot resolve workload reference {ref!r}")
    if ref in PHASED_CATALOG:
        return WorkloadSpec.from_phased(PHASED_CATALOG[ref])
    if ref in SPEC2000_PROFILES or ref in set(SPEC_SHORT_NAMES.values()):
        return WorkloadSpec.from_name(ref)
    known = sorted(SPEC2000_PROFILES) + sorted(PHASED_CATALOG)
    raise ValueError(f"unknown workload {ref!r}; known names: {', '.join(known)}")


def generate_trace(
    workload: "str | WorkloadSpec | WorkloadProfile | PhasedWorkload",
    n_insts: int,
    seed: int | None = None,
) -> ColumnTrace:
    """Normalized trace generation over the whole registry union.

    Accepts anything :func:`resolve_workload` does.  Passing a plain
    :class:`WorkloadProfile` positionally is the historical signature and
    behaves identically (the profile's own seed applies when ``seed`` is
    None), so existing call sites and the v2 goldens are untouched.
    """
    return resolve_workload(workload).materialize(n_insts, seed=seed)
