"""Differential re-execution fuzzing over the machine matrix.

The oracle chain (DejaVuzz-style, adapted to a trace-driven simulator):

1. **Golden re-execution** (primary): every cell runs ``validate=True``,
   so each committed load is checked against the trace's golden
   (program-order) semantics inside the simulator; a mismatch raises and
   surfaces as a :class:`~repro.experiments.backends.CellExecutionError`.
   Because every mutation in :mod:`repro.workloads.mutate` preserves
   trace validity, *any* such failure is a simulator bug, not bad input.
2. **Cross-cell agreement** (secondary): all cells of one trial simulate
   the same trace, so their architectural summaries (committed
   instruction/load/store/branch counts) must agree bit-for-bit across
   every LSUKind x RexMode -- timing models may differ, architecture may
   not.

A divergence is reported with a **minimized reproducer**: the mutation is
greedily shrunk op-by-op (re-running only the failing cell) until no op
can be dropped, and the final ``(workload key, seed, mutation spec,
cell)`` tuple regenerates the failure anywhere -- mutated workloads are
regenerable :class:`~repro.workloads.registry.WorkloadSpec` forms, so the
reproducer is pure JSON and runs on any backend, including the campaign
fleet.

Determinism: the whole plan -- base workload, op kinds, rates, op seeds
per trial -- is a pure function of ``(seed, rounds, workloads, n_insts)``
via ``random.Random`` over CRC-mixed integers, and every simulated cell
is deterministic, so two runs with the same arguments produce reports
with identical fingerprints (the ``fuzz-determinism`` test pins this).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.svw import SVWConfig
from repro.experiments.backends import CellExecutionError, FleetLostError, SerialBackend
from repro.experiments.spec import FUZZ_INSTS, RunRequest
from repro.fingerprint import stable_digest
from repro.pipeline.config import LSUKind, MachineConfig, RexMode, eight_wide
from repro.pipeline.stats import SimStats
from repro.workloads.mutate import MUTATION_KINDS, MutationOp, TraceMutation
from repro.workloads.registry import WorkloadSpec, resolve_workload, workload_key

ProgressFn = Callable[[str], None]

#: Default base workloads: forward-heavy profiles (where ``+UPD`` and
#: store-set machinery are busiest) plus a phased workload so the
#: composition path is always under test.
FUZZ_WORKLOADS = ("vortex", "gcc", "mcf", "hot-dynamic")

#: Per-kind mutation-rate ranges the planner draws from.
_RATE_RANGES = {
    "alias": (0.10, 0.40),
    "wrap": (0.10, 0.40),
    "sizemix": (0.05, 0.30),
    "storeset": (0.10, 0.40),
}


def fuzz_matrix() -> dict[str, MachineConfig]:
    """Every LSUKind x RexMode cell, plus narrow-SSN wraparound variants.

    The base ten cells mirror the v2 golden matrix exactly; the two
    ``+wrap8`` cells shrink ``ssn_bits`` so wraparound drains fire many
    times per trial (the ``wrap`` mutation adds the store pressure).
    """
    out: dict[str, MachineConfig] = {}
    for lsu in LSUKind:
        extra = {"load_latency": 2} if lsu is LSUKind.SSQ else {"store_issue": 2}
        for rex in RexMode:
            if rex is RexMode.NONE and lsu is not LSUKind.CONVENTIONAL:
                continue
            name = f"{lsu.value}/{rex.value}"
            kwargs: dict = dict(extra)
            if rex is not RexMode.NONE:
                kwargs.update(rex_mode=rex, rex_stages=2)
            if rex in (RexMode.REEXECUTE, RexMode.SVW_ONLY):
                kwargs["svw"] = SVWConfig()
            out[name] = eight_wide(name.replace("/", "-"), lsu=lsu, **kwargs)
    out["ssq/reexecute+wrap8"] = eight_wide(
        "ssq-reexecute-wrap8",
        lsu=LSUKind.SSQ,
        load_latency=2,
        rex_mode=RexMode.REEXECUTE,
        rex_stages=2,
        svw=SVWConfig(ssn_bits=8),
    )
    out["nlq/svw_only+wrap8"] = eight_wide(
        "nlq-svw_only-wrap8",
        lsu=LSUKind.NLQ,
        store_issue=2,
        rex_mode=RexMode.SVW_ONLY,
        rex_stages=2,
        svw=SVWConfig(ssn_bits=8),
    )
    return out


@dataclass(frozen=True, slots=True)
class FuzzTrial:
    """One planned trial: a base workload plus a mutation to layer on."""

    index: int
    base: str
    mutation: TraceMutation

    def to_dict(self) -> dict[str, object]:
        return {
            "index": self.index,
            "base": self.base,
            "mutation": self.mutation.to_dict(),
        }


@dataclass(slots=True)
class FuzzDivergence:
    """One confirmed divergence with its minimized reproducer."""

    trial: int
    cell: str
    kind: str  # "golden-mismatch" | "crash" | "cross-cell"
    error: str
    reproducer: dict[str, object]

    def to_dict(self) -> dict[str, object]:
        return {
            "trial": self.trial,
            "cell": self.cell,
            "kind": self.kind,
            "error": self.error,
            "reproducer": self.reproducer,
        }


@dataclass(slots=True)
class FuzzReport:
    """Everything one ``svw-repro fuzz`` invocation did and found."""

    seed: int
    rounds: int
    n_insts: int
    workloads: list[str]
    cells: list[str]
    trials: list[FuzzTrial] = field(default_factory=list)
    #: Per-trial, per-cell verdicts: a stats fingerprint or "DIVERGE".
    verdicts: list[dict[str, str]] = field(default_factory=list)
    divergences: list[FuzzDivergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def fingerprint(self) -> str:
        """Stable digest of the full plan and every verdict: two runs of
        the same invocation must produce identical fingerprints."""
        return stable_digest(
            {
                "seed": self.seed,
                "rounds": self.rounds,
                "n_insts": self.n_insts,
                "workloads": self.workloads,
                "cells": self.cells,
                "trials": [trial.to_dict() for trial in self.trials],
                "verdicts": self.verdicts,
            }
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "rounds": self.rounds,
            "n_insts": self.n_insts,
            "workloads": self.workloads,
            "cells": self.cells,
            "trials": [trial.to_dict() for trial in self.trials],
            "verdicts": self.verdicts,
            "divergences": [d.to_dict() for d in self.divergences],
            "ok": self.ok,
            "fingerprint": self.fingerprint(),
        }

    def describe(self) -> str:
        status = "clean" if self.ok else f"{len(self.divergences)} DIVERGENCES"
        return (
            f"fuzz seed={self.seed}: {len(self.trials)} trials x "
            f"{len(self.cells)} cells -> {status}"
        )


def plan_trials(
    seed: int, rounds: int, workloads: Sequence[str], rng_tag: str = "svw-fuzz"
) -> list[FuzzTrial]:
    """The deterministic trial plan (pure function of the arguments).

    Every trial leads with an ``alias`` op -- pool aliasing is what
    manufactures the dense same-address store/store/load chains all the
    interesting machinery (forwarding, SSBF pressure, ordering
    violations) feeds on; without it most trials would exercise nothing.
    Further ops draw from the remaining kinds.
    """
    rng = random.Random((seed ^ zlib.crc32(rng_tag.encode())) & 0xFFFF_FFFF)
    trials = []
    for index in range(rounds):
        base = workloads[rng.randrange(len(workloads))]
        ops = [_plan_op(rng, "alias")]
        extra_kinds = [k for k in MUTATION_KINDS if k != "alias"]
        rng.shuffle(extra_kinds)
        for kind in extra_kinds[: rng.randrange(3)]:
            ops.append(_plan_op(rng, kind))
        trials.append(
            FuzzTrial(index=index, base=base, mutation=TraceMutation(tuple(ops)))
        )
    return trials


def _plan_op(rng: random.Random, kind: str) -> MutationOp:
    lo, hi = _RATE_RANGES[kind]
    return MutationOp(
        kind=kind,
        rate=round(lo + (hi - lo) * rng.random(), 3),
        seed=rng.randrange(1 << 32),
    )


def _requests(
    workload: WorkloadSpec, cells: dict[str, MachineConfig], n_insts: int
) -> list[RunRequest]:
    return [
        RunRequest(
            experiment="fuzz",
            workload=workload,
            config_label=cell,
            config=config,
            n_insts=n_insts,
            warmup=n_insts // 4,
            validate=True,
        )
        for cell, config in cells.items()
    ]


def _arch_summary(stats: SimStats) -> tuple[int, int, int, int]:
    """The architectural (timing-independent) summary cells must agree on."""
    return (
        stats.committed,
        stats.committed_loads,
        stats.committed_stores,
        stats.committed_branches,
    )


def _reproducer(
    trial: FuzzTrial,
    workload: WorkloadSpec,
    mutation: TraceMutation,
    cell: str,
    seed: int,
    n_insts: int,
) -> dict[str, object]:
    reduced = workload.mutated(mutation) if mutation.ops else workload
    return {
        "base": trial.base,
        "workload_key": workload_key(reduced, n_insts),
        "seed": seed,
        "mutation": mutation.to_dict(),
        "cell": cell,
        "n_insts": n_insts,
    }


def _minimize(
    base_spec: WorkloadSpec,
    mutation: TraceMutation,
    cell: str,
    config: MachineConfig,
    n_insts: int,
    backend,
) -> TraceMutation:
    """Greedy op-drop minimization against the single failing cell.

    Keeps removing ops as long as the failure persists; the result is
    1-minimal (no single op can be dropped).  Bounded by
    ``len(ops)**2`` single-cell runs.
    """
    ops = list(mutation.ops)
    changed = True
    while changed and len(ops) > 1:
        changed = False
        for i in range(len(ops)):
            candidate = TraceMutation(tuple(ops[:i] + ops[i + 1 :]))
            request = _requests(
                base_spec.mutated(candidate), {cell: config}, n_insts
            )[0]
            try:
                backend.run([request])
            except FleetLostError:
                raise
            except CellExecutionError:
                ops = list(candidate.ops)  # still fails without op i
                changed = True
                break
    return TraceMutation(tuple(ops))


def run_fuzz(
    seed: int,
    rounds: int = 3,
    workloads: Sequence[str] | None = None,
    n_insts: int = FUZZ_INSTS,
    backend=None,
    progress: ProgressFn | None = None,
) -> FuzzReport:
    """Run a seeded differential-fuzz campaign; returns the full report.

    ``backend`` is any :mod:`~repro.experiments.backends` backend
    (serial, local worker fleet, remote fleet, campaign); cells run one request
    at a time so a failing cell is attributed precisely instead of
    aborting the batch; a lost worker fleet
    (:class:`~repro.experiments.backends.FleetLostError`) fails no cell
    and ends the run.  ``workloads`` are names :func:`resolve_workload`
    resolves (SPEC2000 or phased-catalog); each trial's base is
    regenerable, so every mutated cell is pure JSON and runs on any
    backend.
    """
    if backend is None:
        backend = SerialBackend()
    names = list(workloads) if workloads else list(FUZZ_WORKLOADS)
    cells = fuzz_matrix()
    report = FuzzReport(
        seed=seed,
        rounds=rounds,
        n_insts=n_insts,
        workloads=names,
        cells=sorted(cells),
    )
    report.trials = plan_trials(seed, rounds, names)
    for trial in report.trials:
        base_spec = resolve_workload(trial.base)
        mutated = base_spec.mutated(trial.mutation)
        verdicts: dict[str, str] = {}
        summaries: dict[str, tuple[int, int, int, int]] = {}
        for request in _requests(mutated, cells, n_insts):
            cell = request.config_label
            if progress is not None:
                progress(f"trial {trial.index}: {mutated.name} / {cell}")
            try:
                stats = backend.run([request])[0]
            except FleetLostError:
                raise
            except CellExecutionError as exc:
                verdicts[cell] = "DIVERGE"
                kind = (
                    "golden-mismatch" if "golden value" in str(exc) else "crash"
                )
                minimized = _minimize(
                    base_spec,
                    trial.mutation,
                    cell,
                    request.config,
                    n_insts,
                    backend,
                )
                report.divergences.append(
                    FuzzDivergence(
                        trial=trial.index,
                        cell=cell,
                        kind=kind,
                        error=str(exc),
                        reproducer=_reproducer(
                            trial, base_spec, minimized, cell, seed, n_insts
                        ),
                    )
                )
            else:
                verdicts[cell] = stats.fingerprint()
                summaries[cell] = _arch_summary(stats)
        # Secondary oracle: every successful cell of a trial must commit
        # the same architectural stream.
        if len(set(summaries.values())) > 1:
            counts: dict[tuple[int, int, int, int], int] = {}
            for summary in summaries.values():
                counts[summary] = counts.get(summary, 0) + 1
            majority = max(counts, key=lambda s: counts[s])
            for cell, summary in sorted(summaries.items()):
                if summary == majority:
                    continue
                verdicts[cell] = "DIVERGE"
                report.divergences.append(
                    FuzzDivergence(
                        trial=trial.index,
                        cell=cell,
                        kind="cross-cell",
                        error=(
                            f"architectural summary {summary} disagrees with "
                            f"majority {majority}"
                        ),
                        reproducer=_reproducer(
                            trial, base_spec, trial.mutation, cell, seed, n_insts
                        ),
                    )
                )
        report.verdicts.append(verdicts)
    return report
