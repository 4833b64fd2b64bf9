"""Declarative experiment descriptions.

An :class:`ExperimentSpec` is a pure-data, hashable description of one
sweep: an ordered set of labelled machine configurations crossed with an
ordered set of workloads at a fixed instruction budget.  Specs carry no
execution state -- handing the same spec to any
:mod:`~repro.experiments.backends` backend yields identical results, and
each (config, workload) cell reduces to a :class:`RunRequest` whose
:meth:`~RunRequest.fingerprint` is the cell's identity in the
:class:`~repro.experiments.store.ResultStore`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from repro import fingerprint
from repro.fingerprint import stable_digest
from repro.pipeline.config import MachineConfig
from repro.pipeline.stats import SimStats
from repro.workloads.phased import PhasedWorkload
from repro.workloads.profile import WorkloadProfile
from repro.workloads.registry import WorkloadSpec, resolve_workload
from repro.workloads.spec2000 import SPEC_ORDER

#: Default instruction budget per (config, workload) run.  The paper uses
#: 10M-instruction samples; the stationary synthetic profiles have no
#: program phases to sample, so rates and relative IPCs stabilize far
#: earlier.
DEFAULT_INSTS = 30_000

#: Default instruction budget per differential-fuzz trial
#: (:mod:`repro.experiments.fuzz`): large enough for wrap drains and dense
#: pool conflicts, small enough for tens of cells per round.
FUZZ_INSTS = 6000


@dataclass(frozen=True, slots=True)
class RunRequest:
    """One picklable (config, workload) cell of a sweep."""

    experiment: str
    workload: WorkloadSpec
    config_label: str
    config: MachineConfig
    n_insts: int
    warmup: int
    validate: bool = False

    def describe(self) -> str:
        return f"{self.experiment}: {self.workload.name} / {self.config_label}"

    def fingerprint(self) -> str:
        """Cache identity of this cell's :class:`~repro.pipeline.stats.SimStats`.

        Excludes ``experiment`` and ``config_label`` (display metadata):
        overlapping sweeps that simulate the same machine on the same
        workload share the cached result.  Includes both code epochs of
        :mod:`repro.fingerprint`, so a bump of either misses every cache
        filled before it.
        """
        return stable_digest(
            {
                "model_epoch": fingerprint.MODEL_EPOCH,
                "trace_epoch": fingerprint.TRACE_EPOCH,
                "config": self.config.fingerprint(),
                "workload": self.workload.fingerprint(),
                "n_insts": self.n_insts,
                "warmup": self.warmup,
                "validate": self.validate,
            }
        )

    def stamp(self, stats: SimStats) -> SimStats:
        """``stats`` under this cell's own ``config.name``.

        Configs that differ only in name share a :meth:`fingerprint`, so a
        result read from a store or shared with another cell may carry the
        other config's name; a path that hands out such a result stamps it
        here, as :class:`~repro.experiments.backends.SerialBackend`'s own
        simulation would have named it.
        """
        if stats.config_name == self.config.name:
            return stats
        return replace(stats, config_name=self.config.name)

    def to_payload(self) -> dict[str, object]:
        """JSON-safe wire form; round-trips through :meth:`from_payload`
        with an identical :meth:`fingerprint` (the campaign protocol's
        correctness anchor)."""
        return {
            "experiment": self.experiment,
            "workload": self.workload.to_payload(),
            "config_label": self.config_label,
            "config": self.config.to_dict(),
            "n_insts": self.n_insts,
            "warmup": self.warmup,
            "validate": self.validate,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "RunRequest":
        config = payload.get("config")
        workload = payload.get("workload")
        if not isinstance(config, dict) or not isinstance(workload, dict):
            raise ValueError("run-request payload needs config and workload objects")
        return cls(
            experiment=str(payload["experiment"]),
            workload=WorkloadSpec.from_payload(workload),
            config_label=str(payload["config_label"]),
            config=MachineConfig.from_dict(config),
            n_insts=int(payload["n_insts"]),  # type: ignore[call-overload]
            warmup=int(payload["warmup"]),  # type: ignore[call-overload]
            validate=bool(payload["validate"]),
        )


@dataclass(frozen=True, slots=True)
class ExperimentSpec:
    """Declarative description of one sweep: configs x workloads.

    ``configs`` is an ordered tuple of ``(label, MachineConfig)`` pairs --
    labels are the figure-legend names speedups are reported under and may
    differ from ``MachineConfig.name``.  Build specs with
    :func:`matrix_spec`.
    """

    name: str
    configs: tuple[tuple[str, MachineConfig], ...]
    workloads: tuple[WorkloadSpec, ...]
    n_insts: int = DEFAULT_INSTS
    #: Committed instructions excluded from statistics; ``None`` means a
    #: quarter of the run (the paper's predictor/cache warm-up convention).
    warmup: int | None = None
    baseline: str = "baseline"
    validate: bool = False

    def __post_init__(self) -> None:
        if not self.configs:
            raise ValueError(f"experiment {self.name!r} has no configs")
        if not self.workloads:
            raise ValueError(f"experiment {self.name!r} has no workloads")
        labels = [label for label, _ in self.configs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"experiment {self.name!r} has duplicate config labels")
        names = [workload.name for workload in self.workloads]
        if len(set(names)) != len(names):
            raise ValueError(f"experiment {self.name!r} has duplicate workload names")
        if self.baseline not in labels:
            raise ValueError(
                f"experiment {self.name!r}: baseline {self.baseline!r} is not a config"
            )
        if self.n_insts <= 0:
            raise ValueError("n_insts must be positive")

    @property
    def config_order(self) -> list[str]:
        return [label for label, _ in self.configs]

    @property
    def benchmark_names(self) -> list[str]:
        return [workload.name for workload in self.workloads]

    @property
    def effective_warmup(self) -> int:
        return self.n_insts // 4 if self.warmup is None else self.warmup

    def cells(self) -> list[RunRequest]:
        """All (config, workload) cells in deterministic sweep order."""
        return [
            RunRequest(
                experiment=self.name,
                workload=workload,
                config_label=label,
                config=config,
                n_insts=self.n_insts,
                warmup=self.effective_warmup,
                validate=self.validate,
            )
            for workload in self.workloads
            for label, config in self.configs
        ]

    def fingerprint(self) -> str:
        """Stable digest of the whole sweep (the cells plus their order)."""
        return stable_digest([request.fingerprint() for request in self.cells()])


def matrix_spec(
    name: str,
    configs: Mapping[str, MachineConfig],
    benchmarks: Iterable[str | WorkloadProfile | PhasedWorkload | WorkloadSpec]
    | None = None,
    n_insts: int = DEFAULT_INSTS,
    baseline: str = "baseline",
    validate: bool = False,
    warmup: int | None = None,
) -> ExperimentSpec:
    """The one constructor of an :class:`ExperimentSpec`: ``configs`` (in
    order, keyed by label) crossed with ``benchmarks``.

    ``benchmarks`` takes anything :func:`resolve_workload` resolves --
    full or short SPEC2000 names, phased-catalog names, profiles, phased
    workloads and :class:`WorkloadSpec` objects (a fixed trace is
    ``WorkloadSpec.from_trace(name, trace)``); ``None`` is the full
    SPEC2000int suite.
    """
    return ExperimentSpec(
        name=name,
        configs=tuple(configs.items()),
        workloads=tuple(
            resolve_workload(benchmark)
            for benchmark in (SPEC_ORDER if benchmarks is None else benchmarks)
        ),
        n_insts=n_insts,
        warmup=warmup,
        baseline=baseline,
        validate=validate,
    )
