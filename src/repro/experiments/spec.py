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

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.fingerprint import stable_digest
from repro.isa.coltrace import ColumnTrace
from repro.pipeline.config import MachineConfig
from repro.workloads.phased import PhasedWorkload
from repro.workloads.profile import WorkloadProfile
from repro.workloads.registry import (  # noqa: F401  (re-exported API)
    WorkloadSpec,
    _trace_digest,
    resolve_workload,
)
from repro.workloads.spec2000 import SPEC_ORDER, SPEC_SHORT_NAMES

#: Default instruction budget per (config, workload) run.  The paper uses
#: 10M-instruction samples; rates and relative IPCs stabilize far earlier
#: on synthetic workloads (see DESIGN.md).
DEFAULT_INSTS = 30_000

#: Bump when the meaning of a run-request fingerprint changes (e.g. a new
#: field starts affecting simulation results): stale cache entries must
#: stop matching.
FINGERPRINT_VERSION = 1


def resolve_benchmarks(benchmarks: Iterable[str] | None) -> list[str]:
    """Expand None to the full SPEC2000int suite; accept short names."""
    if benchmarks is None:
        return list(SPEC_ORDER)
    short_to_full = {short: full for full, short in SPEC_SHORT_NAMES.items()}
    return [short_to_full.get(name, name) for name in benchmarks]


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
        workload share the cached result.
        """
        return stable_digest(
            {
                "version": FINGERPRINT_VERSION,
                "config": self.config.fingerprint(),
                "workload": self.workload.fingerprint(),
                "n_insts": self.n_insts,
                "warmup": self.warmup,
                "validate": self.validate,
            }
        )

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
    :class:`ExperimentBuilder` or :func:`matrix_spec`.
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

    def to_payload(self) -> dict[str, object]:
        """JSON-safe wire form of the whole sweep (``svw-repro submit``)."""
        return {
            "name": self.name,
            "configs": [
                [label, config.to_dict()] for label, config in self.configs
            ],
            "workloads": [workload.to_payload() for workload in self.workloads],
            "n_insts": self.n_insts,
            "warmup": self.warmup,
            "baseline": self.baseline,
            "validate": self.validate,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "ExperimentSpec":
        configs = payload.get("configs")
        workloads = payload.get("workloads")
        if not isinstance(configs, list) or not isinstance(workloads, list):
            raise ValueError("experiment payload needs configs and workloads lists")
        warmup = payload.get("warmup")
        return cls(
            name=str(payload["name"]),
            configs=tuple(
                (str(label), MachineConfig.from_dict(config))
                for label, config in configs
            ),
            workloads=tuple(WorkloadSpec.from_payload(w) for w in workloads),
            n_insts=int(payload["n_insts"]),  # type: ignore[call-overload]
            warmup=None if warmup is None else int(warmup),  # type: ignore[call-overload]
            baseline=str(payload.get("baseline", "baseline")),
            validate=bool(payload.get("validate", False)),
        )


class ExperimentBuilder:
    """Fluent constructor for :class:`ExperimentSpec`.

    Example::

        spec = (
            ExperimentBuilder("fig5")
            .configs(fig5_configs())
            .workloads(["gcc", "vortex"])
            .insts(30_000)
            .build()
        )
    """

    def __init__(self, name: str) -> None:
        self._name = name
        self._configs: list[tuple[str, MachineConfig]] = []
        self._workloads: list[WorkloadSpec] = []
        self._n_insts = DEFAULT_INSTS
        self._warmup: int | None = None
        self._baseline = "baseline"
        self._validate = False

    def config(self, label: str, config: MachineConfig) -> "ExperimentBuilder":
        self._configs.append((label, config))
        return self

    def configs(self, configs: Mapping[str, MachineConfig]) -> "ExperimentBuilder":
        for label, config in configs.items():
            self.config(label, config)
        return self

    def workload(
        self, workload: str | WorkloadProfile | PhasedWorkload | WorkloadSpec
    ) -> "ExperimentBuilder":
        # Everything workload-shaped funnels through the registry, so
        # phased-catalog names and ingest references work wherever a
        # benchmark name does.
        self._workloads.append(resolve_workload(workload))
        return self

    def workloads(
        self,
        workloads: Iterable[str | WorkloadProfile | PhasedWorkload | WorkloadSpec]
        | None,
    ) -> "ExperimentBuilder":
        """Add workloads; ``None`` adds the full SPEC2000int suite."""
        if workloads is None:
            workloads = resolve_benchmarks(None)
        for workload in workloads:
            self.workload(workload)
        return self

    def trace(self, name: str, trace: ColumnTrace) -> "ExperimentBuilder":
        self._workloads.append(WorkloadSpec.from_trace(name, trace))
        return self

    def insts(self, n_insts: int) -> "ExperimentBuilder":
        self._n_insts = n_insts
        return self

    def warmup(self, warmup: int | None) -> "ExperimentBuilder":
        self._warmup = warmup
        return self

    def baseline(self, label: str) -> "ExperimentBuilder":
        self._baseline = label
        return self

    def validated(self, validate: bool = True) -> "ExperimentBuilder":
        self._validate = validate
        return self

    def build(self) -> ExperimentSpec:
        return ExperimentSpec(
            name=self._name,
            configs=tuple(self._configs),
            workloads=tuple(self._workloads),
            n_insts=self._n_insts,
            warmup=self._warmup,
            baseline=self._baseline,
            validate=self._validate,
        )


def matrix_spec(
    name: str,
    configs: Mapping[str, MachineConfig],
    benchmarks: Iterable[str] | None = None,
    n_insts: int = DEFAULT_INSTS,
    baseline: str = "baseline",
    validate: bool = False,
    traces: Mapping[str, ColumnTrace] | None = None,
    warmup: int | None = None,
) -> ExperimentSpec:
    """Spec for a classic config x benchmark matrix (the figure-sweep shape).

    ``traces`` injects pre-built traces (e.g. kernels) keyed by name; other
    benchmarks resolve to SPEC2000 profiles.
    """
    builder = (
        ExperimentBuilder(name)
        .configs(configs)
        .insts(n_insts)
        .warmup(warmup)
        .baseline(baseline)
        .validated(validate)
    )
    for benchmark in resolve_benchmarks(benchmarks):
        if traces is not None and benchmark in traces:
            builder.trace(benchmark, traces[benchmark])
        else:
            builder.workload(benchmark)
    return builder.build()
