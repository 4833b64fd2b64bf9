"""Run an :class:`~repro.experiments.spec.ExperimentSpec` to a result.

The one entry point every driver, benchmark, and CLI path funnels through:

1. expand the spec into its cells,
2. satisfy what it can from the :class:`~repro.experiments.store.ResultStore`,
3. hand the remainder to the backend (serial or a worker fleet),
4. persist fresh results and assemble the :class:`FigureResult` in spec
   order -- never in completion order.

A warm store satisfies every cell in step 2, so a repeated sweep performs
zero :meth:`~repro.pipeline.processor.Processor.run` calls.
"""

from __future__ import annotations

from repro.experiments.backends import (
    CellExecutionError,
    ExecutionBackend,
    ProgressFn,
    SerialBackend,
)
from repro.experiments.results import FigureResult
from repro.experiments.spec import ExperimentSpec, RunRequest
from repro.experiments.store import ResultStore
from repro.pipeline.stats import SimStats


def run_experiment(
    spec: ExperimentSpec,
    backend: ExecutionBackend | None = None,
    store: ResultStore | None = None,
    progress: ProgressFn | None = None,
) -> FigureResult:
    """Execute every cell of ``spec`` and collect the figure's results."""
    if backend is None:
        backend = SerialBackend()
    requests = spec.cells()
    results: dict[int, SimStats] = {}
    missing: list[tuple[int, RunRequest]] = []
    for index, request in enumerate(requests):
        stats = store.load(request) if store is not None else None
        if stats is None:
            missing.append((index, request))
        else:
            results[index] = stats
            if progress is not None:
                progress(f"{request.describe()} [cached]")
    if missing:
        fresh = backend.run([request for _, request in missing], progress=progress)
        if len(fresh) != len(missing):
            # Results are positionally aligned; zip would silently truncate
            # a short list from a misbehaving (e.g. networked) backend.
            raise CellExecutionError(
                f"backend returned {len(fresh)} results for {len(missing)} cells"
            )
        for (index, request), stats in zip(missing, fresh):
            results[index] = stats
            if store is not None:
                store.save(request, stats)
    figure = FigureResult(
        name=spec.name,
        baseline=spec.baseline,
        config_order=spec.config_order,
        benchmarks=spec.benchmark_names,
    )
    for index, request in enumerate(requests):
        figure.stats.setdefault(request.workload.name, {})[request.config_label] = (
            results[index]
        )
    return figure
