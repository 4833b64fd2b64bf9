"""One driver per table/figure in the paper's evaluation (section 4).

- ``<figure>_spec(...)`` builds the declarative
  :class:`~repro.experiments.spec.ExperimentSpec` for the sweep (every one
  a :func:`~repro.experiments.spec.matrix_spec`) -- hand it to
  :func:`~repro.experiments.run.run_experiment` with any backend/store;
  :data:`EXPERIMENTS` names them all for the CLI;
- ``figure5/6/7(...)`` run their spec immediately and return the
  :class:`~repro.experiments.results.FigureResult`.

Rendering lives in :mod:`repro.harness.report`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable

from repro.core.svw import SVWConfig
from repro.experiments.backends import ExecutionBackend, ProgressFn
from repro.experiments.results import FigureResult
from repro.experiments.run import run_experiment
from repro.experiments.spec import DEFAULT_INSTS, ExperimentSpec, matrix_spec
from repro.experiments.store import ResultStore
from repro.harness.configs import (
    composition_configs,
    fig5_configs,
    fig6_configs,
    fig7_configs,
    fig8_configs,
    spec_updates_configs,
    svw_replacement_configs,
)
from repro.workloads.registry import WorkloadSpec

#: What an experiment runs on: benchmark names, or workloads already
#: resolved; ``None`` is the experiment's default set.
Benchmarks = Iterable[str | WorkloadSpec] | None

#: The benchmark subset Figure 8 uses.
FIG8_BENCHMARKS = ["crafty", "gcc", "perl.diffmail", "vortex", "vpr.route"]


def figure5_spec(
    benchmarks: Benchmarks = None, n_insts: int = DEFAULT_INSTS
) -> ExperimentSpec:
    """Figure 5: NLQ-LS re-execution rate (top) and speedup (bottom)."""
    return matrix_spec("fig5", fig5_configs(), benchmarks, n_insts)


def figure6_spec(
    benchmarks: Benchmarks = None, n_insts: int = DEFAULT_INSTS
) -> ExperimentSpec:
    """Figure 6: SSQ re-execution rate (top) and speedup (bottom)."""
    return matrix_spec("fig6", fig6_configs(), benchmarks, n_insts)


def figure7_spec(
    benchmarks: Benchmarks = None, n_insts: int = DEFAULT_INSTS
) -> ExperimentSpec:
    """Figure 7: RLE re-execution rate (top) and speedup (bottom)."""
    return matrix_spec("fig7", fig7_configs(), benchmarks, n_insts)


def figure8_spec(
    benchmarks: Benchmarks = None, n_insts: int = DEFAULT_INSTS
) -> ExperimentSpec:
    """Figure 8: SSBF organization vs SSQ re-execution rate."""
    if benchmarks is None:
        benchmarks = FIG8_BENCHMARKS
    return matrix_spec("fig8", fig8_configs(), benchmarks, n_insts)


def ssn_width_spec(
    benchmarks: Benchmarks = None,
    n_insts: int = DEFAULT_INSTS,
    widths: Iterable[int | None] = (8, 10, 12, 16, None),
) -> ExperimentSpec:
    """Section 3.6: SSN width vs performance.

    Narrow SSNs force frequent wrap-around drains; the paper reports that
    16-bit SSNs (drains every 64K stores) cost only 0.2% versus
    infinite-width SSNs.
    """
    nlq_svw = fig5_configs()["+SVW+UPD"]
    configs = {"baseline": replace(nlq_svw, name="ssn-infinite", svw=SVWConfig(ssn_bits=None))}
    for bits in widths:
        if bits is None:
            continue
        configs[f"{bits}-bit"] = replace(
            nlq_svw, name=f"ssn-{bits}", svw=SVWConfig(ssn_bits=bits)
        )
    return matrix_spec("ssn_width", configs, benchmarks, n_insts)


def spec_updates_spec(
    benchmarks: Benchmarks = None, n_insts: int = DEFAULT_INSTS
) -> ExperimentSpec:
    """Section 3.6: speculative vs atomic SSBF updates.

    Speculative updates let stores write the SSBF before older loads have
    finished re-executing; squashes then leave stale high SSNs behind,
    causing a small relative increase in re-executions -- the price for
    avoiding elongated serializations.
    """
    return matrix_spec("spec_updates", spec_updates_configs(), benchmarks, n_insts)


def composition_spec(
    benchmarks: Benchmarks = None, n_insts: int = DEFAULT_INSTS
) -> ExperimentSpec:
    """Section 3.5: SSQ + RLE composed, with and without SVW."""
    return matrix_spec("composition", composition_configs(), benchmarks, n_insts)


def svw_replacement_spec(
    benchmarks: Benchmarks = None, n_insts: int = DEFAULT_INSTS
) -> ExperimentSpec:
    """Section 6 future work: SVW as a replacement for re-execution."""
    return matrix_spec("svw_replacement", svw_replacement_configs(), benchmarks, n_insts)


#: Every experiment of the paper's evaluation, by CLI name: the one table
#: behind ``svw-repro <experiment>``, ``all``, and the campaign commands'
#: targets.  Each entry builds the experiment's spec from
#: ``(benchmarks, n_insts)``.
EXPERIMENTS: dict[str, Callable[[Benchmarks, int], ExperimentSpec]] = {
    "fig5": figure5_spec,
    "fig6": figure6_spec,
    "fig7": figure7_spec,
    "fig8": figure8_spec,
    "ssn-width": ssn_width_spec,
    "spec-updates": spec_updates_spec,
    "composition": composition_spec,
    "svw-replacement": svw_replacement_spec,
}


def figure5(
    benchmarks: Benchmarks = None,
    n_insts: int = DEFAULT_INSTS,
    progress: ProgressFn | None = None,
    backend: ExecutionBackend | None = None,
    store: ResultStore | None = None,
) -> FigureResult:
    """Run :func:`figure5_spec` (see its doc for the sweep)."""
    spec = figure5_spec(benchmarks, n_insts)
    return run_experiment(spec, backend=backend, store=store, progress=progress)


def figure6(
    benchmarks: Benchmarks = None,
    n_insts: int = DEFAULT_INSTS,
    progress: ProgressFn | None = None,
    backend: ExecutionBackend | None = None,
    store: ResultStore | None = None,
) -> FigureResult:
    """Run :func:`figure6_spec` (see its doc for the sweep)."""
    spec = figure6_spec(benchmarks, n_insts)
    return run_experiment(spec, backend=backend, store=store, progress=progress)


def figure7(
    benchmarks: Benchmarks = None,
    n_insts: int = DEFAULT_INSTS,
    progress: ProgressFn | None = None,
    backend: ExecutionBackend | None = None,
    store: ResultStore | None = None,
) -> FigureResult:
    """Run :func:`figure7_spec` (see its doc for the sweep)."""
    spec = figure7_spec(benchmarks, n_insts)
    return run_experiment(spec, backend=backend, store=store, progress=progress)
