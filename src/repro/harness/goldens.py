"""The golden table (``svw-repro goldens``): every pinned fingerprint.

``tests/goldens.json`` maps each cell of :func:`golden_cells` to its
fingerprint and is stamped with the ``TRACE_EPOCH`` it was computed
under.  The cells reuse the configurations the system already runs
(:func:`~repro.experiments.fuzz.fuzz_matrix`,
:func:`~repro.harness.bench.bench_configs` and the fig5-7 configurations
of :mod:`repro.harness.configs`), so there is no second config matrix.
A fingerprint moves only through a deliberate epoch bump: bump
``TRACE_EPOCH``, run ``svw-repro goldens``, review the table diff.
"""

from __future__ import annotations

import functools
from typing import Callable

from repro.experiments.fuzz import fuzz_matrix
from repro.harness.bench import BENCH_INSTS, BENCH_WORKLOADS, bench_configs
from repro.harness.configs import fig5_configs, fig6_configs, fig7_configs
from repro.pipeline.processor import Processor
from repro.workloads.kernels import kernel_trace
from repro.workloads.phased import PHASED_CATALOG, generate_phased_trace
from repro.workloads.registry import WorkloadSpec
from repro.workloads.spec2000 import spec_profile
from repro.workloads.synthetic import TRACE_EPOCH, generate_trace

#: Default output of ``svw-repro goldens`` (relative to the repo root).
GOLDENS_PATH = "tests/goldens.json"

#: The figures whose every configuration is pinned on the v2 gcc trace.
FIGURE_CONFIGS = {"fig5": fig5_configs, "fig6": fig6_configs, "fig7": fig7_configs}


def _simulate(config, trace, warmup=0, validate=False, skip_ahead=True) -> str:
    processor = Processor(
        config, trace(), validate=validate, warmup=warmup, skip_ahead=skip_ahead
    )
    return processor.run().fingerprint()


def golden_cells() -> dict[str, Callable[..., str]]:
    """Row key -> a thunk computing that row's fingerprint.

    Simulation thunks take ``skip_ahead`` (default on); each trace is
    built on first use and shared by the rows of one call.
    """
    fuzz = fuzz_matrix()
    bench = bench_configs()
    cells: dict[str, Callable[..., str]] = {}
    # The stationary v2 generator: the base fuzz matrix on gcc.
    gcc = functools.cache(lambda: generate_trace(spec_profile("gcc"), 6000))
    for name, config in fuzz.items():
        if "+" not in name:
            cells[f"v2/gcc/{name}"] = functools.partial(
                _simulate, config, gcc, warmup=500
            )
    # The paper's figures: every fig5-7 configuration on the same trace.
    for figure, configs in FIGURE_CONFIGS.items():
        for name, config in configs().items():
            cells[f"fig/gcc/{figure}/{name}"] = functools.partial(
                _simulate, config, gcc, warmup=500
            )
    # The phase composer: each catalog class on three fuzz cells.
    for phased_name, phased in PHASED_CATALOG.items():
        trace = functools.cache(functools.partial(generate_phased_trace, phased, 4000))
        for lsu, cell in [
            ("conventional", "conventional/none"),
            ("nlq", "nlq/reexecute"),
            ("ssq", "ssq/reexecute"),
        ]:
            cells[f"phased/{phased_name}/{lsu}"] = functools.partial(
                _simulate, fuzz[cell].derive(lsu), trace, warmup=500
            )
    # The kernel tracer, checked against golden execution.
    spill_fill = functools.cache(lambda: kernel_trace("spill_fill"))
    for lsu, (_, config) in bench.items():
        cells[f"kernel/spill_fill/{lsu}"] = functools.partial(
            _simulate, config, spill_fill, validate=True
        )
    # The `svw-repro bench` matrix, the cells BENCH_core.json times.
    for workload in BENCH_WORKLOADS:
        trace = functools.cache(
            functools.partial(generate_trace, spec_profile(workload), BENCH_INSTS)
        )
        for lsu, (_, config) in bench.items():
            cells[f"core/{workload}/{lsu}"] = functools.partial(_simulate, config, trace)
    # A fixed-trace WorkloadSpec, whose fingerprint keys the result store.
    cells["spec/spill_fill"] = lambda: WorkloadSpec.from_trace(
        "k", kernel_trace("spill_fill", n_frames=5)
    ).fingerprint()
    return cells


def build_table() -> dict:
    """The golden table as this code computes it."""
    cells = golden_cells()
    return {
        "trace_epoch": TRACE_EPOCH,
        "rows": {key: cells[key]() for key in sorted(cells)},
    }


def render_table(table: dict) -> str:
    return f"golden table: {len(table['rows'])} rows at trace_epoch {table['trace_epoch']}"
