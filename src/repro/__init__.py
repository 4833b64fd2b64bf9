"""Reproduction of Roth, "Store Vulnerability Window (SVW): Re-Execution
Filtering for Enhanced Load Optimization" (ISCA 2005).

Quickstart::

    from repro import Processor, eight_wide, spec_profile, generate_trace
    from repro.core import SVWConfig
    from repro.pipeline.config import LSUKind, RexMode

    trace = generate_trace(spec_profile("gcc"), 30_000)
    config = eight_wide(
        "nlq+svw",
        lsu=LSUKind.NLQ,
        rex_mode=RexMode.REEXECUTE,
        rex_stages=2,
        svw=SVWConfig(),
    )
    stats = Processor(config, trace).run()
    print(stats.summary())

For sweeps, use the experiment API::

    from repro import matrix_spec, run_experiment
    from repro.experiments import BatchRunner
    from repro.harness.configs import fig5_configs

    spec = matrix_spec("fig5", fig5_configs(), ["gcc", "vortex"])
    # Eight local worker processes, bit-identical to the serial default.
    result = run_experiment(spec, backend=BatchRunner(jobs=8))

See :mod:`repro.harness` for the paper's named configurations and the
per-figure experiment drivers, and :mod:`repro.experiments` for backends
(serial, the local worker fleet, remote agents, campaigns) and the
on-disk result cache.
"""

from repro.core import SVWConfig, SVWEngine
from repro.experiments import ExperimentSpec, matrix_spec, run_experiment
from repro.isa import ColumnTrace, DynInst
from repro.pipeline import MachineConfig, Processor, RexMode, SimStats, eight_wide, four_wide
from repro.workloads import generate_trace, kernel_trace, spec_profile

__version__ = "1.1.0"

__all__ = [
    "ColumnTrace",
    "DynInst",
    "ExperimentSpec",
    "MachineConfig",
    "Processor",
    "RexMode",
    "SVWConfig",
    "SVWEngine",
    "SimStats",
    "__version__",
    "eight_wide",
    "four_wide",
    "generate_trace",
    "kernel_trace",
    "matrix_spec",
    "run_experiment",
    "spec_profile",
]
