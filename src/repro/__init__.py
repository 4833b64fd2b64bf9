"""Reproduction of Roth, "Store Vulnerability Window (SVW): Re-Execution
Filtering for Enhanced Load Optimization" (ISCA 2005).

Quickstart::

    from repro import Processor, eight_wide, spec_profile, generate_trace
    from repro.core.svw import SVWConfig
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

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.svw import SVWConfig, SVWEngine
    from repro.experiments.run import run_experiment
    from repro.experiments.spec import ExperimentSpec, matrix_spec
    from repro.isa.coltrace import ColumnTrace
    from repro.isa.inst import DynInst
    from repro.pipeline.config import MachineConfig, RexMode, eight_wide, four_wide
    from repro.pipeline.processor import Processor
    from repro.pipeline.stats import SimStats
    from repro.workloads.kernels import kernel_trace
    from repro.workloads.registry import generate_trace
    from repro.workloads.spec2000 import spec_profile

__version__ = "1.4.0"

# Each name is imported from its defining module on first use, so
# ``import repro`` (which every ``repro.*`` import runs first) loads no
# subsystem.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.svw": ("SVWConfig", "SVWEngine"),
        "repro.experiments.run": ("run_experiment",),
        "repro.experiments.spec": ("ExperimentSpec", "matrix_spec"),
        "repro.isa.coltrace": ("ColumnTrace",),
        "repro.isa.inst": ("DynInst",),
        "repro.pipeline.config": ("MachineConfig", "RexMode", "eight_wide", "four_wide"),
        "repro.pipeline.processor": ("Processor",),
        "repro.pipeline.stats": ("SimStats",),
        "repro.workloads.kernels": ("kernel_trace",),
        "repro.workloads.registry": ("generate_trace",),
        "repro.workloads.spec2000": ("spec_profile",),
    },
)

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
