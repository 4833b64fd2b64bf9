"""Workload substrate: synthetic SPEC2000int-like traces and real kernels.

The paper evaluates on the SPEC2000 integer suite compiled for Alpha.  That
toolchain is unavailable here, so this package substitutes stand-ins (the
README's *Workloads* section lists every workload class):

- :mod:`repro.workloads.profile` / :mod:`repro.workloads.spec2000` --
  parameterised statistical models of the 16 benchmark runs the paper uses
  (bzip2 .. vpr.route), tuned to reproduce the memory-reference structure
  the studied mechanisms are sensitive to.
- :mod:`repro.workloads.synthetic` -- the generator that turns a profile
  into a deterministic dynamic trace.
- :mod:`repro.workloads.phased` -- phase-structured workloads composing
  profiles into static/dynamic/oscillating hot sets and scan storms.
- :mod:`repro.workloads.registry` -- the unified :class:`WorkloadSpec`
  union with :func:`resolve_workload` / :func:`workload_key` content
  addressing; ``generate_trace`` re-exported here is the registry's
  normalized form (a plain profile passed positionally behaves exactly
  as the historical signature did).
- :mod:`repro.workloads.mutate` -- deterministic trace mutations for the
  differential fuzzer.
- :mod:`repro.workloads.ingest` -- validated, content-addressed ingestion
  of external trace files.
- :mod:`repro.workloads.kernels` -- real algorithmic kernels written for the
  toy ISA, used by examples and end-to-end correctness tests.
"""

from repro.workloads.ingest import IngestStore
from repro.workloads.kernels import KERNELS, kernel_trace
from repro.workloads.mutate import MutationOp, TraceMutation, apply_mutation
from repro.workloads.phased import (
    PHASED_CATALOG,
    PhasedWorkload,
    generate_phased_trace,
)
from repro.workloads.profile import WorkloadProfile
from repro.workloads.registry import (
    WorkloadSpec,
    generate_trace,
    resolve_workload,
    workload_key,
)
from repro.workloads.spec2000 import SPEC2000_PROFILES, spec_profile

__all__ = [
    "KERNELS",
    "MutationOp",
    "PHASED_CATALOG",
    "PhasedWorkload",
    "IngestStore",
    "SPEC2000_PROFILES",
    "TraceMutation",
    "WorkloadProfile",
    "WorkloadSpec",
    "apply_mutation",
    "generate_phased_trace",
    "generate_trace",
    "kernel_trace",
    "resolve_workload",
    "spec_profile",
    "workload_key",
]
