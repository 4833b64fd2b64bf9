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
  addressing, and ``generate_trace`` over any workload it resolves.
- :mod:`repro.workloads.mutate` -- deterministic trace mutations for the
  differential fuzzer.
- :mod:`repro.workloads.kernels` -- real algorithmic kernels written for the
  toy ISA, used by examples and end-to-end correctness tests.
"""
