"""Dynamic-instruction IR, static programs, and the golden functional model.

The timing simulator (:mod:`repro.pipeline`) and every load optimization it
hosts operate on *dynamic instruction records* (:class:`~repro.isa.inst.DynInst`)
rather than on an encoded machine ISA.  This mirrors what the paper's
mechanisms actually observe: operation class, register dataflow, PCs,
effective addresses, access sizes, and store values.

Four layers live here:

- :mod:`repro.isa.ops` -- operation classes and their execution latencies.
- :mod:`repro.isa.inst` -- the :class:`DynInst` record and the per-trace
  :class:`~repro.isa.inst.TraceMeta` tables.
- :mod:`repro.isa.coltrace` -- :class:`ColumnTrace`, the one trace type
  (flat per-field arrays; ``DynInst`` records are a lazy view), shared by
  the generator, the kernel tracer, the codec, and the simulator core.
- :mod:`repro.isa.program` / :mod:`repro.isa.golden` -- a small assembler for
  register-level kernel programs and a functional executor that both produces
  dynamic traces from them and defines architecturally-correct results for
  end-to-end verification.
"""
