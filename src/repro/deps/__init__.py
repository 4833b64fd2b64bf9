"""Memory-dependence prediction substrate.

- :mod:`repro.deps.storesets` -- the store-sets predictor (Chrysos & Emer,
  ISCA 1998) both machine configurations use to manage load speculation.
- :mod:`repro.deps.spct` -- the store PC table the paper adds so that the
  non-associative LQ can train store-load *pair* predictors: a small
  tagless table, indexed by low-order address bits, holding the PC of the
  last retired store to write each matching address.
"""
