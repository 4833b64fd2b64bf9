"""The paper's contribution: Store Vulnerability Window re-execution filtering.

Three pieces (paper section 3):

- :mod:`repro.core.ssn` -- monotonic store sequence numbering with the
  finite-width wrap-around drain policy (section 3.6).
- :mod:`repro.core.ssbf` -- the store sequence Bloom filter: a small tagless
  table, indexed by low-order address bits, holding the SSN of the last
  retired store to each matching address.  Several organizations from the
  paper's sensitivity study (Figure 8) are provided.
- :mod:`repro.core.svw` -- the filter engine: the ``+UPD`` window update,
  the re-execution filter test ``SSBF[ld.addr] > ld.SVW``, and the SSBF
  updates of stores and invalidations.
"""
