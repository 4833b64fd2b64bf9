"""Load-store unit variants (paper section 2, Figure 2).

- :mod:`repro.lsu.base` -- the interface and shared forwarding helpers.
- :mod:`repro.lsu.conventional` -- associative SQ + associative LQ baseline
  (Figure 2a): full store-load forwarding, LQ search at store resolution.
- :mod:`repro.lsu.nlq` -- non-associative LQ (Figure 2b): forwarding as in
  the baseline, but ordering enforcement moves to pre-commit re-execution;
  the scheduler marks loads that issue past unresolved older stores.
- :mod:`repro.lsu.ssq` -- speculative SQ (Figure 2c): a large
  non-associative retirement queue plus a small forwarding queue (FSQ)
  reached through a steering predictor, with per-bank best-effort
  forwarding buffers; *every* load is marked.
"""
