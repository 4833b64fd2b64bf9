"""Memory system substrate: functional memory image, caches, hierarchy.

The paper's machine has 32KB 2-way 2-cycle L1 caches, a 2MB 8-way 15-cycle
L2, and 150-cycle memory, with a 2-way bank-interleaved L1D (two load ports)
plus a single store-retire/re-execute read-write port.  This package models
both the *functional* state (what values live where) and the *timing* state
(hit/miss latency, bank and port structural hazards).
"""
