"""Redundant load elimination by register integration (section 2.4).

- :mod:`repro.rle.integration` -- the integration table (IT) that detects
  *load reuse* (two loads performing the same operation on the same
  register inputs) and *speculative memory bypassing* (a load reading what
  an older store just wrote through the same address computation).

Eliminated loads never execute: they take their value at rename, occupy an
empty LQ entry, and must re-execute before commit to detect *false
eliminations* -- an unaccounted-for intervening store.  This gives RLE a
natural re-execution filter (only eliminated loads re-execute), but at a
25-40% elimination rate that filter still yields a substantial
re-execution stream, which is where SVW comes in (section 3.4).
"""
