"""Cycle-driven out-of-order superscalar timing model.

This is the substrate the paper's evaluation runs on (section 4): a
superscalar processor with register renaming, out-of-order issue,
aggressive branch prediction, a two-level memory system, store-sets
memory-dependence prediction, and an in-order pre-commit *re-execution
pipeline* sharing the data-cache read/write port with store retirement
(Figure 1).

Entry points:

- :class:`~repro.pipeline.config.MachineConfig` plus the factory helpers
  :func:`~repro.pipeline.config.eight_wide` /
  :func:`~repro.pipeline.config.four_wide`;
- :class:`~repro.pipeline.processor.Processor` -- construct with a config
  and a trace, call :meth:`run`, receive
  :class:`~repro.pipeline.stats.SimStats`.
"""
