"""Experiment harness: the paper's named configurations and figure drivers.

- :mod:`repro.harness.configs` -- the machine configurations of Figures 5-8.
- :mod:`repro.harness.figures` -- one spec constructor + driver per
  table/figure (``EXPERIMENTS`` names the spec constructors for the
  CLI); each driver returns a
  :class:`~repro.experiments.results.FigureResult` with the same
  rows/series the paper reports.
- :mod:`repro.harness.paper_data` -- the paper's published numbers
  (text-stated averages, maxima and named data points), used for
  paper-vs-measured reporting.
- :mod:`repro.harness.report` -- ASCII rendering and claim checking.
- :mod:`repro.harness.cli` -- ``svw-repro`` command-line entry point.
"""
