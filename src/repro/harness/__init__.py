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

from repro.experiments.results import FigureResult
from repro.harness.configs import (
    fig5_configs,
    fig6_configs,
    fig7_configs,
    fig8_ssbf_variants,
)
from repro.harness.figures import (
    figure5,
    figure6,
    figure7,
    figure8,
    spec_updates_experiment,
    ssn_width_experiment,
)

__all__ = [
    "FigureResult",
    "fig5_configs",
    "fig6_configs",
    "fig7_configs",
    "fig8_ssbf_variants",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "spec_updates_experiment",
    "ssn_width_experiment",
]
