"""Sweep results: per-cell statistics plus figure-level derived metrics.

:class:`FigureResult` is the in-memory result of one sweep and serializes:
``to_dict``/``from_dict`` round-trip losslessly through JSON, so results
survive process exit and can feed dashboards or later analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.pipeline.stats import SimStats, speedup


@dataclass(slots=True)
class FigureResult:
    """Results of one figure's sweep.

    ``stats[benchmark][config]`` holds the run's statistics; ``baseline``
    names the config speedups are measured against.
    """

    name: str
    baseline: str
    config_order: list[str]
    benchmarks: list[str]
    stats: dict[str, dict[str, SimStats]] = field(default_factory=dict)

    def reexec_rate(self, benchmark: str, config: str) -> float:
        return self.stats[benchmark][config].reexec_rate

    def speedup_pct(self, benchmark: str, config: str) -> float:
        return speedup(self.stats[benchmark][self.baseline], self.stats[benchmark][config])

    def average(self, metric: Callable[[str, str], float], config: str) -> float:
        values = [metric(benchmark, config) for benchmark in self.benchmarks]
        return sum(values) / len(values) if values else 0.0

    def avg_reexec_rate(self, config: str) -> float:
        return self.average(self.reexec_rate, config)

    def avg_speedup_pct(self, config: str) -> float:
        return self.average(self.speedup_pct, config)

    def max_reexec_rate(self, config: str) -> tuple[str, float]:
        best = max(self.benchmarks, key=lambda b: self.reexec_rate(b, config))
        return best, self.reexec_rate(best, config)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly form; round-trips through :meth:`from_dict`."""
        return {
            "name": self.name,
            "baseline": self.baseline,
            "config_order": list(self.config_order),
            "benchmarks": list(self.benchmarks),
            "stats": {
                benchmark: {
                    config: stats.to_dict() for config, stats in per_config.items()
                }
                for benchmark, per_config in self.stats.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "FigureResult":
        """Inverse of :meth:`to_dict`.

        Malformed payloads (missing keys, wrong shapes, non-dict input --
        anything a truncated or hand-edited snapshot file could contain)
        raise a single clean :class:`ValueError` naming the problem,
        instead of leaking shape-dependent ``KeyError``/``AttributeError``
        internals to the caller.
        """
        try:
            return cls(
                name=payload["name"],  # type: ignore[arg-type]
                baseline=payload["baseline"],  # type: ignore[arg-type]
                config_order=list(payload["config_order"]),  # type: ignore[arg-type]
                benchmarks=list(payload["benchmarks"]),  # type: ignore[arg-type]
                stats={
                    benchmark: {
                        config: SimStats.from_dict(stats)
                        for config, stats in per_config.items()
                    }
                    for benchmark, per_config in payload["stats"].items()  # type: ignore[union-attr]
                },
            )
        except ValueError:
            raise
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(
                f"malformed FigureResult payload: {type(exc).__name__}: {exc}"
            ) from exc
