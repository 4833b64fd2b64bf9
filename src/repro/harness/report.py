"""ASCII rendering of figure results and paper-claim checking."""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.results import FigureResult
from repro.harness.paper_data import PaperClaim, claims_for
from repro.workloads.spec2000 import SPEC_SHORT_NAMES


def _short(benchmark: str) -> str:
    return SPEC_SHORT_NAMES.get(benchmark, benchmark)


def render_figure(result: FigureResult, metric: str = "both") -> str:
    """Render a figure result as the paper's two panels (rates, speedups).

    ``metric`` is ``"reexec"``, ``"speedup"`` or ``"both"``.
    """
    configs = [c for c in result.config_order if c != result.baseline]
    lines: list[str] = []
    if metric in ("reexec", "both"):
        lines.append(f"== {result.name}: % loads re-executed ==")
        header = f"{'bench':10s}" + "".join(f"{c:>11s}" for c in configs)
        lines.append(header)
        for benchmark in result.benchmarks:
            row = f"{_short(benchmark):10s}"
            for config in configs:
                row += f"{result.reexec_rate(benchmark, config):>10.1%} "
            lines.append(row)
        row = f"{'avg':10s}"
        for config in configs:
            row += f"{result.avg_reexec_rate(config):>10.1%} "
        lines.append(row)
    if metric in ("speedup", "both"):
        lines.append(f"== {result.name}: % speedup vs {result.baseline} ==")
        header = f"{'bench':10s}" + "".join(f"{c:>11s}" for c in configs)
        lines.append(header)
        for benchmark in result.benchmarks:
            row = f"{_short(benchmark):10s}"
            for config in configs:
                row += f"{result.speedup_pct(benchmark, config):>+10.1f} "
            lines.append(row)
        row = f"{'avg':10s}"
        for config in configs:
            row += f"{result.avg_speedup_pct(config):>+10.1f} "
        lines.append(row)
    return "\n".join(lines)


@dataclass(slots=True)
class ClaimCheck:
    """One paper claim compared against a measured value."""

    claim: PaperClaim
    measured: float | None
    note: str = ""

    def render(self) -> str:
        if self.measured is None:
            return f"  [n/a ] {self.claim.config}/{self.claim.scope}: {self.note}"
        direction_ok = (self.claim.value >= 0) == (self.measured >= 0)
        tag = "ok" if direction_ok else "DIFF"
        return (
            f"  [{tag:4s}] {self.claim.config:10s} {self.claim.scope:8s} "
            f"paper={self.claim.value:+.3f} measured={self.measured:+.3f}  "
            f"({self.claim.source})"
        )


def check_claims(result: FigureResult) -> list[ClaimCheck]:
    """Compare a figure result against the paper's stated numbers."""
    checks: list[ClaimCheck] = []
    for claim in claims_for(result.name):
        measured: float | None = None
        note = ""
        config = claim.config
        if config not in result.config_order:
            checks.append(ClaimCheck(claim, None, f"config {config!r} not in sweep"))
            continue
        if claim.metric == "reexec_rate":
            if claim.scope == "avg":
                measured = result.avg_reexec_rate(config)
            elif claim.scope == "max":
                _, measured = result.max_reexec_rate(config)
            elif claim.scope in result.benchmarks:
                measured = result.reexec_rate(claim.scope, config)
            else:
                note = f"benchmark {claim.scope!r} not in sweep"
        elif claim.metric == "speedup_pct":
            if claim.scope == "avg":
                measured = result.avg_speedup_pct(config)
            elif claim.scope == "max":
                measured = max(
                    result.speedup_pct(benchmark, config) for benchmark in result.benchmarks
                )
            elif claim.scope in result.benchmarks:
                measured = result.speedup_pct(claim.scope, config)
            else:
                note = f"benchmark {claim.scope!r} not in sweep"
        else:
            note = f"metric {claim.metric!r} needs a dedicated experiment"
        checks.append(ClaimCheck(claim, measured, note))
    return checks


def render_claims(result: FigureResult) -> str:
    checks = check_claims(result)
    if not checks:
        return f"(no recorded paper claims for {result.name})"
    return f"== {result.name}: paper vs measured ==\n" + "\n".join(
        check.render() for check in checks
    )
