"""Per-cell interleaved A/B timing of two checkouts' simulators.

Usage::

    python benchmarks/ab_cells.py PARENT_SRC CHANGE_SRC \\
        [--experiments fig5,fig6,fig7] [--benchmarks gcc,mcf] \\
        [--configs LABEL,...] [--insts 12000]

``PARENT_SRC`` and ``CHANGE_SRC`` are the ``src`` directories of two
checkouts; naming one directory twice is an A/A run.  Both are imported
in this one process, one after the other, each under its own copy of the
``repro`` modules, and each builds its own cells from its own tables:
every (experiment, benchmark, config label) of the chosen figures,
``--configs`` keeping only the named labels.  The defaults are the 240
cells of perfbench's ``figures`` workload (fig5-7 over the 16 SPEC
profiles at 12k instructions).

One benchmark at a time, each side materializes its trace (untimed), and
every cell of that benchmark then runs in ABBA order -- parent, change,
change, parent -- so a drift in host speed hits both sides alike.  A run
is the cell's ``Processor`` construction and ``run()``, timed with
``time.thread_time`` so other processes on the host do not count.

Prints one line per cell, then the total speedup (the parent's summed
seconds over the change's) and the median per-cell speedup; above 1 the
change is faster.  Exits 1 if the two sides build different cells or any
run's ``SimStats.fingerprint()`` differs from its cell's first run.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import time
from pathlib import Path

DEFAULT_EXPERIMENTS = "fig5,fig6,fig7"
#: perfbench's ``figures`` budget per cell.
DEFAULT_INSTS = 12_000


def _is_repro(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


def _activate(modules: dict) -> None:
    """Make ``modules`` the process's ``repro`` package.

    A side's functions keep their own module globals, but an import
    statement run inside one (a lazy import) resolves through
    ``sys.modules``, so each side's modules are swapped in before it runs.
    """
    for name in [name for name in sys.modules if _is_repro(name)]:
        del sys.modules[name]
    sys.modules.update(modules)


class Side:
    """One checkout's ``repro``, imported apart from the other side's."""

    def __init__(self, src: str, experiments: list[str], labels: set[str] | None,
                 n_insts: int) -> None:
        root = str(Path(src).resolve())
        _activate({})
        sys.path.insert(0, root)
        try:
            figures = importlib.import_module("repro.harness.figures")
            processor = importlib.import_module("repro.pipeline.processor")
        finally:
            sys.path.remove(root)
        origin = Path(figures.__file__).resolve()
        if not origin.is_relative_to(root):
            raise SystemExit(f"ab_cells: {src} does not hold repro ({origin} was imported)")
        self.modules = {name: module for name, module in sys.modules.items() if _is_repro(name)}
        self.Processor = processor.Processor
        self.experiments = experiments
        self.labels = labels
        self.n_insts = n_insts
        self.figures = figures

    def cells(self, benchmark: str) -> dict[tuple[str, str, str], tuple]:
        """``(experiment, benchmark, label) -> (config, trace, warmup)``."""
        _activate(self.modules)
        traces: dict = {}
        cells = {}
        for experiment in self.experiments:
            spec = self.figures.EXPERIMENTS[experiment]([benchmark], self.n_insts)
            for request in spec.cells():
                if self.labels is not None and request.config_label not in self.labels:
                    continue
                trace = traces.get(request.workload.name)
                if trace is None:
                    trace = request.workload.materialize(request.n_insts)
                    # Built once per trace and cached on it: not a cell's cost.
                    trace.meta()
                    trace.hot()
                    traces[request.workload.name] = trace
                key = (experiment, request.workload.name, request.config_label)
                cells[key] = (request.config, trace, request.warmup)
        return cells

    def run(self, cell: tuple) -> tuple[float, str]:
        """Seconds of thread time for one run of ``cell``, and its fingerprint."""
        _activate(self.modules)
        config, trace, warmup = cell
        start = time.thread_time()
        stats = self.Processor(config, trace, warmup=warmup).run()
        seconds = time.thread_time() - start
        return seconds, stats.fingerprint()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", help="src directory of the parent checkout")
    parser.add_argument("change_src", help="src directory of the changed checkout")
    parser.add_argument("--experiments", default=DEFAULT_EXPERIMENTS,
                        help="comma-separated figure experiments (default: %(default)s)")
    parser.add_argument("--benchmarks", default=None,
                        help="comma-separated benchmarks (default: the 16 SPEC profiles)")
    parser.add_argument("--configs", default=None,
                        help="comma-separated config labels to keep (default: all)")
    parser.add_argument("--insts", type=int, default=DEFAULT_INSTS,
                        help="instructions per cell (default: %(default)s)")
    args = parser.parse_args(argv)
    if args.insts <= 0:
        parser.error("--insts must be positive")
    experiments = args.experiments.split(",")
    labels = set(args.configs.split(",")) if args.configs else None

    parent = Side(args.parent_src, experiments, labels, args.insts)
    change = Side(args.change_src, experiments, labels, args.insts)
    if args.benchmarks:
        benchmarks = args.benchmarks.split(",")
    else:
        _activate(parent.modules)
        benchmarks = list(importlib.import_module("repro.workloads.spec2000").SPEC_ORDER)

    parent_total = change_total = 0.0
    speedups = []
    mismatches = []
    for benchmark in benchmarks:
        parent_cells = parent.cells(benchmark)
        change_cells = change.cells(benchmark)
        if parent_cells.keys() != change_cells.keys():
            print(f"ab_cells: the checkouts build different {benchmark} cells: "
                  f"{sorted(parent_cells.keys() ^ change_cells.keys())}", file=sys.stderr)
            return 1
        for key, parent_cell in parent_cells.items():
            change_cell = change_cells[key]
            runs = [
                parent.run(parent_cell),
                change.run(change_cell),
                change.run(change_cell),
                parent.run(parent_cell),
            ]
            a_seconds = runs[0][0] + runs[3][0]
            b_seconds = runs[1][0] + runs[2][0]
            parent_total += a_seconds
            change_total += b_seconds
            speedups.append(a_seconds / b_seconds)
            same = len({fingerprint for _, fingerprint in runs}) == 1
            if not same:
                mismatches.append(key)
            print(f"{'/'.join(key):40s} parent {a_seconds / 2:8.4f}s  "
                  f"change {b_seconds / 2:8.4f}s  {a_seconds / b_seconds:6.3f}x"
                  f"{'' if same else '  FINGERPRINT MISMATCH'}", flush=True)
        del parent_cells, change_cells  # one benchmark's traces at a time

    if not speedups:
        print("ab_cells: no cell matches the chosen experiments and configs", file=sys.stderr)
        return 1
    print(f"cells {len(speedups)}  parent {parent_total:.2f}s  change {change_total:.2f}s  "
          f"total {parent_total / change_total:.3f}x  "
          f"median cell {statistics.median(speedups):.3f}x")
    if mismatches:
        print(f"ab_cells: {len(mismatches)} cell(s) simulate different bits: "
              f"{', '.join('/'.join(key) for key in mismatches)}", file=sys.stderr)
        return 1
    print("fingerprints identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
