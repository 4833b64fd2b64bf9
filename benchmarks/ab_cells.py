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

After its ABBA runs, each cell runs once more per side, the side that
goes first alternating from cell to cell, on that side's ``Processor``
with its stage methods timed (see :func:`stage_timed`): wall seconds in
``complete``, ``commit``, ``rex``, ``issue`` and ``dispatch``, and
``loop`` for the rest of ``run()`` (the cycle loop, the skip-ahead scan
and the stall cycles the loop counts itself).  The split reads
``time.perf_counter``, a fraction of ``thread_time``'s cost per read, so
the wrappers add less to what they time; the ABBA runs never run them,
and the speedups come from the ABBA runs alone.

Prints one line per cell, then one line per stage (the parent's and the
change's summed seconds and their ratio), the total speedup (the
parent's summed ABBA seconds over the change's), the median per-cell
speedup, and each side's committed instructions (warm-up included) per
second of ABBA time; above 1 the change is faster.  Exits 1 if the two
sides build different cells or any run's ``SimStats.fingerprint()``,
stage-timed runs included, differs from its cell's first run.
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
#: The stage methods of ``Processor.run`` (``_do_<stage>``), in loop order.
STAGES = ("complete", "commit", "rex", "issue", "dispatch")
#: The split a stage-timed run reports: the stages, then the rest of ``run()``.
SPLIT = (*STAGES, "loop")


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


def _timed(method, stage: str):
    def timed(self, *args):
        started = time.perf_counter()
        result = method(self, *args)
        self.stage_seconds[stage] += time.perf_counter() - started
        return result

    return timed


def stage_timed(processor: type) -> type:
    """A subclass of ``processor`` whose stage methods add their wall
    seconds to ``self.stage_seconds``.

    ``Processor.run`` looks its stage methods up once per run, so the
    overrides time every call while the plain class runs untouched.  Built
    from each side's own ``Processor``, it times whatever that checkout's
    stages do.
    """
    namespace = {f"_do_{stage}": _timed(getattr(processor, f"_do_{stage}"), stage)
                 for stage in STAGES}
    return type("StageSplit", (processor,), {"__slots__": ("stage_seconds",), **namespace})


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
        self.StageSplit = stage_timed(processor.Processor)
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

    def run(self, cell: tuple) -> tuple[float, str, int]:
        """Seconds of thread time for one run of ``cell``, its fingerprint,
        and the instructions it committed (warm-up included)."""
        _activate(self.modules)
        config, trace, warmup = cell
        start = time.thread_time()
        stats = self.Processor(config, trace, warmup=warmup).run()
        seconds = time.thread_time() - start
        return seconds, stats.fingerprint(), stats.committed + warmup

    def split(self, cell: tuple) -> tuple[dict[str, float], str]:
        """Wall seconds per :data:`SPLIT` entry of one stage-timed
        ``run()`` of ``cell``, and its fingerprint."""
        _activate(self.modules)
        config, trace, warmup = cell
        processor = self.StageSplit(config, trace, warmup=warmup)
        processor.stage_seconds = dict.fromkeys(STAGES, 0.0)
        start = time.perf_counter()
        stats = processor.run()
        seconds = dict(processor.stage_seconds)
        seconds["loop"] = time.perf_counter() - start - sum(seconds.values())
        return seconds, stats.fingerprint()


def _ratio(parent: float, change: float) -> str:
    return f"{parent / change:6.3f}x" if change else "     -"


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
    parent_committed = change_committed = 0
    parent_split = dict.fromkeys(SPLIT, 0.0)
    change_split = dict.fromkeys(SPLIT, 0.0)
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
            parent_committed += runs[0][2] + runs[3][2]
            change_committed += runs[1][2] + runs[2][2]
            speedups.append(a_seconds / b_seconds)
            fingerprints = {fingerprint for _, fingerprint, _ in runs}
            # One stage-timed run per side, the side that goes first
            # alternating from cell to cell.
            splits = [(parent, parent_cell, parent_split), (change, change_cell, change_split)]
            for side, cell, total in splits[::-1] if len(speedups) % 2 else splits:
                seconds, fingerprint = side.split(cell)
                fingerprints.add(fingerprint)
                for part in SPLIT:
                    total[part] += seconds[part]
            same = len(fingerprints) == 1
            if not same:
                mismatches.append(key)
            print(f"{'/'.join(key):40s} parent {a_seconds / 2:8.4f}s  "
                  f"change {b_seconds / 2:8.4f}s  {a_seconds / b_seconds:6.3f}x"
                  f"{'' if same else '  FINGERPRINT MISMATCH'}", flush=True)
        del parent_cells, change_cells  # one benchmark's traces at a time

    if not speedups:
        print("ab_cells: no cell matches the chosen experiments and configs", file=sys.stderr)
        return 1
    for part in SPLIT:
        print(f"stage {part:10s} parent {parent_split[part]:8.4f}s  "
              f"change {change_split[part]:8.4f}s  "
              f"{_ratio(parent_split[part], change_split[part])}")
    print(f"cells {len(speedups)}  parent {parent_total:.2f}s  change {change_total:.2f}s  "
          f"total {parent_total / change_total:.3f}x  "
          f"median cell {statistics.median(speedups):.3f}x")
    print(f"committed kinst/s  parent {parent_committed / parent_total / 1e3:.1f}  "
          f"change {change_committed / change_total / 1e3:.1f}")
    if mismatches:
        print(f"ab_cells: {len(mismatches)} cell(s) simulate different bits: "
              f"{', '.join('/'.join(key) for key in mismatches)}", file=sys.stderr)
        return 1
    print("fingerprints identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
