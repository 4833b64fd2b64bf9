"""Content-addressed, on-disk result cache.

Each (config, workload, n_insts, warmup, validate) cell is keyed by its
:meth:`~repro.experiments.spec.RunRequest.fingerprint` and stored as one
JSON file.  Repeated and overlapping sweeps hit the cache instead of
re-simulating; a warm store makes a full sweep a pure read.  Writes are
atomic (write-then-rename), so concurrent processes sharing a cache
directory at worst redo a cell, never corrupt one.

A sweep has one store: the client's ``--cache-dir``, or the campaign
daemon's central store.  Each cell records the
:data:`~repro.fingerprint.MODEL_EPOCH` and
:data:`~repro.fingerprint.TRACE_EPOCH` it was saved under; after a bump no
request fingerprint names an older cell, and :meth:`ResultStore.fsck`
reports it as an orphan.

The store directory additionally anchors the persisted scheduling
:class:`~repro.experiments.scheduler.CostModel` (``cost_model.json``, see
:attr:`ResultStore.cost_model_path`); cell files are exactly the 64-hex
fingerprint names, so auxiliary files never alias a cell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro import fingerprint as epochs
from repro.experiments.spec import RunRequest
from repro.ioutil import atomic_write_text
from repro.pipeline.stats import SimStats

#: Bump when the on-disk payload layout changes.
SCHEMA_VERSION = 1

_HEX_DIGITS = set("0123456789abcdef")


@dataclass(slots=True)
class FsckReport:
    """What :meth:`ResultStore.fsck` found (and, with ``fix``, removed).

    A store is content-addressed, so every problem fsck can find is
    *safe to delete*: removing a corrupt cell turns a wrong-answer risk
    into one cache miss, and the next sweep recomputes it.  Nothing in a
    store is authoritative state that deletion could lose.
    """

    #: Cell files scanned (64-hex names only).
    scanned: int = 0
    #: Cells that parsed and verified clean.
    clean: int = 0
    #: Cells that failed to parse/verify (unreadable JSON, wrong schema,
    #: stats that do not round-trip).  Removed when ``fix`` is set.
    corrupt: list[str] = field(default_factory=list)
    #: Sound cells saved under another model or trace epoch, or carrying
    #: no epoch stamps: no request fingerprint names them any more.
    #: Removed when ``fix`` is set.
    orphaned: list[str] = field(default_factory=list)
    #: Stale ``.*.tmp`` droppings from writers killed mid-atomic-write.
    #: Harmless (never read) but removed when ``fix`` is set.
    stale_tmp: list[str] = field(default_factory=list)
    #: Files that are neither cells, tmp files, nor known auxiliaries.
    #: Reported only -- fsck never deletes what it cannot identify.
    foreign: list[str] = field(default_factory=list)
    #: True when ``cost_model.json`` exists but is unreadable.
    cost_model_corrupt: bool = False
    #: Problem files actually deleted (``fix=True`` runs only).
    repaired: int = 0

    @property
    def ok(self) -> bool:
        """True when nothing needed (or still needs) repair.  Foreign
        files do not fail a check -- they are not the store's to judge."""
        return not (
            self.corrupt or self.orphaned or self.stale_tmp or self.cost_model_corrupt
        )

    def describe(self) -> str:
        parts = [f"{self.scanned} cells scanned, {self.clean} clean"]
        if self.corrupt:
            parts.append(f"{len(self.corrupt)} corrupt")
        if self.orphaned:
            parts.append(f"{len(self.orphaned)} orphaned")
        if self.stale_tmp:
            parts.append(f"{len(self.stale_tmp)} stale tmp")
        if self.foreign:
            parts.append(f"{len(self.foreign)} foreign (left alone)")
        if self.cost_model_corrupt:
            parts.append("cost model corrupt")
        if self.repaired:
            parts.append(f"{self.repaired} repaired")
        return ", ".join(parts)


class ResultStore:
    """JSON file-per-cell cache rooted at ``root``."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path_for(self, request: RunRequest) -> Path:
        return self.fingerprint_path(request.fingerprint())

    def fingerprint_path(self, fingerprint: str) -> Path:
        """Cell file for a raw content address (validated: exactly 64 hex
        characters, so an attacker-influenced fingerprint can never escape
        the store directory or alias an auxiliary file)."""
        if len(fingerprint) != 64 or not set(fingerprint) <= _HEX_DIGITS:
            raise ValueError(f"not a cell fingerprint: {fingerprint!r}")
        return self.root / f"{fingerprint}.json"

    @property
    def cost_model_path(self) -> Path:
        """Where the persisted scheduling cost model lives (not a cell)."""
        return self.root / "cost_model.json"

    def cell_paths(self) -> Iterator[Path]:
        """The store's cell files: ``<64-hex fingerprint>.json`` only, so
        auxiliary files (``cost_model.json``, editor droppings) are never
        counted or mistaken for results."""
        for path in sorted(self.root.glob("*.json")):
            stem = path.stem
            if len(stem) == 64 and set(stem) <= _HEX_DIGITS:
                yield path

    def load(self, request: RunRequest) -> SimStats | None:
        """The cached statistics for a cell, or None on miss.

        A hit is stamped with the request's own config name: the entry may
        have been saved by a config that differs only in name.
        """
        stats = self.load_stats(request.fingerprint())
        return None if stats is None else request.stamp(stats)

    def load_stats(self, fingerprint: str) -> SimStats | None:
        """The cached statistics at a raw content address, or None.

        This is the fingerprint-keyed face of :meth:`load`: the campaign
        daemon's client API holds only the address a
        :class:`~repro.experiments.spec.RunRequest` hashes to, never the
        request object itself.
        """
        try:
            payload = json.loads(self.fingerprint_path(fingerprint).read_text())
            if payload["schema"] != SCHEMA_VERSION:
                raise ValueError(f"schema {payload['schema']}")
            stats = SimStats.from_dict(payload["stats"])
        except (OSError, ValueError, KeyError, TypeError):
            # Missing, corrupt, or stale-schema entries are plain misses.
            self.misses += 1
            return None
        self.hits += 1
        return stats

    def save(self, request: RunRequest, stats: SimStats) -> None:
        """Persist a cell's statistics at its fingerprint.

        Everything but ``stats`` is human-readable provenance (the
        fingerprint alone is the key), except the epoch stamps, which
        :meth:`fsck` reads to find cells a bump has orphaned.
        """
        payload = {
            "schema": SCHEMA_VERSION,
            "model_epoch": epochs.MODEL_EPOCH,
            "trace_epoch": epochs.TRACE_EPOCH,
            "experiment": request.experiment,
            "workload": request.workload.name,
            "config_label": request.config_label,
            "config_name": request.config.name,
            "n_insts": request.n_insts,
            "warmup": request.warmup,
            "validate": request.validate,
            "stats": stats.to_dict(),
        }
        # Atomic replace via a uniquely-named tmp file: workers of a
        # parallel sweep sharing one --cache-dir can race on the same cell
        # without a reader ever observing torn JSON.
        atomic_write_text(
            self.path_for(request), json.dumps(payload, sort_keys=True, indent=1)
        )

    def fsck(self, fix: bool = False) -> FsckReport:
        """Scrub the store for damage a crash or bit-rot could leave.

        Checks every cell file the way :meth:`load_stats` would (parse,
        schema, stats round-trip) and its epoch stamps against the code's
        (a cell from another epoch, or with no stamps, is an orphan), finds
        stale atomic-write tmp files and an unreadable cost model, and
        inventories foreign files without touching them.  With
        ``fix=True``, corrupt and orphaned cells, stale tmps, and a corrupt
        cost model are deleted -- always safe, because every store entry
        is a recomputable cache, never source data.
        """
        report = FsckReport()
        for path in sorted(self.root.iterdir()):
            name = path.name
            if not path.is_file():
                continue
            stem = path.stem
            if path.suffix == ".json" and len(stem) == 64 and set(stem) <= _HEX_DIGITS:
                report.scanned += 1
                try:
                    payload = json.loads(path.read_text())
                    if payload["schema"] != SCHEMA_VERSION:
                        raise ValueError(f"schema {payload['schema']}")
                    SimStats.from_dict(payload["stats"])
                except (OSError, ValueError, KeyError, TypeError):
                    report.corrupt.append(name)
                    continue
                stamps = (payload.get("model_epoch"), payload.get("trace_epoch"))
                if stamps != (epochs.MODEL_EPOCH, epochs.TRACE_EPOCH):
                    report.orphaned.append(name)
                else:
                    report.clean += 1
            elif name.startswith(".") and name.endswith(".tmp"):
                report.stale_tmp.append(name)
            elif name == self.cost_model_path.name:
                try:
                    json.loads(path.read_text())
                except (OSError, ValueError):
                    report.cost_model_corrupt = True
            else:
                report.foreign.append(name)
        if fix:
            doomed = report.corrupt + report.orphaned + report.stale_tmp
            if report.cost_model_corrupt:
                doomed.append(self.cost_model_path.name)
            for name in doomed:
                try:
                    (self.root / name).unlink()
                    report.repaired += 1
                except OSError:
                    pass
        return report

    def __len__(self) -> int:
        return sum(1 for _ in self.cell_paths())
