"""Content-addressed, on-disk result cache.

Each (config, workload, n_insts, warmup, validate) cell is keyed by its
:meth:`~repro.experiments.spec.RunRequest.fingerprint` and stored as one
JSON file.  Repeated and overlapping sweeps hit the cache instead of
re-simulating; a warm store makes a full sweep a pure read.  Writes are
atomic (write-then-rename), so concurrent processes sharing a cache
directory at worst redo a cell, never corrupt one.

Content addressing is also what makes stores *mergeable*: a store filled
on another host (a remote worker's ``--cache-dir``, an rsynced results
directory) folds into the local one with :meth:`ResultStore.merge` --
identical addresses must carry identical results, so a merge is copy for
new addresses, verify for overlapping ones, and a hard error for
conflicts (which can only mean schema skew or corruption, never a
legitimate disagreement).

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

from repro.experiments.spec import RunRequest
from repro.ioutil import atomic_write_text
from repro.pipeline.stats import SimStats

#: Bump when the on-disk payload layout changes.
SCHEMA_VERSION = 1

_HEX_DIGITS = set("0123456789abcdef")


class ResultMergeError(ValueError):
    """Two stores disagree about the result at one content address."""


def _architectural(stats_payload: object) -> object:
    """A stats payload with scheduler-observability counters stripped --
    the same view :meth:`SimStats.fingerprint` digests."""
    if not isinstance(stats_payload, dict):
        return stats_payload
    return {
        key: value
        for key, value in stats_payload.items()
        if key not in SimStats.OBSERVABILITY_FIELDS
    }


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
        return not self.corrupt and not self.stale_tmp and not self.cost_model_corrupt

    def describe(self) -> str:
        parts = [f"{self.scanned} cells scanned, {self.clean} clean"]
        if self.corrupt:
            parts.append(f"{len(self.corrupt)} corrupt")
        if self.stale_tmp:
            parts.append(f"{len(self.stale_tmp)} stale tmp")
        if self.foreign:
            parts.append(f"{len(self.foreign)} foreign (left alone)")
        if self.cost_model_corrupt:
            parts.append("cost model corrupt")
        if self.repaired:
            parts.append(f"{self.repaired} repaired")
        return ", ".join(parts)


@dataclass(slots=True)
class MergeReport:
    """What :meth:`ResultStore.merge` did, for logs and assertions."""

    #: New cells copied into this store.
    merged: int = 0
    #: Overlapping addresses whose payloads matched (nothing to do).
    identical: int = 0
    #: Source files skipped as unreadable/stale-schema (like load() misses).
    invalid: int = 0

    def describe(self) -> str:
        return (
            f"{self.merged} merged, {self.identical} identical, "
            f"{self.invalid} invalid skipped"
        )


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
        counted, merged, or mistaken for results."""
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

        This is the fingerprint-keyed face of :meth:`load`: remote worker
        memoization and the campaign daemon hold only the address a
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
        self.save_stats(
            request.fingerprint(),
            stats,
            provenance={
                "experiment": request.experiment,
                "workload": request.workload.name,
                "config_label": request.config_label,
                "config_name": request.config.name,
                "n_insts": request.n_insts,
                "warmup": request.warmup,
                "validate": request.validate,
            },
        )

    def save_stats(
        self,
        fingerprint: str,
        stats: SimStats,
        provenance: dict[str, object] | None = None,
    ) -> None:
        """Persist statistics at a raw content address.

        ``provenance`` is human-readable context only (the fingerprint
        alone is the key); fingerprint-keyed writers pass through whatever
        identity fields they were handed.
        """
        payload: dict[str, object] = {"schema": SCHEMA_VERSION}
        payload.update(provenance or {})
        payload["stats"] = stats.to_dict()
        # Atomic replace via a uniquely-named tmp file: workers of a
        # parallel sweep sharing one --cache-dir can race on the same cell
        # without a reader ever observing torn JSON.
        atomic_write_text(
            self.fingerprint_path(fingerprint),
            json.dumps(payload, sort_keys=True, indent=1),
        )

    def fsck(self, fix: bool = False) -> FsckReport:
        """Scrub the store for damage a crash or bit-rot could leave.

        Checks every cell file the way :meth:`load_stats` would (parse,
        schema, stats round-trip), finds stale atomic-write tmp files and
        an unreadable cost model, and inventories foreign files without
        touching them.  With ``fix=True``, corrupt cells, stale tmps, and
        a corrupt cost model are deleted -- always safe, because every
        store entry is a recomputable cache, never source data.
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
            doomed = list(report.corrupt) + list(report.stale_tmp)
            if report.cost_model_corrupt:
                doomed.append(self.cost_model_path.name)
            for name in doomed:
                try:
                    (self.root / name).unlink()
                    report.repaired += 1
                except OSError:
                    pass
        return report

    def merge(self, other: "ResultStore | str | Path") -> MergeReport:
        """Fold another store's cells into this one by content address.

        New addresses are copied (atomically -- a crash mid-merge leaves
        this store with a subset of the source's cells, every one of them
        intact); overlapping addresses are verified instead of rewritten.
        An overlap whose *stats* payload differs raises
        :class:`ResultMergeError`: the address is a fingerprint of
        everything that determines the result, so a conflict is evidence
        of corruption or version skew and silently preferring either side
        would launder it into figures.  Display-only provenance
        (``experiment``, ``config_label``) may differ freely -- local wins.
        Source files that fail to parse (or carry another schema) are
        skipped and counted, mirroring how :meth:`load` treats them.
        """
        source_root = (
            other.root if isinstance(other, ResultStore) else Path(other).expanduser()
        )
        if not source_root.is_dir():
            # Constructing a ResultStore would mkdir the path; for a merge
            # *source* that would turn a typo into "0 merged" success.
            raise FileNotFoundError(f"merge source {source_root} is not a directory")
        report = MergeReport()
        if source_root.resolve() == self.root.resolve():
            return report
        source = other if isinstance(other, ResultStore) else ResultStore(source_root)
        for path in source.cell_paths():
            try:
                payload = json.loads(path.read_text())
                if payload["schema"] != SCHEMA_VERSION:
                    raise ValueError(f"schema {payload['schema']}")
                incoming = payload["stats"]
            except (OSError, ValueError, KeyError, TypeError):
                report.invalid += 1
                continue
            destination = self.root / path.name
            try:
                existing = json.loads(destination.read_text())["stats"]
            except (OSError, ValueError, KeyError, TypeError):
                existing = None  # absent (or corrupt: repair by overwrite)
            if existing is None:
                atomic_write_text(
                    destination, json.dumps(payload, sort_keys=True, indent=1)
                )
                report.merged += 1
            elif _architectural(existing) == _architectural(incoming):
                # Scheduler-observability counters may differ between
                # otherwise bit-identical runs (and are absent from
                # pre-skip-report entries); like provenance, local wins.
                report.identical += 1
            else:
                raise ResultMergeError(
                    f"conflicting results for content address {path.stem}: "
                    f"{source_root} disagrees with {self.root} -- refusing to "
                    "merge (corruption or version skew)"
                )
        return report

    def __len__(self) -> int:
        return sum(1 for _ in self.cell_paths())
