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
from pathlib import Path
from typing import Iterator

from repro import fingerprint as epochs
from repro.experiments.spec import RunRequest
from repro.ioutil import ScrubReport, Verdict, atomic_write_text, scrub
from repro.pipeline.stats import SimStats

#: Bump when the on-disk payload layout changes.
SCHEMA_VERSION = 1

_HEX_DIGITS = set("0123456789abcdef")

#: What reading a missing or corrupt cell file raises.
_CELL_ERRORS = (OSError, ValueError, KeyError, TypeError)


def _is_cell(path: Path) -> bool:
    """Cell files are exactly ``<64-hex fingerprint>.json``."""
    stem = path.stem
    return path.suffix == ".json" and len(stem) == 64 and set(stem) <= _HEX_DIGITS


def _read_cell(path: Path) -> tuple[dict, SimStats]:
    """A cell file's payload and statistics; raises one of
    :data:`_CELL_ERRORS` when the file is missing, unreadable, of another
    schema, or holds stats that do not round-trip."""
    payload = json.loads(path.read_text())
    if payload["schema"] != SCHEMA_VERSION:
        raise ValueError(f"schema {payload['schema']}")
    return payload, SimStats.from_dict(payload["stats"])


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
            if _is_cell(path):
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
            _, stats = _read_cell(self.fingerprint_path(fingerprint))
        except _CELL_ERRORS:
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

    def fsck(self, fix: bool = False) -> ScrubReport:
        """Scrub the store for damage a crash or bit-rot could leave.

        Each cell file is checked the way :meth:`load_stats` reads it
        (parse, schema, stats round-trip) and then by its epoch stamps: a
        cell from another epoch, or with no stamps, is orphaned.
        ``cost_model.json`` must parse.  Everything else follows the one
        rule of :func:`~repro.ioutil.scrub`.
        """
        return scrub(self.root, self._judge, fix)

    def _judge(self, path: Path) -> Verdict:
        if path.name == self.cost_model_path.name:
            try:
                json.loads(path.read_text())
            except (OSError, ValueError):
                return "corrupt"
            return "clean"
        if not _is_cell(path):
            return None
        try:
            payload, _ = _read_cell(path)
        except _CELL_ERRORS:
            return "corrupt"
        stamps = (payload.get("model_epoch"), payload.get("trace_epoch"))
        if stamps != (epochs.MODEL_EPOCH, epochs.TRACE_EPOCH):
            return "orphaned"
        return "clean"

    def __len__(self) -> int:
        return sum(1 for _ in self.cell_paths())
