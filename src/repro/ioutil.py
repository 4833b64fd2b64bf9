"""Atomic file-write helpers shared by every on-disk cache and snapshot.

Concurrent sweeps share a ``--cache-dir`` and a trace cache, so every writer
in the tree goes through :func:`atomic_write_bytes`: the payload lands in
a uniquely-named ``.<name>.*.tmp`` file in the *target directory* (same
filesystem, so the final ``os.replace`` is atomic) and is renamed into
place.  A concurrent reader sees either the old file, the new file, or a
miss -- never a torn payload; racing writers last-write-win whole files.
A writer killed mid-write leaves at most that stale tmp file, which the
``svw-repro fsck`` scrubbers report and ``--fix`` deletes.  Nothing in
the tree appends to a file.

Every on-disk cache (the result store, the campaign journals, the trace
cache) is scrubbed by the one loop :func:`scrub`, so a cache says only
which of its files are entries and whether each is sound: a ``.*.tmp``
file is a stale tmp wherever it lies, and nothing a cache cannot name is
ever deleted.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Literal

#: The process umask, read once at import (the set-and-restore dance is not
#: thread-safe, and concurrent sweep writers are exactly our callers).
_UMASK = os.umask(0)
os.umask(_UMASK)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tmp file + ``os.replace``)."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        # mkstemp creates 0600; give the final file the same umask-governed
        # mode a plain open() would, so shared cache dirs stay shareable.
        os.fchmod(fd, 0o666 & ~_UMASK)
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Text-mode convenience wrapper over :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path: str | Path, payload: object) -> None:
    """Write ``payload`` atomically as indented, key-sorted JSON (every
    ``svw-repro`` JSON output file: ``--json`` and its defaults)."""
    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


#: A scrub judge's verdict on one file: ``None`` means it is no entry of
#: the cache (a foreign file).
Verdict = Literal["clean", "corrupt", "orphaned"] | None


@dataclass(slots=True)
class ScrubReport:
    """What :func:`scrub` found in one cache directory (and, with ``fix``,
    removed).

    Every cache is recomputable, so every problem is safe to delete:
    removing a corrupt or orphaned entry turns a wrong-answer risk (or
    dead weight) into one cache miss.
    """

    #: Entries judged (every file but stale tmps and foreign files).
    scanned: int = 0
    #: Entries that verified sound and current.
    clean: int = 0
    #: Entries that failed to parse or verify.  Removed when ``fix``.
    corrupt: list[str] = field(default_factory=list)
    #: Sound entries no current key names (another epoch, schema or codec
    #: version).  Removed when ``fix``.
    orphaned: list[str] = field(default_factory=list)
    #: ``.*.tmp`` files left by writers killed mid-atomic-write.  Never
    #: read, but removed when ``fix``.
    stale_tmp: list[str] = field(default_factory=list)
    #: Files the cache cannot name.  Reported only, never deleted.
    foreign: list[str] = field(default_factory=list)
    #: Files actually deleted (``fix=True`` runs only).
    repaired: int = 0

    @property
    def ok(self) -> bool:
        """True when nothing needs repair.  Foreign files do not fail a
        check: they are not the cache's to judge."""
        return not (self.corrupt or self.orphaned or self.stale_tmp)

    def describe(self) -> str:
        parts = [f"{self.scanned} scanned, {self.clean} clean"]
        if self.corrupt:
            parts.append(f"{len(self.corrupt)} corrupt")
        if self.orphaned:
            parts.append(f"{len(self.orphaned)} orphaned")
        if self.stale_tmp:
            parts.append(f"{len(self.stale_tmp)} stale tmp")
        if self.foreign:
            parts.append(f"{len(self.foreign)} foreign (left alone)")
        if self.repaired:
            parts.append(f"{self.repaired} repaired")
        return ", ".join(parts)


def scrub(
    root: str | Path, judge: Callable[[Path], Verdict], fix: bool = False
) -> ScrubReport:
    """Scrub the files directly under ``root`` (a missing ``root`` holds
    none).

    A file named ``.*.tmp`` is a stale tmp; every other file goes to
    ``judge``.  With ``fix=True``, corrupt and orphaned entries and stale
    tmps are deleted; a foreign file never is.
    """
    root = Path(root)
    report = ScrubReport()
    if not root.is_dir():
        return report
    for path in sorted(root.iterdir()):
        if not path.is_file():
            continue
        name = path.name
        if name.startswith(".") and name.endswith(".tmp"):
            report.stale_tmp.append(name)
            continue
        verdict = judge(path)
        if verdict is None:
            report.foreign.append(name)
            continue
        report.scanned += 1
        if verdict == "clean":
            report.clean += 1
        else:
            getattr(report, verdict).append(name)
    if fix:
        for name in report.corrupt + report.orphaned + report.stale_tmp:
            try:
                (root / name).unlink()
                report.repaired += 1
            except OSError:
                pass
    return report
