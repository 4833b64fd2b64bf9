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
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

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
    ``svw-repro`` JSON output file: ``--json``, ``--out``, the goldens)."""
    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")
