"""Content-addressed on-disk cache of encoded traces.

Trace generation is the single most expensive non-simulation step of a
sweep (~as costly as simulating the trace once), and its output depends
only on ``(profile, n_insts)``.  This cache stores the
:mod:`repro.isa.codec` encoding of each generated trace under a key
derived from the profile fingerprint, the generator seed, and the
instruction budget, so repeated sweeps -- and every backend of one sweep
-- skip generation entirely and pay only the (much cheaper) decode.

The cache stores *encoded bytes*, not traces: callers that ship traces to
workers (batch chunk tasks, the remote wire) can forward the bytes without
re-encoding, and a cache hit never pays object construction it does not
need.

Corruption safety mirrors :class:`~repro.experiments.store.ResultStore`:
writes are atomic (tmp file + rename), and entries whose checksum or
layout fails to decode are treated as misses by callers (the codec
validates on decode), so a torn or stale file costs one regeneration,
never a wrong result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.ioutil import atomic_write_bytes
from repro.isa.codec import CODEC_VERSION, TraceCodecError, verify_encoded
from repro.workloads.profile import WorkloadProfile


def trace_key(profile: WorkloadProfile, n_insts: int) -> str:
    """Cache identity of ``generate_trace(profile, n_insts)``.

    The profile fingerprint already covers the seed; the seed and budget
    stay in the key anyway so cache filenames are self-describing and the
    key matches the issue-level contract ``(fingerprint, n_insts, seed)``.
    """
    return f"{profile.fingerprint()}-s{profile.seed}-n{n_insts}"


class TraceCache:
    """Encoded-trace files rooted at ``root``, one per :func:`trace_key`.

    The codec version is part of the filename: bumping the wire format
    orphans old entries instead of making decoders reject them one by one.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.v{CODEC_VERSION}.svwt"

    def load(self, key: str) -> bytes | None:
        """Encoded trace bytes for ``key``, or None on miss.

        Returns raw bytes without validating them -- the codec's decode
        path checksums the payload, and callers fall back to regeneration
        on :class:`~repro.isa.codec.TraceCodecError`.
        """
        try:
            data = self.path_for(key).read_bytes()
        except OSError:
            self.misses += 1
            return None
        self.hits += 1
        return data

    def save(self, key: str, data: bytes) -> None:
        atomic_write_bytes(self.path_for(key), data)

    def scrub(self, fix: bool = False) -> "TraceScrubReport":
        """Checksum every cached trace without materializing any of them.

        Runs :func:`~repro.isa.codec.verify_encoded` over each entry of
        the *current* codec version; older-version files are counted as
        orphans (decoders never open them, so they are dead weight, not a
        risk).  With ``fix=True``, corrupt entries and orphans are
        deleted -- like the result store, the cache is recomputable, so
        deletion costs one regeneration, never data.
        """
        report = TraceScrubReport()
        current = f".v{CODEC_VERSION}.svwt"
        for path in sorted(self.root.glob("*.svwt")):
            if not path.name.endswith(current):
                report.orphaned.append(path.name)
                continue
            report.scanned += 1
            try:
                verify_encoded(path.read_bytes())
            except (OSError, TraceCodecError):
                report.corrupt.append(path.name)
            else:
                report.clean += 1
        if fix:
            for name in report.corrupt + report.orphaned:
                try:
                    (self.root / name).unlink()
                    report.repaired += 1
                except OSError:
                    pass
        return report

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.svwt"))


@dataclass(slots=True)
class TraceScrubReport:
    """What :meth:`TraceCache.scrub` found (and with ``fix``, removed)."""

    #: Current-version entries checksummed.
    scanned: int = 0
    #: Entries whose payload verified clean.
    clean: int = 0
    #: Entries failing header/CRC verification.  Removed when ``fix``.
    corrupt: list[str] = field(default_factory=list)
    #: Entries from older codec versions (never read).  Removed when ``fix``.
    orphaned: list[str] = field(default_factory=list)
    #: Files actually deleted (``fix=True`` runs only).
    repaired: int = 0

    @property
    def ok(self) -> bool:
        """True when no entry is corrupt (orphans are clutter, not damage)."""
        return not self.corrupt

    def describe(self) -> str:
        parts = [f"{self.scanned} traces scanned, {self.clean} clean"]
        if self.corrupt:
            parts.append(f"{len(self.corrupt)} corrupt")
        if self.orphaned:
            parts.append(f"{len(self.orphaned)} orphaned")
        if self.repaired:
            parts.append(f"{self.repaired} repaired")
        return ", ".join(parts)
