"""Content-addressed ingestion of external trace files.

External column traces (captured elsewhere, exported by other tools, or
archived from old sweeps) enter the system through exactly one door: an
:class:`IngestStore` that checks the bytes in under their SHA-256 content
digest after full validation -- codec framing and checksum
(:func:`~repro.isa.codec.verify_encoded`), column reconstruction
(:func:`~repro.isa.codec.decode_trace`), and the complete
:meth:`~repro.isa.coltrace.ColumnTrace.validate` invariant sweep.  From
then on the trace is addressed as ``ingest:<digest>`` and flows through
the same codec / :class:`~repro.workloads.trace_cache.TraceCache` /
``workload_key`` machinery as generated traces.

Trust model: an ingested trace is **validated data, never code**.  The
decoder executes nothing from the file; every structural invariant the
simulator relies on is re-proven at ingest time *and again on every
load* (a store entry that rots on disk is rejected, not trusted), and
files above :data:`MAX_INGEST_BYTES` are refused outright so a stray
multi-gigabyte blob cannot wedge workers that materialize traces by key.

Layout mirrors the trace cache: one ``<digest>.svwt`` (the encoded bytes,
verbatim) plus one ``<digest>.json`` manifest carrying the display name
and self-described instruction count.  Writes are atomic, and
:meth:`IngestStore.scrub` gives ``svw-repro fsck`` the same
orphan/checksum pass the other stores have.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.ioutil import atomic_write_bytes
from repro.isa.codec import (
    TraceCodecError,
    decode_trace,
    encode_trace,
    peek_encoded,
    verify_encoded,
)
from repro.isa.coltrace import ColumnTrace

#: Hard cap on an ingested trace file.  Far above any realistic column
#: trace (30K instructions encode to ~200 KB) while keeping a corrupt or
#: hostile length field from ballooning worker memory.
MAX_INGEST_BYTES = 64 << 20


class IngestError(ValueError):
    """Raised when a trace file cannot be ingested or loaded."""


@dataclass(frozen=True, slots=True)
class IngestRecord:
    """One checked-in trace: its digest and self-described identity."""

    digest: str
    name: str
    n_insts: int
    nbytes: int

    def to_dict(self) -> dict[str, object]:
        return {
            "digest": self.digest,
            "name": self.name,
            "n_insts": self.n_insts,
            "nbytes": self.nbytes,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "IngestRecord":
        return cls(
            digest=str(payload["digest"]),
            name=str(payload["name"]),
            n_insts=int(payload["n_insts"]),  # type: ignore[call-overload]
            nbytes=int(payload["nbytes"]),  # type: ignore[call-overload]
        )


def _validated(data: bytes, origin: str) -> dict:
    """Prove ``data`` is a well-formed, invariant-clean encoded trace."""
    if len(data) > MAX_INGEST_BYTES:
        raise IngestError(
            f"{origin}: {len(data)} bytes exceeds the "
            f"{MAX_INGEST_BYTES}-byte ingest cap"
        )
    try:
        verify_encoded(data)
        trace = decode_trace(data)
        trace.validate()
    except (TraceCodecError, ValueError) as exc:
        raise IngestError(f"{origin}: not a valid encoded trace: {exc}") from exc
    return {"trace": trace, "header": peek_encoded(data)}


def load_trace_file(path: Path) -> tuple[str, ColumnTrace]:
    """Validate and load a standalone ``.svwt`` file (no store involved).

    Returns ``(content digest, trace)`` so callers can record provenance;
    the same validation gate as :meth:`IngestStore.ingest_bytes` applies.
    """
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise IngestError(f"{path}: {exc}") from exc
    checked = _validated(data, str(path))
    return hashlib.sha256(data).hexdigest(), checked["trace"]


class IngestStore:
    """Validated external traces rooted at ``root``, one per digest."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, digest: str) -> Path:
        return self.root / f"{digest}.svwt"

    def manifest_for(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    # -- checking traces in ---------------------------------------------------

    def ingest_bytes(self, data: bytes, name: str | None = None) -> IngestRecord:
        """Validate ``data`` and check it in under its content digest.

        Idempotent: re-ingesting identical bytes rewrites the same entry.
        ``name`` overrides the display name in the manifest (the encoded
        trace's own name is the default).
        """
        checked = _validated(data, name or "<bytes>")
        digest = hashlib.sha256(data).hexdigest()
        record = IngestRecord(
            digest=digest,
            name=name or checked["header"]["name"],
            n_insts=checked["header"]["n_insts"],
            nbytes=len(data),
        )
        atomic_write_bytes(self.path_for(digest), data)
        atomic_write_bytes(
            self.manifest_for(digest),
            json.dumps(record.to_dict(), sort_keys=True, indent=2).encode(),
        )
        return record

    def ingest_file(self, path: str | Path, name: str | None = None) -> IngestRecord:
        path = Path(path)
        try:
            size = path.stat().st_size
        except OSError as exc:
            raise IngestError(f"{path}: {exc}") from exc
        if size > MAX_INGEST_BYTES:
            raise IngestError(
                f"{path}: {size} bytes exceeds the {MAX_INGEST_BYTES}-byte "
                "ingest cap"
            )
        return self.ingest_bytes(path.read_bytes(), name=name)

    def ingest_trace(
        self, trace: ColumnTrace, name: str | None = None
    ) -> IngestRecord:
        """Encode and check in an in-memory trace (archival path)."""
        return self.ingest_bytes(encode_trace(trace), name=name)

    # -- reading traces out ---------------------------------------------------

    def records(self) -> list[IngestRecord]:
        """All checked-in traces, sorted by digest."""
        out = []
        for path in sorted(self.root.glob("*.json")):
            try:
                out.append(IngestRecord.from_dict(json.loads(path.read_text())))
            except (OSError, ValueError, KeyError):
                continue
        return out

    def find(self, prefix: str) -> IngestRecord:
        """The unique record whose digest starts with ``prefix``."""
        if not prefix:
            raise IngestError("empty ingest digest")
        matches = [r for r in self.records() if r.digest.startswith(prefix)]
        if not matches:
            raise IngestError(f"no ingested trace matches {prefix!r}")
        if len(matches) > 1:
            raise IngestError(
                f"{prefix!r} is ambiguous: "
                + ", ".join(r.digest[:12] for r in matches)
            )
        return matches[0]

    def load(self, digest: str) -> ColumnTrace:
        """The trace for ``digest``, fully re-validated on every load."""
        path = self.path_for(digest)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise IngestError(f"ingested trace {digest[:12]} missing: {exc}") from exc
        if hashlib.sha256(data).hexdigest() != digest:
            raise IngestError(f"ingested trace {digest[:12]} fails its digest")
        return _validated(data, str(path))["trace"]

    # -- fsck -----------------------------------------------------------------

    def scrub(self, fix: bool = False) -> "IngestScrubReport":
        """Digest + checksum every entry; flag manifest/trace orphans.

        With ``fix=True`` corrupt traces and orphaned manifests are
        deleted -- unlike the regenerable caches this *is* data loss, so
        fsck only fixes here when explicitly told to.
        """
        report = IngestScrubReport()
        manifests = {p.stem for p in self.root.glob("*.json")}
        for path in sorted(self.root.glob("*.svwt")):
            digest = path.stem
            report.scanned += 1
            try:
                data = path.read_bytes()
                if hashlib.sha256(data).hexdigest() != digest:
                    raise IngestError("content digest mismatch")
                verify_encoded(data)
            except (OSError, IngestError, TraceCodecError):
                report.corrupt.append(path.name)
            else:
                report.clean += 1
            if digest not in manifests:
                report.orphaned.append(f"{digest}.json (missing manifest)")
            manifests.discard(digest)
        report.orphaned.extend(f"{stem}.json" for stem in sorted(manifests))
        if fix:
            for name in report.corrupt + [
                o for o in report.orphaned if not o.endswith("(missing manifest)")
            ]:
                try:
                    (self.root / name).unlink()
                    report.repaired += 1
                except OSError:
                    pass
        return report

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.svwt"))


@dataclass(slots=True)
class IngestScrubReport:
    """What :meth:`IngestStore.scrub` found (and with ``fix``, removed)."""

    #: Trace files examined.
    scanned: int = 0
    #: Trace files whose digest and codec checksum both verified.
    clean: int = 0
    #: Trace files failing digest or checksum.  Removed when ``fix``.
    corrupt: list[str] = field(default_factory=list)
    #: Manifests without traces, or traces without manifests.
    orphaned: list[str] = field(default_factory=list)
    #: Files actually deleted (``fix=True`` runs only).
    repaired: int = 0

    @property
    def ok(self) -> bool:
        """True when nothing is corrupt or orphaned."""
        return not self.corrupt and not self.orphaned

    def describe(self) -> str:
        parts = [f"{self.scanned} ingested traces scanned, {self.clean} clean"]
        if self.corrupt:
            parts.append(f"{len(self.corrupt)} corrupt")
        if self.orphaned:
            parts.append(f"{len(self.orphaned)} orphaned")
        if self.repaired:
            parts.append(f"{self.repaired} repaired")
        return ", ".join(parts)
