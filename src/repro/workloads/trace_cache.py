"""Content-addressed on-disk cache of encoded traces.

Trace generation is the single most expensive non-simulation step of a
sweep (~as costly as simulating the trace once), and its output depends
only on ``(profile, n_insts)`` and the generator's code.  This cache
stores the :mod:`repro.isa.codec` encoding of each generated trace under
a key derived from the profile fingerprint, the generator seed, the
instruction budget and :data:`~repro.fingerprint.TRACE_EPOCH`, so
repeated sweeps -- and every backend of one sweep -- skip generation
entirely and pay only the (much cheaper) decode.

The cache stores *encoded bytes*, not traces: callers that ship traces to
workers (the worker-fleet trace wire) can forward the bytes without
re-encoding, and a cache hit never pays object construction it does not
need.

Corruption safety mirrors :class:`~repro.experiments.store.ResultStore`:
writes are atomic (tmp file + rename), and entries whose checksum or
layout fails to decode are treated as misses by callers (the codec
validates on decode), so a torn or stale file costs one regeneration,
never a wrong result.
"""

from __future__ import annotations

from pathlib import Path

from repro import fingerprint
from repro.ioutil import ScrubReport, Verdict, atomic_write_bytes, scrub
from repro.isa.codec import CODEC_VERSION, TraceCodecError, verify_encoded
from repro.workloads.profile import WorkloadProfile


def trace_key(profile: WorkloadProfile, n_insts: int) -> str:
    """Cache identity of ``generate_trace(profile, n_insts)``.

    The profile fingerprint already covers the seed; the seed and budget
    stay in the key anyway so cache filenames are self-describing.  Like
    every workload key it ends in the generator's ``-e{TRACE_EPOCH}``.
    """
    return f"{profile.fingerprint()}-s{profile.seed}-n{n_insts}-e{fingerprint.TRACE_EPOCH}"


class TraceCache:
    """Encoded-trace files rooted at ``root``, one per workload key.

    The trace epoch (ending the key) and the codec version are part of the
    filename: bumping either orphans old entries instead of making
    decoders reject them one by one.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.v{CODEC_VERSION}.svwt"

    def load(self, key: str) -> bytes | None:
        """Encoded trace bytes for ``key``, or None on miss.

        Returns raw bytes without validating them -- the codec's decode
        path checksums the payload, and callers fall back to regeneration
        on :class:`~repro.isa.codec.TraceCodecError`.
        """
        try:
            return self.path_for(key).read_bytes()
        except OSError:
            return None

    def save(self, key: str, data: bytes) -> None:
        atomic_write_bytes(self.path_for(key), data)

    def scrub(self, fix: bool = False) -> ScrubReport:
        """Checksum every cached trace without materializing any of them.

        A ``*.svwt`` file from another trace epoch or codec version is an
        orphan (no key names it, so it is dead weight, not a risk); each
        current one must pass :func:`~repro.isa.codec.verify_encoded`.
        Everything else follows the one rule of
        :func:`~repro.ioutil.scrub` -- like the result store, the cache
        is recomputable, so a repair costs one regeneration, never data.
        """
        return scrub(self.root, _judge, fix)

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.svwt"))


def _judge(path: Path) -> Verdict:
    if path.suffix != ".svwt":
        return None
    if not path.name.endswith(f"-e{fingerprint.TRACE_EPOCH}.v{CODEC_VERSION}.svwt"):
        return "orphaned"
    try:
        verify_encoded(path.read_bytes())
    except (OSError, TraceCodecError):
        return "corrupt"
    return "clean"
