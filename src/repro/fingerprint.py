"""Stable content fingerprints.

Every layer that participates in result caching (machine configurations,
workload profiles, traces, run requests) reduces itself to a JSON-friendly
dict and digests it here.  The digest is the cache identity: equal inputs
must produce equal digests across processes and Python versions, which is
why the encoding is canonicalized (sorted keys, no whitespace) rather than
relying on ``hash()`` (randomized per process) or ``pickle`` (protocol- and
version-dependent).

Two epochs version what the digests cannot see, the code behind them.
Every cache key carries the epoch of the code that filled it, so a bump
makes every older entry a miss:

- :data:`MODEL_EPOCH` covers the timing model (the simulator core, the
  LSUs, the memory hierarchy): a change that moves a simulated statistic
  without moving a trace bumps it.  It is hashed into every run-request
  fingerprint, so result stores and campaign ids roll over.
- :data:`TRACE_EPOCH` covers the trace generators (synthetic, phased,
  mutated): a change that moves a generated instruction stream bumps it.
  It ends every workload key, so trace-cache files, decoded-trace memos
  and trace-affine dispatch roll over, and it is hashed into every
  run-request fingerprint, because a result depends on its trace too.

Bump one, run ``svw-repro goldens``, and review the table diff; the
golden table records both epochs and its test refuses a stale one.  Keys
read the epochs from this module when they are built, so one assignment
moves every key.  This module imports only the standard library, so a
worker agent reads the epochs without loading numpy or the generators.
"""

from __future__ import annotations

import hashlib
import json

#: Timing-model epoch (see above).
MODEL_EPOCH = 1

#: Trace-generator epoch (see above).  Encoded traces do not carry it:
#: the codec header records only ``CODEC_VERSION``.
TRACE_EPOCH = 2


def _coerce(obj: object) -> object:
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"{type(obj).__name__} is not fingerprintable")


def stable_digest(payload: object) -> str:
    """SHA-256 hex digest of a canonical JSON encoding of ``payload``."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_coerce)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()
