"""The session worker pool: one process-wide pool per worker count.

Every pooled sweep in a process draws its workers from here.  The pool is
created on first use and reused by every later run that asks for the same
size, so a multi-sweep session -- ``svw-repro all`` runs eight figure
sweeps back to back -- pays worker fork+import once, and the workers'
decoded-trace memos (:mod:`repro.experiments.batch`) stay warm across
figures that share workloads.  Pools are shut down at interpreter exit
(or explicitly via :func:`shutdown_session_pools`); a pool broken by a
crashed worker is discarded and replaced on the next acquisition.

Pool lifetime changes *scheduling* only -- results remain positionally
aligned and bit-identical to serial execution.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor

#: Live session pools keyed by worker count.
_session_pools: dict[int, ProcessPoolExecutor] = {}


def _probe() -> None:
    """No-op task submitted to health-check a cached pool."""


def session_pool(workers: int) -> ProcessPoolExecutor:
    """The session pool for ``workers``, created or revived on demand."""
    pool = _session_pools.get(workers)
    if pool is not None:
        try:
            # Documented-behavior health check: submit raises
            # BrokenProcessPool if a worker died mid-task (the executor is
            # then permanently unusable) and RuntimeError if something shut
            # the pool down -- either way it must be replaced, and this
            # avoids depending on the executor's private broken flag.
            pool.submit(_probe)
        except Exception:
            pool.shutdown(wait=False, cancel_futures=True)
            pool = None
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers)
        _session_pools[workers] = pool
    return pool


def shutdown_session_pools(wait: bool = True) -> None:
    """Tear down every session pool (idempotent; also runs atexit)."""
    while _session_pools:
        _, pool = _session_pools.popitem()
        pool.shutdown(wait=wait, cancel_futures=True)


atexit.register(shutdown_session_pools)
