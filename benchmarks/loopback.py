"""Process helpers shared by the service-tier gates
(``campaign_equivalence.py`` and ``chaos_equivalence.py``): a free
loopback port, ``svw-repro`` subprocesses run from this checkout's
``src``, and a wait for a listener.  Not a test module."""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def spawn(args: list[str], stderr_path: Path | None = None) -> subprocess.Popen:
    """``svw-repro ARGS`` in the background; its stderr is appended to
    ``stderr_path``, or discarded without one."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro.harness.cli", *args],
        env=cli_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL if stderr_path is None else open(stderr_path, "ab"),
    )


def wait_port(port: int, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            return
        except OSError:
            if time.monotonic() > deadline:
                raise SystemExit(f"nothing listening on :{port} after {timeout}s")
            time.sleep(0.2)
