"""``benchmarks/loopback.py``, the process helpers of the service-tier
gates: a bindable free port, ``svw-repro`` run from this checkout's
``src``, its stderr appended or discarded, and a wait for a listener
that gives up naming the port."""

import importlib.util
import os
import socket
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _load_helpers():
    spec = importlib.util.spec_from_file_location("loopback", REPO / "benchmarks" / "loopback.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


loopback = _load_helpers()


def test_free_port_can_be_bound():
    port = loopback.free_port()
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", port))


def test_cli_env_puts_this_checkouts_src_first(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    env = loopback.cli_env()
    assert env["PYTHONPATH"].split(os.pathsep) == [str(REPO / "src"), "/elsewhere"]
    assert os.environ["PYTHONPATH"] == "/elsewhere"


def test_wait_port_returns_once_something_listens():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        sock.listen()
        loopback.wait_port(sock.getsockname()[1], timeout=5)


def test_wait_port_gives_up_naming_the_port():
    port = loopback.free_port()
    with pytest.raises(SystemExit, match=f"nothing listening on :{port} after 0.3s"):
        loopback.wait_port(port, timeout=0.3)


def test_spawn_appends_stderr_to_the_path(tmp_path):
    log = tmp_path / "stderr.log"
    for _ in range(2):
        assert loopback.spawn(["bench"], log).wait(timeout=60) == 2
    assert log.read_text().count("invalid choice: 'bench'") == 2


def test_spawn_without_a_path_discards_stderr(capfd):
    assert loopback.spawn(["bench"]).wait(timeout=60) == 2
    assert capfd.readouterr().err == ""
