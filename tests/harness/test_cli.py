"""The ``svw-repro`` parser: every command line that CI, the drivers and
the docs use parses, and a flag a command does not take is a usage error."""

from __future__ import annotations

import re
import shlex
import subprocess
from pathlib import Path

import pytest

from repro.experiments import remote
from repro.experiments.spec import DEFAULT_INSTS, FUZZ_INSTS
from repro.harness import cli
from repro.harness.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[2]

#: The command lines of ``.github/workflows/ci.yml`` (``$sweep`` expanded),
#: ``benchmarks/campaign_equivalence.py`` and
#: ``benchmarks/chaos_equivalence.py``.
DRIVER_COMMANDS = [
    "fig5 --benchmarks gcc --insts 2000 --jobs 2 --json - --quiet",
    "worker --host 127.0.0.1 --port 7501 --trace-cache-dir /tmp/svw-worker-cache --quiet",
    "worker --host 127.0.0.1 --port 7502 --trace-cache-dir /tmp/svw-worker-cache --quiet",
    "fig5 --benchmarks gcc,vortex --insts 6000 --quiet --json serial.json",
    "fig5 --benchmarks gcc,vortex --insts 6000 --quiet --jobs 2 --json jobs2.json",
    "fig5 --benchmarks gcc,vortex --insts 6000 --quiet --jobs 3 --json jobs3.json",
    "fig5 --benchmarks gcc,vortex --insts 6000 --quiet"
    " --remote-workers 127.0.0.1:7501,127.0.0.1:7502 --json remote.json",
    "campaignd --host 127.0.0.1 --port 7500 --cache-dir central --quiet",
    "worker --host 127.0.0.1 --port 0 --register 127.0.0.1:7500 --quiet",
    "campaignd --host 127.0.0.1 --port 7500 --cache-dir central"
    " --fault-plan seed=11,corrupt_rate=0.5,truncate_rate=0.2,max_faults=5"
    " --job-deadline 4 --max-attempts 5",
    "worker --host 127.0.0.1 --port 0 --register 127.0.0.1:7500 --quiet"
    " --fault-plan seed=7,crash_after=3",
    "fsck --trace-cache-dir /tmp/svw-worker-cache",
    "fsck --cache-dir central",
    "fsck --cache-dir central --fix",
]

_EXAMPLE = re.compile(r"^\s*(?:\S*\$\s+)?svw-repro (.+?)(?:\s+#.*)?$")


def _code_block_lines(text: str) -> list[str]:
    lines, inside = [], False
    for line in text.splitlines():
        if line.startswith("```"):
            inside = not inside
        elif inside:
            lines.append(line)
    return lines


def documented_commands() -> list[str]:
    """Every ``svw-repro ...`` line of a README code block and of the
    ``cli`` module's examples."""
    readme = _code_block_lines((ROOT / "README.md").read_text())
    lines = readme + cli.__doc__.splitlines()
    return [m.group(1) for m in map(_EXAMPLE.match, lines) if m is not None]


def test_docs_have_examples():
    assert len(documented_commands()) > 40


@pytest.mark.parametrize("line", DRIVER_COMMANDS + documented_commands())
def test_every_used_command_line_parses(line):
    args = build_parser().parse_args(shlex.split(line))
    assert callable(args.run)


def test_spawned_worker_agents_command_line_parses(monkeypatch):
    """The argv ``spawn_worker_agents`` starts each loopback agent with."""
    spawned = []

    def popen(command, **kwargs):
        spawned.append(command)
        raise OSError("not started")

    monkeypatch.setattr(subprocess, "Popen", popen)
    with pytest.raises(OSError):
        remote.spawn_worker_agents(1)
    (command,) = spawned
    argv = command[command.index("repro.harness.cli") + 1 :]
    assert argv[0] == "worker"
    args = build_parser().parse_args(argv)
    assert (args.host, args.port, args.trace_cache_dir, args.quiet) == (
        "127.0.0.1", 0, None, True
    )


#: Per command family: a valid command line, and one flag the family
#: does not take (five for ``fig5``, three for ``worker``).
FOREIGN_FLAGS = {
    "fig5": (
        "fig5 --benchmarks gcc --insts 2000",
        "--fix --rounds 9 --stages --lsus ssq --repeats 4",
    ),
    "all": ("all", "--seed 3"),
    "fuzz": ("fuzz", "--benchmarks gcc"),
    "goldens": ("goldens", "--insts 1000"),
    "worker": ("worker", "--job-deadline 5 --cache-dir X --slots 2"),
    "campaignd": ("campaignd", "--slots 2"),
    "submit": ("submit fig5 --campaign 127.0.0.1:1", "--quiet"),
    "status": ("status fig5 --campaign 127.0.0.1:1", "--json -"),
    "cancel": ("cancel fig5 --campaign 127.0.0.1:1", "--fallback local"),
    "fsck": ("fsck --cache-dir central", "--insts 1000"),
}


@pytest.mark.parametrize("family", list(FOREIGN_FLAGS))
def test_a_flag_that_does_not_apply_exits_2(family, capsys):
    """The error is the command's own: its usage line, its name."""
    valid, foreign = FOREIGN_FLAGS[family]
    assert callable(build_parser().parse_args(shlex.split(valid)).run)
    with pytest.raises(SystemExit) as excinfo:
        main(shlex.split(f"{valid} {foreign}"))
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: svw-repro {family} [-h]")
    assert f"svw-repro {family}: error: unrecognized arguments: {foreign}" in err


def test_there_is_no_bench_command(capsys):
    """``benchmarks/ab_cells.py`` is the one core-throughput tool."""
    with pytest.raises(SystemExit) as excinfo:
        main(["bench"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["submit", "--campaign", "127.0.0.1:1"], "required: target"),
        (["status", "fig5"], "required: --campaign"),
        (["submit", "fig99", "--campaign", "127.0.0.1:1"], "invalid choice: 'fig99'"),
        (["cancel", "fig99", "--campaign", "127.0.0.1:1"], "unknown target 'fig99'"),
        (["fig5", "--fallback", "local"], "--fallback requires --campaign"),
    ],
)
def test_campaign_usage_errors_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: svw-repro {argv[0]} [-h]")
    assert message in err


def test_fetch_is_not_a_command(capsys):
    """``svw-repro <experiment> --campaign`` is the one way to wait for a
    campaign and render it."""
    with pytest.raises(SystemExit) as excinfo:
        main(["fetch", "fig5", "--campaign", "127.0.0.1:1"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'fetch'" in capsys.readouterr().err


def test_remote_workers_is_a_host_port_list():
    parse = build_parser().parse_args
    assert parse(["fig5", "--remote-workers", "a:1, b:2"]).remote_workers == ["a:1", "b:2"]
    assert parse(["fig5"]).remote_workers is None


@pytest.mark.parametrize(
    "value, message",
    [
        (",,,", "no worker addresses"),
        ("", "no worker addresses"),
        ("host-no-port", "missing a port"),
        ("a:1,malformed:x", "non-numeric port"),
        ("auto:two", "non-numeric port"),
        ("auto:0", "out-of-range port"),
    ],
)
def test_malformed_remote_workers_exit_2_naming_the_flag(value, message, capsys):
    """Each address goes through ``parse_worker`` while the command line
    is parsed, before any backend starts."""
    for command in ("fig5", "fuzz"):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--remote-workers", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: svw-repro {command} [-h]")
        assert "argument --remote-workers: " in err and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fig5"],
        ["fuzz"],
        ["submit", "fig5"],
        ["status", "fig5"],
        ["cancel", "fig5"],
    ],
)
def test_malformed_campaign_address_exits_2_naming_the_flag(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--campaign", "daemon:x"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: svw-repro {argv[0]} [-h]")
    assert "argument --campaign: address 'daemon:x' has a non-numeric port" in err


def test_status_takes_a_raw_campaign_id():
    campaign_id = "0123456789abcdef" * 4
    args = build_parser().parse_args(["status", campaign_id, "--campaign", "h:1"])
    assert args.target == campaign_id


def test_fuzz_insts_default_and_override():
    parser = build_parser()
    assert parser.parse_args(["fuzz"]).insts == FUZZ_INSTS
    assert parser.parse_args(["fuzz", "--insts", "30000"]).insts == 30000
    assert parser.parse_args(["fig5"]).insts == DEFAULT_INSTS
