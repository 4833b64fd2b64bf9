"""The package surface: lazy re-exports, what a worker process and the
commands that never simulate import, and the version string."""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
LAZY_PACKAGES = ("repro", "repro.experiments")

#: Modules a worker agent never executes: the trace generators (and numpy
#: through them), the campaign tier (and asyncio), the fuzzer, and the
#: kernel assembler and golden executor (a worker only decodes traces).
WORKER_NEVER_IMPORTS = (
    "numpy",
    "asyncio",
    "repro.experiments.campaign",
    "repro.experiments.fuzz",
    "repro.workloads.synthetic",
    "repro.workloads.mutate",
    "repro.isa.golden",
    "repro.isa.program",
)

WORKER_IMPORTS = f"""
import sys
from repro.harness.cli import build_parser
build_parser().parse_args(["worker"])
from repro.experiments.remote import WorkerAgent
print(" ".join(m for m in {WORKER_NEVER_IMPORTS!r} if m in sys.modules))
"""


def _fresh_interpreter(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; its stdout."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return result.stdout


def test_worker_imports_no_generator_or_campaign_tier():
    """What ``svw-repro worker`` imports before it serves, measured in a
    fresh interpreter."""
    assert _fresh_interpreter(WORKER_IMPORTS).split() == []


#: Modules a command that never simulates must not load.
NO_SIMULATION_NEVER_IMPORTS = ("numpy", "repro.pipeline.processor")


def test_commands_that_never_simulate_load_no_core_or_numpy(tmp_path):
    """``submit``, ``status``, ``cancel`` and ``fsck``, parsed and
    dispatched in one fresh interpreter against a live daemon."""
    from repro.experiments import CampaignDaemon

    (tmp_path / "store").mkdir()  # fsck checks a store, never creates one
    with CampaignDaemon() as daemon:
        target = ["fig5", "--campaign", daemon.address, "--insts", "1000", "--benchmarks", "gcc"]
        commands = [
            ["submit", *target],
            ["status", *target],
            ["cancel", *target],
            ["fsck", "--cache-dir", str(tmp_path / "store")],
        ]
        code = f"""
import contextlib, io, sys
from repro.harness.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in {commands!r}]
print(codes, [m for m in {NO_SIMULATION_NEVER_IMPORTS!r} if m in sys.modules])
"""
        assert _fresh_interpreter(code).strip() == "[0, 0, 0, 0] []"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves_to_its_defining_object(package):
    module = importlib.import_module(package)
    listing = dir(module)
    for name in module.__all__:
        value = getattr(module, name)
        assert name in listing
        if name == "__version__":
            continue
        # The hook itself, even for a name already cached in the namespace.
        assert module.__getattr__(name) is value
        defining = getattr(value, "__module__", None)
        if isinstance(defining, str) and defining.startswith("repro."):
            assert getattr(sys.modules[defining], name) is value
        else:  # a constant: bound under the same name in a submodule
            assert any(
                vars(sub).get(name) is value
                for key, sub in list(sys.modules.items())
                if key.startswith(package + ".")
            )


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_export_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})


def test_version_matches_pyproject():
    # A regex, not tomllib: the CI matrix includes Python 3.10.
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert match is not None
    assert repro.__version__ == match.group(1)
