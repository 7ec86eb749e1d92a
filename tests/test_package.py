"""The package runs on the standard library alone, as README and
pyproject.toml promise, and ships the fork-server shim's source."""

import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

TEST_ONLY = ("numpy", "scipy", "hypothesis", "pytest")


def run_python(code):
    """Run ``code`` in a fresh interpreter that imports the package from
    src/; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_runtime_imports_no_test_dependency():
    code = (
        "import sys, truzz, truzz.cli, truzz.engine, truzz.report, truzz.targets\n"
        f"print(*[m for m in {TEST_ONLY!r} if m in sys.modules])\n"
    )
    assert run_python(code).split() == []


def test_import_starts_no_process():
    """The shim is built, if ever, when an external target is made."""
    code = (
        "import sys\n"
        "events = ('os.exec', 'os.fork', 'os.forkpty', 'os.posix_spawn', 'os.spawn',\n"
        "          'os.system', 'subprocess.Popen')\n"
        "seen = []\n"
        "sys.addaudithook(lambda event, args: event in events and seen.append(event))\n"
        "import truzz, truzz.cli, truzz.engine, truzz.report, truzz.target, truzz.targets\n"
        "print(*seen)\n"
    )
    assert run_python(code).split() == []


def test_shim_source_ships_as_package_data():
    source = resources.files("truzz").joinpath("forkserver.c")
    assert source.is_file()
    assert b"__attribute__((constructor))" in source.read_bytes()
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert "forkserver.c" in pyproject["tool"]["setuptools"]["package-data"]["truzz"]
