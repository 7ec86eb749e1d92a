"""The package runs on the standard library alone, as README and
pyproject.toml promise."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TEST_ONLY = ("numpy", "scipy", "hypothesis", "pytest")


def test_runtime_imports_no_test_dependency():
    code = (
        "import sys, truzz, truzz.cli, truzz.engine, truzz.report, truzz.targets\n"
        f"print(*[m for m in {TEST_ONLY!r} if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == []
