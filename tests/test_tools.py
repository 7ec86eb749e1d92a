"""The measurement scripts in ``tools/`` run against the package."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import truzz.mutation

ROOT = Path(__file__).resolve().parents[1]


def test_round_breakdown_prints_the_kernel_share(tmp_path):
    """At a 2k-exec budget per campaign, ``round_breakdown.py`` runs the
    four campaigns once and prints microseconds per execution and the
    part of them spent in the C call, which is no more than the whole."""
    if truzz.mutation._kernel() is None:
        pytest.skip("no C compiler on this host")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "round_breakdown.py"),
         "--seeds", "7", "--repeats", "1", "--max-execs", "2000"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = re.fullmatch(r"rng seed 7: (\d+) execs, ([\d.]+) us per exec, "
                        r"([\d.]+) us per exec in the C call, (-?[\d.]+) us elsewhere\n",
                        proc.stdout)
    assert line, proc.stdout
    executions, per_exec, in_call = int(line[1]), float(line[2]), float(line[3])
    assert executions == 4 * 2000
    assert 0 < in_call <= per_exec
