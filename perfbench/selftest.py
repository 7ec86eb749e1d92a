"""Self-test of the benchmark; run with ``python3 -m pytest perfbench/selftest.py``.

Tiny-budget runs of every workload must emit every metric that
``BENCHMARK.json`` names, with all checks passing; the correctness check
must flag a deliberately corrupted ``.meta`` file; the speed probe must
sample while the work runs; and a missing compiler, program or entry
point must each stop the benchmark with a named error.
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

bench.import_truzz(bench.ROOT)
import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import truzz.engine  # noqa: E402
import truzz.target  # noqa: E402
from truzz.engine import Budget, Campaign, CampaignConfig  # noqa: E402
from truzz.targets import bundled_seed, load_bundled, write_bundled  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_tiny_run_emits_every_metric(tmp_path, workload, trace):
    results = bench.run(bench.ROOT, tmp_path, workload, seed=3, seconds=0, trace=trace,
                        scale=0.01, setup_samples=1)
    line = results["line"]
    assert line["correct"], results["problems"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert line["metrics"] == {
        name: {"value": line["metrics"][name]["value"], "unit": unit}
        for name, unit in expected.items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    printed = set(results["printed"])
    assert {"execs_per_s", "setup_s", "edges", "peak_rss_mb", "failed_frac"} <= printed
    assert ("valid_ratio" in printed) == (workload != "external-cmd")
    assert ("execs_per_wall_s" in printed) == (not trace)
    env = results["environment"]
    n_sets = 1 if trace else bench.SETS_PER_RUN
    assert env["workload_seed"] == 3
    assert len(env["campaigns"]) == n_sets * len(bench.WORKLOADS[workload].campaigns)


def test_speed_probe_samples_while_the_work_runs():
    with speed.SpeedProbe() as probe:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.3:
            pass
    # One sample up front, then one per interval.
    assert len(probe.ratios) >= 1 + 0.3 / speed.INTERVAL_S - 2
    assert all(r > 0 for r in probe.ratios)
    assert 0 < probe.overhead < 0.3
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_check_flags_corrupted_meta(tmp_path):
    spec_path, _ = write_bundled("magic64", tmp_path / "target")
    corpus = tmp_path / "corpus"
    (corpus / "seeds_in").mkdir(parents=True)
    (corpus / "seeds_in" / "seed").write_bytes(bundled_seed("magic64"))
    stats = Campaign(CampaignConfig(corpus_dir=str(corpus), target_spec=spec_path,
                                    budget=Budget(max_execs=3_000), rng_seed=7)).run()
    spec = load_bundled("magic64")[0]
    assert checks.check_campaign(corpus, stats, 3_000, spec) == []

    copy = tmp_path / "copy"
    shutil.copytree(corpus, copy)
    meta = sorted((copy / "meta").glob("id_*.meta"))[-1]
    size = int(checks.read_meta(meta)["path_size"])
    text = meta.read_text(encoding="ascii")
    meta.write_text(text.replace(f"path_size = {size}", f"path_size = {size + 1}"), encoding="ascii")
    problems = checks.check_campaign(copy, stats, 3_000, spec)
    assert len(problems) == 1 and "meta" in problems[0]


@pytest.mark.parametrize("owner, attr", [(truzz.engine, "draw_op_count"),
                                         (truzz.target.CompiledTarget, "run")])
def test_missing_wrapped_entry_point_is_a_named_error(monkeypatch, owner, attr):
    monkeypatch.delattr(owner, attr)
    tracer = tracing.Tracer()
    try:
        with pytest.raises(bench.MissingEntryPointError, match=attr):
            tracer.install_spans()
    finally:
        tracer.uninstall()


def test_missing_reference_interpreter_is_a_named_error(monkeypatch, tmp_path):
    monkeypatch.delattr(truzz.target, "execute_synthetic")
    with pytest.raises(bench.MissingEntryPointError, match="execute_synthetic"):
        checks.check_campaign(tmp_path, None, 1, load_bundled("magic64")[0])


def test_missing_signature_cache_is_a_named_error(tmp_path):
    b = bench.Bench(bench.ROOT, tmp_path, "synth-truzz", seed=3, scale=0.01, n_sets=1)
    plan = b.sets[0][0]

    class Campaign:
        compiled = object()

    with pytest.raises(bench.MissingEntryPointError, match="_cache"):
        b.layer_facts(plan, Campaign())


def test_missing_compiler_is_a_named_error(monkeypatch):
    monkeypatch.delenv("CC", raising=False)
    monkeypatch.setenv("PATH", "")
    with pytest.raises(bench.CompilerNotFoundError):
        bench.find_cc()


def test_fails_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "synth-truzz", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
