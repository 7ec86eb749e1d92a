"""Golden outputs that pin campaign behaviour across refactors.

Each config runs a small seeded campaign and compares sha256 digests of
its artifacts with digests recorded before the engine's synthetic and
external fuzz loops were merged into one; that refactor left them
unchanged. A change meant to keep behaviour must keep these digests.

The external digest was recorded again when crashes found by byte-analysis
probes began to be saved: its ``crashes/`` gained ``crash_000001``, while
its ``queue/``, ``meta/`` and ``overall.cov`` stayed the same.

Each digest is checked twice: with the round's children made and scored
by ``mutate.c`` where it can be built, and with its loaders made to find
no library, so that ``mutate`` makes each child and Python scores it. The
kernel decodes the same MT19937 words as ``mutate``, and the C scorer
gives the codes Python does, so the digests are the same.
A change to the mutation stream records new digests here and says so in
CHANGES.md.

The resumed magic64 case runs a second campaign on the first one's corpus
under another RNG seed, so it pins the resume path: the queue re-run, the
saved analyses reattached from ``meta/`` and the corpus persisted again.
Its digest was recorded before the resume path was rewritten, and again
when a resume began to keep the edges ``overall.cov`` lists: its
``stats.csv``, ``queue/`` and ``meta/`` changed, its ``overall.cov`` did not.

The checks30 case runs ``many_checks_spec(30)``, 30 one-byte checks, from
a seed of 64 zero bytes. Past CODE_CHECKS checks every round is scored in
Python, and nearly every child reaches an outcome code no earlier child
did, so this case pins the building of a result from its code and the
Python scorer. Its digest was recorded, with the kernel and without it,
before the synthetic runner began to build results from a compiled
outcome table; the other five were left as they were.

Synthetic campaigns charge virtual time, so their whole ``stats.csv`` is
pinned. The external campaign's ``elapsed_s`` is wall-clock, so its
``stats.csv`` is left out.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from harness import external_config, make_corpus, many_checks, without_mutate_c

import truzz.mutation
from truzz.engine import Budget, Campaign, CampaignConfig
from truzz.scheduler import Policy, SchedulerConfig

SYNTHETIC_PARTS = ("stats.csv", "queue", "meta", "overall.cov")
EXTERNAL_PARTS = ("queue", "meta", "crashes", "overall.cov")

# name -> (target, policy, mask, budget, rng_seeds); each RNG seed runs one
# campaign of ``budget`` executions, every one after the first a resume.
# The target is a bundled one, run from its seed, or "checks30".
SYNTHETIC = {
    "magic64-truzz": ("magic64", Policy.TRUZZ, True, 20_000, (3,)),
    "chain128-truzz": ("chain128", Policy.TRUZZ, True, 30_000, (1,)),
    "header128-fifo": ("header128", Policy.FIFO, False, 20_000, (2,)),
    "magic64-truzz-resume": ("magic64", Policy.TRUZZ, True, 5_000, (3, 103)),
    "checks30-truzz": ("checks30", Policy.TRUZZ, True, 20_000, (1,)),
}

GOLDEN = {
    "magic64-truzz": "7a31e355bc36fe4af9f41af815d4304181f4891a8f39f7b9b74912879d21c5d3",
    "chain128-truzz": "30f813f66f3de96f41da4d051bb7c956ade978923b024ee060d270bdbb763088",
    "header128-fifo": "f2546f6a0d5e8bdda9fb66405091397312dd3c7fc41458aa00e0cfa9ebb1f67d",
    "external-crashy": "30413e8e148b16fac9489c5dde40a6d2d7334862c5dd287b6c80841a86d2dac7",
    "magic64-truzz-resume": "c3d56d6b93750fc2d5021cf83f98a9c3d97e912cee7da282fb96970510a89b3d",
    "checks30-truzz": "4bc09df1f29a310257a4e62847615ca68ba8ecab3fdb2e801c738cf09edd6c73",
}


def digest(corpus: Path, parts) -> str:
    """sha256 over the name and bytes of every file under ``parts``."""
    h = hashlib.sha256()
    for part in parts:
        root = corpus / part
        files = [root] if root.is_file() else sorted(root.iterdir())
        for f in files:
            h.update(f.relative_to(corpus).as_posix().encode() + b"\0")
            h.update(f.read_bytes() + b"\0")
    return h.hexdigest()


def run_synthetic(name: str, tmp_path: Path) -> str:
    target, policy, mask, budget, rng_seeds = SYNTHETIC[name]
    if target == "checks30":
        spec_path, corpus = many_checks(tmp_path, 30, "corpus")
    else:
        spec_path, corpus = make_corpus(tmp_path, target, "corpus")
    for rng_seed in rng_seeds:
        Campaign(CampaignConfig(
            corpus_dir=str(corpus),
            target_spec=spec_path,
            budget=Budget(max_execs=budget),
            scheduler=SchedulerConfig(policy=policy),
            mask_enabled=mask,
            rng_seed=rng_seed,
            stats_interval=1_000,
        )).run()
    return digest(corpus, SYNTHETIC_PARTS)


def run_external(tmp_path: Path) -> str:
    cfg = external_config(
        tmp_path, "corpus", budget=Budget(max_execs=150),
        scheduler=SchedulerConfig(energy=30), rng_seed=5, stats_interval=50,
    )
    stats = Campaign(cfg).run()
    assert stats.crashes > 0
    return digest(Path(cfg.corpus_dir), EXTERNAL_PARTS)


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_synthetic_campaign_matches_golden(name, tmp_path):
    assert run_synthetic(name, tmp_path) == GOLDEN[name]


def test_external_crashing_campaign_matches_golden(tmp_path):
    assert run_external(tmp_path) == GOLDEN["external-crashy"]


@pytest.fixture()
def no_kernel(monkeypatch):
    """``mutate.c``'s loaders find no library, as on a host with no compiler."""
    without_mutate_c(monkeypatch)


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_synthetic_campaign_matches_golden_without_kernel(name, tmp_path, no_kernel):
    assert run_synthetic(name, tmp_path) == GOLDEN[name]


def test_external_crashing_campaign_matches_golden_without_kernel(tmp_path, no_kernel):
    assert run_external(tmp_path) == GOLDEN["external-crashy"]


def test_kernel_makes_every_child(tmp_path, monkeypatch):
    """Where the kernel loads, the fuzz loop calls ``mutate`` for no child."""
    if truzz.mutation._kernel() is None:
        pytest.skip("no C compiler on this host")

    def refuse(*args):
        raise AssertionError("a child was made by mutate")

    monkeypatch.setattr(truzz.mutation, "mutate", refuse)
    assert run_synthetic("magic64-truzz", tmp_path) == GOLDEN["magic64-truzz"]


def test_campaign_without_a_compiler_matches_golden(tmp_path):
    """With no compiler on PATH and an empty cache, ``truzz fuzz`` builds
    nothing and runs the campaign to the golden corpus in Python."""
    target, policy, mask, budget, (rng_seed,) = SYNTHETIC["magic64-truzz"]
    spec_path, corpus = make_corpus(tmp_path, target, "corpus")
    env = dict(os.environ, PATH="", XDG_CACHE_HOME=str(tmp_path / "cache"),
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "truzz.cli", "fuzz", "--target", spec_path,
         "--corpus", str(corpus), "--budget-execs", str(budget),
         "--policy", policy.value, "--mask", "on" if mask else "off",
         "--rng-seed", str(rng_seed), "--stats-interval", "1000"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert list((tmp_path / "cache").rglob("*.so")) == []
    assert digest(corpus, SYNTHETIC_PARTS) == GOLDEN["magic64-truzz"]
