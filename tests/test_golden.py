"""Golden outputs that pin campaign behaviour across refactors.

Each config runs a small seeded campaign and compares sha256 digests of
its artifacts with digests recorded before the engine's synthetic and
external fuzz loops were merged into one; that refactor left them
unchanged. A change meant to keep behaviour must keep these digests.

The external digest was recorded again when crashes found by byte-analysis
probes began to be saved: its ``crashes/`` gained ``crash_000001``, while
its ``queue/``, ``meta/`` and ``overall.cov`` stayed the same.

The ROADMAP direction "counter-keyed, batched mutation" changes the
mutation stream and is expected to change these digests once. That change
records the new digests here and says so in CHANGES.md.

The resumed magic64 case runs a second campaign on the first one's corpus
under another RNG seed, so it pins the resume path: the queue re-run, the
saved analyses reattached from ``meta/`` and the corpus persisted again.
Its digest was recorded before the resume path was rewritten.

Synthetic campaigns charge virtual time, so their whole ``stats.csv`` is
pinned. The external campaign's ``elapsed_s`` is wall-clock, so its
``stats.csv`` is left out.
"""

import hashlib
import sys
from pathlib import Path

import pytest
from test_engine import CRASHY_TARGET

from truzz.engine import Budget, Campaign, CampaignConfig
from truzz.scheduler import Policy, SchedulerConfig
from truzz.targets import bundled_seed, write_bundled

SYNTHETIC_PARTS = ("stats.csv", "queue", "meta", "overall.cov")
EXTERNAL_PARTS = ("queue", "meta", "crashes", "overall.cov")

# name -> (target, policy, mask, budget, rng_seeds); each RNG seed runs one
# campaign of ``budget`` executions, every one after the first a resume.
SYNTHETIC = {
    "magic64-truzz": ("magic64", Policy.TRUZZ, True, 20_000, (3,)),
    "chain128-truzz": ("chain128", Policy.TRUZZ, True, 30_000, (1,)),
    "header128-fifo": ("header128", Policy.FIFO, False, 20_000, (2,)),
    "magic64-truzz-resume": ("magic64", Policy.TRUZZ, True, 5_000, (3, 103)),
}

GOLDEN = {
    "magic64-truzz": "7a31e355bc36fe4af9f41af815d4304181f4891a8f39f7b9b74912879d21c5d3",
    "chain128-truzz": "30f813f66f3de96f41da4d051bb7c956ade978923b024ee060d270bdbb763088",
    "header128-fifo": "f2546f6a0d5e8bdda9fb66405091397312dd3c7fc41458aa00e0cfa9ebb1f67d",
    "external-crashy": "30413e8e148b16fac9489c5dde40a6d2d7334862c5dd287b6c80841a86d2dac7",
    "magic64-truzz-resume": "477c280a180d5be760f077e847f6f7010324b2843dc70b85c6d4607a4eee7fa3",
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


def _corpus(tmp_path: Path, seed: bytes) -> Path:
    corpus = tmp_path / "corpus"
    (corpus / "seeds_in").mkdir(parents=True)
    (corpus / "seeds_in" / "seed").write_bytes(seed)
    return corpus


def run_synthetic(name: str, tmp_path: Path) -> str:
    target, policy, mask, budget, rng_seeds = SYNTHETIC[name]
    spec_path, _ = write_bundled(target, tmp_path / "target")
    corpus = _corpus(tmp_path, bundled_seed(target))
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
    script = tmp_path / "target.py"
    script.write_text(CRASHY_TARGET)
    corpus = _corpus(tmp_path, b"\x00" * 8)
    stats = Campaign(CampaignConfig(
        corpus_dir=str(corpus),
        command=[sys.executable, str(script), "@@"],
        budget=Budget(max_execs=150),
        scheduler=SchedulerConfig(energy=30),
        rng_seed=5,
        stats_interval=50,
    )).run()
    assert stats.crashes > 0
    return digest(corpus, EXTERNAL_PARTS)


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_synthetic_campaign_matches_golden(name, tmp_path):
    assert run_synthetic(name, tmp_path) == GOLDEN[name]


def test_external_crashing_campaign_matches_golden(tmp_path):
    assert run_external(tmp_path) == GOLDEN["external-crashy"]
