"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
to the terminal (bypassing capture) so the gate's outcome is readable from
any pytest run. Campaign-based criteria run real desk-scale A/B campaigns
on the bundled synthetic targets.
"""

import math
import statistics
from fractions import Fraction

from harness import (
    TruzzPicks,
    brute_a12,
    greedy_ranks,
    make_corpus,
    path_runner,
    paths,
    reference_probe_count,
    spec_runner,
    valid_ratio_misreads,
    vanilla_fifo,
)

from truzz.byte_analysis import AnalysisConfig, analyze, path_fitness
from truzz.engine import Budget, Campaign, CampaignConfig, run_campaign
from truzz.mutation import Rng
from truzz.report import a12
from truzz.scheduler import Corpus, Policy, SchedulerConfig, dry_run
from truzz.targets import COVERAGE_TARGET, VALID_RATIO_TARGETS, bundled_seed, load_bundled


def _report(capsys, num, desc, ok):
    with capsys.disabled():
        print(f"\n[acceptance {num}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def _campaign(tmp_path, label, target_name, *, policy, mask, rng_seed, budget):
    spec_path, corpus = make_corpus(tmp_path, target_name, label)
    cfg = CampaignConfig(
        corpus_dir=str(corpus),
        target_spec=spec_path,
        budget=Budget(max_execs=budget),
        scheduler=SchedulerConfig(policy=policy),
        mask_enabled=mask,
        rng_seed=rng_seed,
        stats_interval=budget,
    )
    return run_campaign(cfg)


def test_criterion_1_fitness_fixtures(capsys):
    def fixture(n_seed, n_mutant, n_shared):
        return path_fitness(*paths(n_seed, n_mutant, n_shared))

    exact = float(1 - Fraction(30 + 20, 240))  # 0.7916666...
    ok = (
        math.isclose(fixture(120, 30, 20), exact, abs_tol=1e-9)
        and fixture(120, 100, 80) == 0.25
        and fixture(10, 15, 5) == 0.0
        and fixture(10, 10, 10) == 0.0
    )
    _report(capsys, 1, "fitness formula fixtures", ok)


def test_criterion_2_four_byte_magic_isolation(capsys):
    spec, seed = load_bundled("four_byte_magic")
    run = spec_runner(spec)
    seed_path = run(seed)
    fm = analyze(seed, seed_path, run)
    flagged = {i for i, v in enumerate(fm.values) if v >= 0.5}
    ok = (
        len(seed_path) == 50
        and fm.values[:3] == [0.0, 0.0, 0.0]
        and math.isclose(fm.values[3], 0.83, abs_tol=1e-9)
        and flagged == {3}
    )
    _report(capsys, 2, "4-byte magic seed isolates its validation byte", ok)


def test_criterion_3_probe_cost_bound(capsys):
    spec, seed = load_bundled("long_tail")
    run = spec_runner(spec)
    seed_path = run(seed)
    cfg = AnalysisConfig()
    fm = analyze(seed, seed_path, run, cfg)
    calls = reference_probe_count(seed, seed_path, run, cfg)

    bound = 2 * math.ceil(math.log2(len(seed))) + 2
    ok = fm.probe_count <= bound == 18 and fm.probe_count == calls
    _report(capsys, 3, f"probe cost {fm.probe_count} <= {bound}, matches reference walk", ok)


def test_criterion_4_valid_ratio_ab(capsys, tmp_path):
    budget = 100_000
    medians = {}
    for target in VALID_RATIO_TARGETS:
        ratios = []
        for seed in range(5):
            t = _campaign(
                tmp_path, f"{target}_t{seed}", target,
                policy=Policy.TRUZZ, mask=True, rng_seed=seed, budget=budget,
            )
            b = _campaign(
                tmp_path, f"{target}_b{seed}", target,
                policy=Policy.FIFO, mask=False, rng_seed=seed, budget=budget,
            )
            ratios.append(
                (t.valid_count / t.executions) / (b.valid_count / b.executions)
            )
        medians[target] = statistics.median(ratios)
    ok = all(m >= 1.5 for m in medians.values())
    summary = ", ".join(f"{t}={m:.2f}x" for t, m in medians.items())
    _report(capsys, 4, f"valid-ratio gain >= 1.5x on 3 targets ({summary})", ok)


def test_criterion_5_coverage_ab(capsys, tmp_path):
    budget = 200_000
    truzz_edges, fifo_edges = [], []
    for seed in range(5):
        t = _campaign(
            tmp_path, f"cov_t{seed}", COVERAGE_TARGET,
            policy=Policy.TRUZZ, mask=True, rng_seed=seed, budget=budget,
        )
        b = _campaign(
            tmp_path, f"cov_b{seed}", COVERAGE_TARGET,
            policy=Policy.FIFO, mask=False, rng_seed=seed, budget=budget,
        )
        truzz_edges.append(t.edges_covered)
        fifo_edges.append(b.edges_covered)
    pairwise = all(t >= b for t, b in zip(truzz_edges, fifo_edges))
    med_t, med_b = statistics.median(truzz_edges), statistics.median(fifo_edges)
    ok = pairwise and med_t > med_b
    _report(
        capsys, 5,
        f"coverage gain on branching target (median {med_t:.0f} vs {med_b:.0f})",
        ok,
    )


def test_criterion_6_scheduler_properties(capsys):
    rng = Rng(2024)

    # 10k-round randomized trace: each TRUZZ pick is the oracle's (highest
    # rank, lowest id; the next id in turn when every rank is zero), and
    # update_rank replaces the pick's rank
    model = TruzzPicks(rng.randrange(50) for _ in range(20))
    corpus = Corpus()
    for i, rank in enumerate(model.ranks):
        corpus.add_entry(bytes([i]), frozenset({i}), rank)
    trace_ok = True
    for _ in range(10_000):
        entry = corpus.select_seed(Policy.TRUZZ)
        best = model.pick()
        model.ranks[best] = rng.randrange(50)
        corpus.update_rank(entry, model.ranks[best])
        trace_ok = trace_ok and entry.data == bytes([best]) and entry.rank_key == model.ranks[best]

    # dry-run ranks equal the greedy set-difference oracle; ids are 0..n-1
    oracle_ok = True
    for _ in range(100):
        table = {
            bytes([i]): {rng.randrange(200) for _ in range(rng.randrange(1, 25))}
            for i in range(rng.randrange(1, 12))
        }
        expected, _ = greedy_ranks(table)
        if not expected:
            continue
        got = dry_run(list(table), path_runner(table))
        oracle_ok = oracle_ok and [(e.id, e.data, e.rank_key) for e in got.entries] == expected

    ok = trace_ok and oracle_ok
    _report(capsys, 6, "scheduler rank-order trace and dry-run rank oracle", ok)


def test_criterion_7_effect_size(capsys):
    rng = Rng(7)

    identical_ok = a12([5.0] * 8, [5.0] * 8).score == 0.5

    brute_ok = True
    for _ in range(1000):
        xs = [rng.randrange(30) for _ in range(rng.randrange(1, 10))]
        ys = [rng.randrange(30) for _ in range(rng.randrange(1, 10))]
        brute_ok = brute_ok and math.isclose(
            a12(xs, ys).score, brute_a12(xs, ys), abs_tol=1e-12
        )

    arithmetic_ok = valid_ratio_misreads() == []

    ok = identical_ok and brute_ok and arithmetic_ok
    _report(capsys, 7, "effect-size fixtures, brute-force parity, ratio arithmetic", ok)


def test_criterion_8_determinism_and_baseline_equivalence(capsys, tmp_path):
    # (a) identical campaigns -> byte-identical stats.csv
    stats_bytes = []
    for label in ("rep1", "rep2"):
        spec_path, corpus = make_corpus(tmp_path, "magic64", label)
        run_campaign(
            CampaignConfig(
                corpus_dir=str(corpus),
                target_spec=spec_path,
                budget=Budget(max_execs=30_000),
                rng_seed=9,
                stats_interval=5_000,
            )
        )
        stats_bytes.append((corpus / "stats.csv").read_bytes())
    determinism_ok = stats_bytes[0] == stats_bytes[1]

    # (b) FIFO + mask off replays a hand-rolled vanilla loop exactly
    budget, energy, seed_value = 20_000, 512, 4
    spec_path, corpus_dir = make_corpus(tmp_path, "header128", "baseline")
    campaign = Campaign(
        CampaignConfig(
            corpus_dir=str(corpus_dir),
            target_spec=spec_path,
            budget=Budget(max_execs=budget),
            scheduler=SchedulerConfig(energy=energy, policy=Policy.FIFO),
            mask_enabled=False,
            rng_seed=seed_value,
            stats_interval=budget,
        )
    )
    campaign.run()

    ref = vanilla_fifo(spec_path, [bundled_seed("header128")], budget, energy, seed_value)

    equivalence_ok = (
        [(e.id, e.data) for e in sorted(campaign.corpus.entries, key=lambda e: e.id)]
        == [(e.id, e.data) for e in sorted(ref.entries, key=lambda e: e.id)]
        and campaign.corpus.covered == ref.covered
    )

    ok = determinism_ok and equivalence_ok
    _report(capsys, 8, "deterministic stats and vanilla-baseline equivalence", ok)
