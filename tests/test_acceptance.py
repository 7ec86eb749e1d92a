"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
to the terminal (bypassing capture) so the gate's outcome is readable from
any pytest run. Campaign-based criteria run real desk-scale A/B campaigns
on the bundled synthetic targets.
"""

import math
import statistics
from fractions import Fraction

import pytest

from truzz.byte_analysis import AnalysisConfig, analyze, path_fitness, probe_mutate
from truzz.engine import Budget, Campaign, CampaignConfig, run_campaign
from truzz.mutation import Rng, draw_op_count, mutate
from truzz.report import a12
from truzz.scheduler import Corpus, Policy, SchedulerConfig, dry_run
from truzz.target import CompiledTarget, load_spec
from truzz.targets import (
    COVERAGE_TARGET,
    VALID_RATIO_TARGETS,
    bundled_seed,
    load_bundled,
    write_bundled,
)


def _report(capsys, num, desc, ok):
    with capsys.disabled():
        print(f"\n[acceptance {num}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def _campaign(tmp_path, label, target_name, *, policy, mask, rng_seed, budget):
    spec_path, _ = write_bundled(target_name, tmp_path / "target")
    corpus = tmp_path / label
    (corpus / "seeds_in").mkdir(parents=True)
    (corpus / "seeds_in" / "seed").write_bytes(bundled_seed(target_name))
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
        seed = frozenset(range(n_seed))
        mutant = frozenset(range(n_shared)) | frozenset(
            range(50_000, 50_000 + n_mutant - n_shared)
        )
        return path_fitness(seed, mutant)

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
    compiled = CompiledTarget(spec)
    run = lambda d: compiled.execute(d).path
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
    compiled = CompiledTarget(spec)
    run = lambda d: compiled.execute(d).path
    seed_path = run(seed)
    cfg = AnalysisConfig()
    fm = analyze(seed, seed_path, run, cfg)

    # reference walk of the interval-halving analysis
    calls = 0

    def walk(lo, hi):
        nonlocal calls
        calls += 1
        f = path_fitness(seed_path, run(probe_mutate(seed, lo, hi)))
        if f < cfg.threshold or hi - lo < cfg.min_interval:
            return
        mid = (lo + hi) // 2
        walk(lo, mid)
        walk(mid + 1, hi)

    size = len(seed) - 1
    walk(0, size // 2)
    walk(size // 2 + 1, size)

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
    ranks = [rng.randrange(50) for _ in range(20)]
    corpus = Corpus()
    for i, rank in enumerate(ranks):
        corpus.add_entry(bytes([i]), frozenset({i}), rank)
    trace_ok, cursor = True, 0
    for _ in range(10_000):
        entry = corpus.select_seed(Policy.TRUZZ)
        if max(ranks):
            best = ranks.index(max(ranks))
        else:
            best, cursor = cursor % len(ranks), cursor + 1
        ranks[best] = rng.randrange(50)
        corpus.update_rank(entry, ranks[best])
        trace_ok = trace_ok and entry.data == bytes([best]) and entry.rank_key == ranks[best]

    # dry-run ranks equal the greedy set-difference oracle; ids are 0..n-1
    oracle_ok = True
    for _ in range(100):
        table = {
            bytes([i]): {rng.randrange(200) for _ in range(rng.randrange(1, 25))}
            for i in range(rng.randrange(1, 12))
        }
        covered, expected = set(), {}
        for data, edges in table.items():
            new = edges - covered
            if new:
                expected[data] = len(new)
            covered |= edges
        if not expected:
            continue
        run = lambda d: frozenset(table[d])
        got = dry_run(list(table), run)
        oracle_ok = oracle_ok and [(e.id, e.data, e.rank_key) for e in got.entries] == [
            (i, data, n) for i, (data, n) in enumerate(expected.items())
        ]

    ok = trace_ok and oracle_ok
    _report(capsys, 6, "scheduler rank-order trace and dry-run rank oracle", ok)


def test_criterion_7_effect_size(capsys):
    rng = Rng(7)

    def brute(xs, ys):
        wins = sum(1 for x in xs for y in ys if x > y)
        ties = sum(1 for x in xs for y in ys if x == y)
        return (wins + 0.5 * ties) / (len(xs) * len(ys))

    identical_ok = a12([5.0] * 8, [5.0] * 8).score == 0.5

    brute_ok = True
    for _ in range(1000):
        xs = [rng.randrange(30) for _ in range(rng.randrange(1, 10))]
        ys = [rng.randrange(30) for _ in range(rng.randrange(1, 10))]
        brute_ok = brute_ok and math.isclose(
            a12(xs, ys).score, brute(xs, ys), abs_tol=1e-12
        )

    baseline = 100 * 55415 / 1448513
    protected = 100 * 526923 / 1448103
    arithmetic_ok = (
        abs(baseline - 3.82) < 0.01
        and abs(protected - 36.38) < 0.01
        and abs((protected - baseline) - 32.56) < 0.01
    )

    ok = identical_ok and brute_ok and arithmetic_ok
    _report(capsys, 7, "effect-size fixtures, brute-force parity, ratio arithmetic", ok)


def test_criterion_8_determinism_and_baseline_equivalence(capsys, tmp_path):
    # (a) identical campaigns -> byte-identical stats.csv
    stats_bytes = []
    for label in ("rep1", "rep2"):
        spec_path, _ = write_bundled("magic64", tmp_path / "target")
        corpus = tmp_path / label
        (corpus / "seeds_in").mkdir(parents=True)
        (corpus / "seeds_in" / "seed").write_bytes(bundled_seed("magic64"))
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
    spec_path, _ = write_bundled("header128", tmp_path / "t2")
    corpus_dir = tmp_path / "baseline"
    (corpus_dir / "seeds_in").mkdir(parents=True)
    (corpus_dir / "seeds_in" / "seed").write_bytes(bundled_seed("header128"))
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

    compiled = CompiledTarget(load_spec(spec_path))
    rng = Rng(seed_value)
    execs = 0

    def run(data):
        nonlocal execs
        execs += 1
        return compiled.execute(data).path

    ref = dry_run([bundled_seed("header128")], run)
    cursor = 0
    while execs < budget:
        ordered = sorted(ref.entries, key=lambda e: e.id)
        entry = ordered[cursor % len(ordered)]
        cursor += 1
        for _ in range(energy):
            if execs >= budget:
                break
            child = mutate(entry.data, None, rng, draw_op_count(rng))
            ref.retain_if_new(child, run(child))

    equivalence_ok = (
        [(e.id, e.data) for e in sorted(campaign.corpus.entries, key=lambda e: e.id)]
        == [(e.id, e.data) for e in sorted(ref.entries, key=lambda e: e.id)]
        and campaign.corpus.covered == ref.covered
    )

    ok = determinism_ok and equivalence_ok
    _report(capsys, 8, "deterministic stats and vanilla-baseline equivalence", ok)
