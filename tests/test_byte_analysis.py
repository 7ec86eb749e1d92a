import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from harness import paths, reference_probe_count, spec_runner

from truzz.byte_analysis import (
    AnalysisConfig,
    analyze,
    mask_from_fitness,
    path_fitness,
    probe_mutate,
)
from truzz.target import parse_spec
from truzz.targets import load_bundled


class TestPathFitness:
    def test_validation_transition_fixture(self):
        # 120-edge seed path collapsing to 30 edges with 20 shared
        seed, mutant = paths(120, 30, 20)
        expected = float(1 - Fraction(30 + 20, 2 * 120))
        assert math.isclose(path_fitness(seed, mutant), expected, abs_tol=1e-9)
        assert round(path_fitness(seed, mutant), 2) == 0.79

    def test_functional_transition_fixture(self):
        seed, mutant = paths(120, 100, 80)
        assert path_fitness(seed, mutant) == 0.25

    def test_longer_or_equal_path_scores_zero(self):
        seed, mutant = paths(10, 15, 5)
        assert path_fitness(seed, mutant) == 0.0
        assert path_fitness(frozenset({1, 2}), frozenset({1, 2})) == 0.0

    def test_empty_seed_path_rejected(self):
        with pytest.raises(ValueError):
            path_fitness(frozenset(), frozenset({1}))

    @settings(max_examples=300)
    @given(
        st.sets(st.integers(0, 500), min_size=1, max_size=100),
        st.sets(st.integers(0, 500), max_size=100),
    )
    def test_bounded(self, seed, mutant):
        f = path_fitness(frozenset(seed), frozenset(mutant))
        assert 0.0 <= f < 1.0 or (f == 1.0 and not mutant)
        if len(seed) <= len(mutant):
            assert f == 0.0

    def test_monotone_in_path_shortening(self):
        # fixed intersection, shrinking mutant path => rising fitness
        shared = 5
        scores = [
            path_fitness(*paths(50, n_mutant, shared)) for n_mutant in range(49, 5, -1)
        ]
        assert all(b > a for a, b in zip(scores, scores[1:]))


class TestProbeMutate:
    def test_inverts_requested_range(self):
        assert probe_mutate(b"\x00\x00", 0, 0) == b"\xff\x00"

    def test_involutive(self):
        seed = bytes(range(16))
        assert probe_mutate(probe_mutate(seed, 0, 15), 0, 15) == seed

    def test_partial_range_xor(self):
        seed = b"\x30\x33\x41\x43"
        expected = bytes(b ^ 0xFF if i in (2, 3) else b for i, b in enumerate(seed))
        assert probe_mutate(seed, 2, 3) == expected == b"\x30\x33\xbe\xbc"

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            probe_mutate(b"ab", 1, 2)


def runner(name):
    spec, seed = load_bundled(name)
    return seed, spec_runner(spec)


class TestAnalyze:
    def test_four_byte_magic_isolates_validation_byte(self):
        seed, run = runner("four_byte_magic")
        seed_path = run(seed)
        assert len(seed_path) == 50
        fm = analyze(seed, seed_path, run)
        assert fm.values[0] == 0.0 and fm.values[1] == 0.0 and fm.values[2] == 0.0
        assert math.isclose(fm.values[3], 0.83, abs_tol=1e-9)

    def test_fitness_constant_within_final_interval(self):
        seed, run = runner("magic64")
        fm = analyze(seed, run(seed), run, AnalysisConfig(min_interval=4))
        # intervals assigned by one stop share one value; check the halves
        # the walk produced are internally constant
        assert all(0.0 <= v < 1.0 for v in fm.values)

    def test_unshortenable_path_costs_two_probes(self):
        # no checks at all: every probe keeps the same path
        spec = parse_spec(
            "input_length = 256\n[stage.only]\npass.base = 0\npass.edges = 9\n"
        )
        run = spec_runner(spec)
        seed = bytes(256)
        fm = analyze(seed, run(seed), run)
        assert fm.values == [0.0] * 256
        assert fm.probe_count == 2

    def test_probe_count_log_bound_single_validation_byte(self):
        seed, run = runner("long_tail")
        fm = analyze(seed, run(seed), run)
        n = len(seed)
        assert fm.probe_count <= 2 * math.ceil(math.log2(n)) + 2
        assert [i for i, v in enumerate(fm.values) if v >= 0.5] == [77]

    def test_probe_count_matches_reference_walk(self):
        seed, run = runner("long_tail")
        seed_path = run(seed)
        cfg = AnalysisConfig()
        fm = analyze(seed, seed_path, run, cfg)
        assert fm.probe_count == reference_probe_count(seed, seed_path, run, cfg)

    def test_single_byte_seed_probed_directly(self):
        spec = parse_spec(
            "input_length = 1\n"
            "[stage.gate]\n"
            "check.bytes = 0\n"
            "check.predicate = EQ 41\n"
            "check.kind = VALIDATION\n"
            "pass.base = 0\npass.edges = 20\n"
            "fail.base = 100\nfail.edges = 2\nfail.terminal = true\n"
        )
        run = spec_runner(spec)
        fm = analyze(b"A", run(b"A"), run)
        assert fm.probe_count == 1
        assert fm.values[0] >= 0.5

    def test_every_byte_assigned_exactly_once(self):
        # sentinel fill proves full assignment coverage
        seed, run = runner("header128")
        fm = analyze(seed, run(seed), run)
        assert len(fm.values) == len(seed)
        protected = {i for i, v in enumerate(fm.values) if v >= 0.5}
        assert protected == set(range(0, 8)) | set(range(64, 72))


class TestMask:
    def test_zero_fitness_means_certain_mutation(self):
        mask = mask_from_fitness([0.0, 0.0])
        assert mask.probability == [1.0, 1.0]

    def test_worked_example_fitness_maps_through(self):
        f = float(1 - Fraction(50, 240))
        mask = mask_from_fitness([f], AnalysisConfig(prob_floor=0.05))
        assert math.isclose(mask.probability[0], 1 - f, abs_tol=1e-12)

    def test_floor_engages_for_high_fitness(self):
        mask = mask_from_fitness([0.99], AnalysisConfig(prob_floor=0.05))
        assert mask.probability == [0.05]

    @settings(max_examples=200)
    @given(st.lists(st.floats(0, 0.999), min_size=1, max_size=64))
    def test_mask_invariants(self, fitness):
        cfg = AnalysisConfig()
        mask = mask_from_fitness(fitness, cfg)
        assert min(mask.probability) == max(1 - max(fitness), cfg.prob_floor)
        for f, p in zip(fitness, mask.probability):
            if f == 0.0:
                assert p == 1.0
            assert cfg.prob_floor <= p <= 1.0


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(threshold=1.0),
            dict(threshold=-0.1),
            dict(min_interval=0),
            dict(prob_floor=0.0),
            dict(prob_floor=1.5),
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AnalysisConfig(**kwargs)


# -- separation property -----------------------------------------------------

spec_shapes = st.integers(0, 10_000)


@st.composite
def separable_specs(draw):
    """Random spec + seed where validation and functional bytes are disjoint
    and every validation check sits early enough that failing it collapses
    the path below the fitness threshold boundary (2*prefix + fail <= total).
    """
    n = draw(st.integers(8, 64))
    n_validation = draw(st.integers(1, 4))
    positions = sorted(
        draw(
            st.sets(st.integers(0, n - 1), min_size=n_validation + 2, max_size=n_validation + 2)
        )
    )
    validation_bytes = positions[:n_validation]
    functional_bytes = positions[n_validation:]

    lines = [f"input_length = {n}", ""]
    base = 0
    seed = bytearray(n)
    # validation gates first: small prefix, small terminal fail regions
    for k, byte in enumerate(validation_bytes):
        magic = draw(st.integers(0, 255))
        seed[byte] = magic
        lines += [
            f"[stage.v{k}]",
            f"check.bytes = {byte}",
            f"check.predicate = EQ {magic:02x}",
            "check.kind = VALIDATION",
            f"pass.base = {base}",
            "pass.edges = 4",
            f"fail.base = {base + 4}",
            "fail.edges = 2",
            "fail.terminal = true",
            "",
        ]
        base += 10
    # big functional tail keeps validation fitness above the threshold
    lines += [f"[stage.core]", f"pass.base = {base}", "pass.edges = 80", ""]
    base += 80
    # balanced non-validation branches: flipping them never shortens the path
    for k, byte in enumerate(functional_bytes):
        lines += [
            f"[stage.f{k}]",
            f"check.bytes = {byte}",
            "check.predicate = LT 128",
            "check.kind = NON_VALIDATION",
            f"pass.base = {base}",
            "pass.edges = 6",
            f"fail.base = {base + 6}",
            "fail.edges = 6",
            "",
        ]
        base += 12
    return "\n".join(lines), bytes(seed), set(validation_bytes)


@settings(max_examples=60, deadline=None)
@given(separable_specs())
def test_separation_property(case):
    text, seed, validation_bytes = case
    spec = parse_spec(text)
    run = spec_runner(spec)
    cfg = AnalysisConfig()
    fm = analyze(seed, run(seed), run, cfg)
    flagged = {i for i, v in enumerate(fm.values) if v >= cfg.threshold}
    assert flagged == validation_bytes
