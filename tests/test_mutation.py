import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from harness import round_children
from scipy import stats

import truzz.mutation
from truzz.byte_analysis import MutationMask
from truzz.mutation import (
    ARITH_MAX,
    INTERESTING_BYTES,
    RETRY_FACTOR,
    Rng,
    draw_op_count,
    mutate,
    mutate_chunks,
)

N_DRAWS = 100_000


def frequencies(mask, length, n=N_DRAWS, seed=7):
    rng = Rng(seed)
    counts = Counter(oracle_select_byte(mask, rng, length) for _ in range(n))
    return [counts[i] / n for i in range(length)]


class TestSelectByte:
    """Byte-selection distribution, on ``oracle_select_byte``: TestStreamIdentity
    shows ``mutate`` draws the same words and picks the same bytes."""

    def test_no_mask_is_uniform(self):
        length = 8
        freqs = frequencies(None, length)
        p = 1 / length
        sigma = math.sqrt(p * (1 - p) / N_DRAWS)
        for f in freqs:
            assert abs(f - p) < 3 * sigma + 1e-12

    def test_all_ones_mask_matches_no_mask_stream(self):
        # identical rng state evolution: the masked stream must replay the
        # unmasked one exactly, not just statistically
        mask = MutationMask(probability=[1.0] * 8)
        a, b = Rng(3), Rng(3)
        picks_masked = [oracle_select_byte(mask, a, 8) for _ in range(1000)]
        picks_plain = [oracle_select_byte(None, b, 8) for _ in range(1000)]
        assert picks_masked == picks_plain
        assert a.random() == b.random()

    def test_protected_byte_rate(self):
        # [1.0, 0.05]: accepted mass is 1.0 vs 0.05
        mask = MutationMask(probability=[1.0, 0.05])
        freqs = frequencies(mask, 2)
        assert abs(freqs[1] - 0.05 / 1.05) < 0.01
        assert abs(freqs[0] - 1.0 / 1.05) < 0.01

    def test_constant_floor_mask_is_uniform(self):
        # all entries at the floor: accepted draws are uniform, plus the
        # retry-cap fallback routes a (0.95)**64 tail to the argmax index
        mask = MutationMask(probability=[0.05] * 4)
        freqs = frequencies(mask, 4)
        fallback = 0.95 ** (16 * 4)
        assert abs(freqs[0] - ((1 - fallback) * 0.25 + fallback)) < 0.01
        for f in freqs[1:]:
            assert abs(f - (1 - fallback) * 0.25) < 0.01

    def test_chi_square_against_mask_distribution(self):
        # acceptance frequencies should match the normalized mask within a
        # chi-square test at alpha = 1e-3
        rng = Rng(11)
        for probs in (
            [1.0, 0.5, 0.25, 0.05],
            [0.05] * 8,
            [1.0] * 3 + [0.05] * 29,
        ):
            mask = MutationMask(probability=list(probs))
            total = sum(probs)
            counts = Counter(
                oracle_select_byte(mask, rng, len(probs)) for _ in range(N_DRAWS)
            )
            observed = [counts[i] for i in range(len(probs))]
            expected = [N_DRAWS * p / total for p in probs]
            _, pvalue = stats.chisquare(observed, expected)
            assert pvalue > 1e-3, (probs, pvalue)

    def test_deterministic_for_seed(self):
        mask = MutationMask(probability=[1.0, 0.3, 0.7])
        runs = [
            [oracle_select_byte(mask, Rng(42), 3) for _ in range(50)] for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestMask:
    @pytest.mark.parametrize("p", [math.nan, -0.1, 1.5, math.inf])
    def test_probability_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match="byte 1 must be in"):
            MutationMask([1.0, p])

    def test_bounds_accepted(self):
        assert MutationMask([0.0, 1.0, 0]).argmax == 1


class TestDrawOpCount:
    def test_powers_of_two_up_to_64(self):
        rng = Rng(0)
        seen = {draw_op_count(rng) for _ in range(2000)}
        assert seen == {1, 2, 4, 8, 16, 32, 64}


class TestMutate:
    def test_preserves_length(self):
        rng = Rng(1)
        seed = bytes(range(32))
        for _ in range(200):
            assert len(mutate(seed, None, rng, draw_op_count(rng))) == 32

    def test_deterministic_for_seed(self):
        seed = bytes(16)
        out1 = [mutate(seed, None, Rng(9), 8) for _ in range(1)]
        out2 = [mutate(seed, None, Rng(9), 8) for _ in range(1)]
        assert out1 == out2

    def test_single_op_changes_at_most_one_byte(self):
        rng = Rng(5)
        seed = bytes(8)
        for _ in range(500):
            mutant = mutate(seed, None, rng, 1)
            diff = [i for i in range(8) if mutant[i] != seed[i]]
            assert len(diff) <= 1

    def test_protected_byte_rarely_touched(self):
        # validation byte guarded at the floor; functional byte wide open
        mask = MutationMask(probability=[0.05, 1.0, 1.0, 1.0])
        seed = b"\x41\x00\x00\x00"
        rng = Rng(2)
        touched = sum(
            mutate(seed, mask, rng, 1)[0] != seed[0] for _ in range(20_000)
        )
        # expected touch rate ~ (0.05/3.05) * P(op changes byte) < 1.7%
        assert touched / 20_000 < 0.02

    def test_zero_ops_rejected(self):
        with pytest.raises(ValueError):
            mutate(b"ab", None, Rng(0), 0)

    def test_mask_length_matches_seed(self):
        mask = MutationMask(probability=[1.0, 0.5])
        out = mutate(b"xy", mask, Rng(0), 4)
        assert len(out) == 2

    @pytest.mark.parametrize("make", [mutate, mutate_chunks])
    @pytest.mark.parametrize("n_probs", [1, 2, 4])
    def test_mask_of_another_length_rejected_before_any_draw(self, make, n_probs):
        rng = Rng(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match=f"{n_probs} probabilities for a 3-byte"):
            make(b"xyz", MutationMask([1.0] * n_probs), rng, 4)
        assert rng.getstate() == state

    def test_empty_input_rejected(self):
        # A draw below 0 has no value to return; it must not loop forever.
        with pytest.raises(ValueError):
            mutate(b"", None, Rng(0), 1)
        with pytest.raises(ValueError):
            mutate(b"", MutationMask(probability=[]), Rng(0), 1)
        with pytest.raises(ValueError):
            mutate_chunks(b"", None, Rng(0), 1)


# ---------------------------------------------------------------------------
# Stream identity: mutate decodes MT19937 words inline, and must consume
# exactly the words the randrange-based version below consumed.
# ---------------------------------------------------------------------------


def oracle_select_byte(mask, rng, length):
    randrange = rng.randrange
    if mask is None:
        return randrange(length)
    probs = mask.probability
    rand = rng.random
    for _ in range(RETRY_FACTOR * length):
        idx = randrange(length)
        p = probs[idx]
        if p >= 1.0 or rand() < p:
            return idx
    return mask.argmax


def oracle_mutate(seed, mask, rng, ops_per_input):
    data = bytearray(seed)
    length = len(data)
    randrange = rng.randrange
    for _ in range(ops_per_input):
        idx = oracle_select_byte(mask, rng, length)
        op = randrange(4)
        if op == 0:
            data[idx] ^= 1 << randrange(8)
        elif op == 1:
            data[idx] = randrange(256)
        elif op == 2:
            delta = randrange(1, ARITH_MAX + 1)
            if randrange(2):
                delta = -delta
            data[idx] = (data[idx] + delta) & 0xFF
        else:
            data[idx] = INTERESTING_BYTES[randrange(5)]
    return bytes(data)


def draw(rng, kind, n):
    if kind == 0:
        return rng.randrange(n)
    if kind == 1:
        return rng.randrange(-n, n + 1)
    if kind == 2:
        return rng.random()
    if kind == 3:
        return rng.getrandbits(n % 65)
    return rng.choice(range(n))


def fallback_mask(length):
    """A mask whose rejection sampling always ends in the argmax fallback."""
    probs = [0.0] * length
    probs[length // 2] = 1e-9  # the argmax, never accepted in practice
    return MutationMask(probability=probs)


SEEDS = st.integers(0, 2**64 - 1)
DRAWS = st.lists(st.tuples(st.integers(0, 4), st.integers(1, 2**40)), max_size=300)
# 0.0 never accepts, so an all-zero mask reaches the argmax fallback.
PROBS = st.sampled_from([0.0, 0.05, 0.3, 0.99, 1.0])


@st.composite
def seed_and_mask(draw_, masked):
    data = draw_(st.binary(min_size=1, max_size=300))
    if not masked:
        return data, None
    probs = draw_(st.lists(PROBS, min_size=len(data), max_size=len(data)))
    return data, MutationMask(probability=probs)


class TestStreamIdentity:
    @settings(max_examples=200)
    @given(SEEDS, DRAWS)
    def test_rng_equals_random_random(self, seed, draws):
        ours, reference = Rng(seed), random.Random(seed)
        assert [draw(ours, k, n) for k, n in draws] == [
            draw(reference, k, n) for k, n in draws
        ]
        # A bulk draw spans many MT state refreshes (624 words each).
        assert ours.getrandbits(32 * 2000) == reference.getrandbits(32 * 2000)
        assert ours.getstate() == reference.getstate()

    @settings(max_examples=50)
    @given(SEEDS, DRAWS, st.integers(1, 64))
    def test_getstate_setstate_round_trip(self, seed, draws, ops):
        rng = Rng(seed)
        for k, n in draws:
            draw(rng, k, n)
        state = rng.getstate()
        first = [mutate(b"\x00" * 16, None, rng, ops), rng.random()]
        rng.setstate(state)
        assert [mutate(b"\x00" * 16, None, rng, ops), rng.random()] == first

    @pytest.mark.parametrize("masked", [False, True])
    @settings(max_examples=150)
    @given(data=st.data(), seed=SEEDS)
    def test_mutate_equals_oracle(self, masked, data, seed):
        seed_bytes, mask = data.draw(seed_and_mask(masked))
        ours, reference = Rng(seed), Rng(seed)
        for _ in range(5):
            ops = draw_op_count(ours)
            assert ops == draw_op_count(reference)
            assert mutate(seed_bytes, mask, ours, ops) == oracle_mutate(
                seed_bytes, mask, reference, ops
            )
        assert ours.getstate() == reference.getstate()

    @pytest.mark.parametrize("length", [1, 3, 8, 64, 128])
    def test_argmax_fallback_equals_oracle(self, length):
        mask = fallback_mask(length)
        ours, reference = Rng(length), Rng(length)
        for _ in range(3):
            child = mutate(bytes(length), mask, ours, 4)
            assert child == oracle_mutate(bytes(length), mask, reference, 4)
            changed = [i for i in range(length) if child[i]]
            assert set(changed) <= {length // 2}
        assert ours.getstate() == reference.getstate()


# ---------------------------------------------------------------------------
# The C kernel: a round's children and the Rng's state afterwards must be
# those of the Python loop it replaces.
# ---------------------------------------------------------------------------


def python_round(seed, mask, rng, n):
    return [mutate(seed, mask, rng, draw_op_count(rng)) for _ in range(n)]


# PROBS's values, simplest (all ones) first: a long all-zero mask would run
# the Python loop's rejection sampling for minutes.
MIXED = st.sampled_from([1.0, 0.99, 0.3, 0.05, 0.0])


@st.composite
def rounds(draw_):
    """A seed of 1 to 600 bytes, a mask (none, all ones, mixed or the
    argmax fallback) and a round of 1 to 1024 children. A fallback round
    runs RETRY_FACTOR * length rejections per operator, so it is short."""
    seed = draw_(st.binary(min_size=1, max_size=600))
    kind = draw_(st.sampled_from(["none", "ones", "mixed", "fallback"]))
    mask = {
        "none": lambda: None,
        "ones": lambda: MutationMask([1.0] * len(seed)),
        "mixed": lambda: MutationMask(draw_(st.lists(MIXED, min_size=len(seed),
                                                     max_size=len(seed)))),
        "fallback": lambda: fallback_mask(len(seed)),
    }[kind]()
    n = draw_(st.integers(1, 2 if kind == "fallback" else 1024))
    return seed, mask, n


@pytest.fixture(scope="module")
def kernel():
    if truzz.mutation._kernel() is None:
        pytest.skip("no C compiler on this host")


@pytest.mark.usefixtures("kernel")
class TestKernel:
    @settings(max_examples=100, deadline=None)
    @given(rounds(), SEEDS)
    @example((bytes(600), None, 1024), 0)  # a round over several kernel calls
    @example((bytes(range(255)), MutationMask([0.05] * 100 + [1.0] * 155), 1024), 1)
    @example((bytes(128), fallback_mask(128), 2), 2)
    @example((b"\x00", None, 1), 3)
    def test_round_equals_python_loop(self, round_, seed):
        data, mask, n = round_
        ours, reference = Rng(seed), Rng(seed)
        for _ in range(2):  # the second round starts where the first left the stream
            assert round_children(data, mask, ours, n) == python_round(data, mask, reference, n)
            assert ours.getstate() == reference.getstate()

    def test_round_over_several_calls(self, monkeypatch):
        monkeypatch.setattr(truzz.mutation, "_CALL_BYTES", 100)
        mask = MutationMask([1.0, 0.3, 0.05] * 11)
        ours, reference = Rng(9), Rng(9)
        assert round_children(bytes(33), mask, ours, 50) == python_round(
            bytes(33), mask, reference, 50)
        assert ours.getstate() == reference.getstate()

    def test_chunks_without_the_kernel_are_the_kernels(self, monkeypatch):
        """Where the kernel cannot load, ``mutate`` makes chunks of the
        same sizes, holding the same children."""
        monkeypatch.setattr(truzz.mutation, "_CALL_BYTES", 100)
        mask = MutationMask([1.0, 0.3, 0.05] * 11)

        def chunks():
            rng = Rng(9)
            made = [(bytes(buffer), k) for buffer, k in mutate_chunks(bytes(33), mask, rng, 50)]
            return made, rng.getstate()

        by_kernel = chunks()
        assert [k for _, k in by_kernel[0]] == [3] * 16 + [2]
        monkeypatch.setattr(truzz.mutation, "_kernel", lambda: None)
        assert chunks() == by_kernel


def test_empty_round_loads_no_kernel(monkeypatch):
    def refuse():
        raise AssertionError("the kernel was loaded")

    monkeypatch.setattr(truzz.mutation, "_kernel", refuse)
    rng = Rng(0)
    state = rng.getstate()
    assert round_children(b"xyz", None, rng, 0) == []
    assert rng.getstate() == state
