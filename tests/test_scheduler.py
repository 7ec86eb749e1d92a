import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from harness import TruzzPicks, greedy_ranks, path_runner

from truzz.scheduler import CampaignError, Corpus, Policy, SchedulerConfig, SeedEntry, dry_run


class TestDryRun:
    def test_ranks_are_marginal_new_edge_counts(self):
        table = {b"A": set(range(1, 11)), b"B": set(range(5, 13))}
        corpus = dry_run([b"A", b"B"], path_runner(table))
        ranks = {e.data: e.rank_key for e in corpus.entries}
        assert ranks == {b"A": 10, b"B": 2}
        assert corpus.covered == set(range(1, 13))

    def test_duplicate_coverage_seed_dropped(self):
        table = {b"A": {1, 2, 3}, b"B": {1, 2}}
        corpus = dry_run([b"A", b"B"], path_runner(table))
        assert [e.data for e in corpus.entries] == [b"A"]

    def test_order_dependence_of_ranking(self):
        table = {b"A": {1, 2, 3}, b"B": {2, 3, 4, 5}}
        forward = dry_run([b"A", b"B"], path_runner(table))
        backward = dry_run([b"B", b"A"], path_runner(table))
        assert {e.data: e.rank_key for e in forward.entries} == {b"A": 3, b"B": 2}
        assert {e.data: e.rank_key for e in backward.entries} == {b"B": 4, b"A": 1}

    def test_result_sorted_descending(self):
        # Selection takes the keepers by rank, highest first.
        table = {b"A": {1}, b"B": set(range(10, 30)), b"C": {2, 3}}
        corpus = dry_run([b"A", b"B", b"C"], path_runner(table))
        picks = []
        for _ in range(3):
            entry = corpus.select_seed(Policy.TRUZZ)
            picks.append(entry.data)
            corpus.update_rank(entry, 0)
        assert picks == [b"B", b"C", b"A"]

    def test_no_seeds_rejected(self):
        with pytest.raises(CampaignError):
            dry_run([], path_runner({}))

    def test_all_empty_paths_rejected(self):
        table = {b"A": set(), b"B": set()}
        with pytest.raises(CampaignError, match="zero new edges"):
            dry_run([b"A", b"B"], path_runner(table))


def seeded_corpus(ranks):
    corpus = Corpus()
    for name, rank in ranks.items():
        corpus.add_entry(name.encode(), frozenset({ord(name)}), rank)
    return corpus


class TestSelection:
    def test_truzz_picks_max_rank(self):
        corpus = seeded_corpus({"A": 3, "B": 9, "C": 5})
        assert corpus.select_seed(Policy.TRUZZ).data == b"B"

    def test_truzz_tie_broken_by_insertion_order(self):
        corpus = seeded_corpus({"A": 3, "B": 7, "C": 7})
        assert corpus.select_seed(Policy.TRUZZ).data == b"B"

    def test_truzz_zero_ranks_round_robin(self):
        corpus = seeded_corpus({"A": 0, "B": 0, "C": 0})
        picks = [corpus.select_seed(Policy.TRUZZ).data for _ in range(6)]
        assert picks == [b"A", b"B", b"C", b"A", b"B", b"C"]

    def test_fifo_cycles_in_insertion_order(self):
        corpus = seeded_corpus({"A": 1, "B": 99, "C": 5})
        picks = [corpus.select_seed(Policy.FIFO).data for _ in range(7)]
        assert picks == [b"A", b"B", b"C", b"A", b"B", b"C", b"A"]

    def test_empty_corpus_selection_fails(self):
        with pytest.raises(CampaignError):
            Corpus().select_seed(Policy.TRUZZ)

    def test_times_selected_counter(self):
        corpus = seeded_corpus({"A": 1})
        for _ in range(3):
            corpus.select_seed(Policy.TRUZZ)
        assert corpus.entries[0].times_selected == 3


class TestRetention:
    def test_new_edges_retained_with_rank(self):
        corpus = seeded_corpus({"A": 3})
        corpus.merge(frozenset({ord("A")}))
        entry = corpus.retain_if_new(b"X", frozenset({ord("A"), 200, 201}))
        assert entry is not None and entry.rank_key == 2
        assert corpus.covered == {ord("A"), 200, 201}

    def test_no_new_edges_not_retained_but_merged(self):
        corpus = seeded_corpus({"A": 3})
        corpus.merge(frozenset({ord("A")}))
        before = set(corpus.covered)
        assert corpus.retain_if_new(b"X", frozenset({ord("A")})) is None
        assert corpus.covered == before

    def test_merge_returns_new_edge_count(self):
        corpus = Corpus()
        assert corpus.merge(frozenset({1, 2})) == 2
        assert corpus.merge(frozenset({2})) == 0
        assert corpus.covered == {1, 2}
        assert corpus.merge(frozenset({3})) == 1
        assert corpus.covered == {1, 2, 3}

    @settings(max_examples=200)
    @given(st.lists(st.tuples(
        st.booleans(), st.frozensets(st.integers(0, 15), max_size=6))))
    def test_stale_path_stays_stale(self, ops):
        # retain_if_new refuses a path in corpus.stale without merging it;
        # that is sound because covered only grows.
        corpus = Corpus()
        for is_merge, path in ops:
            if is_merge:
                corpus.merge(path)
                continue
            before = set(corpus.covered)
            was_stale = path in corpus.stale
            kept = corpus.retain_if_new(b"x", path)
            assert (kept is None) == (path in corpus.stale)
            if was_stale:
                assert corpus.covered == before
            assert (kept is None) == (path <= before)


class TestRankUpdate:
    def test_rank_replaced_not_accumulated(self):
        corpus = seeded_corpus({"A": 5})
        entry = corpus.entries[0]
        corpus.update_rank(entry, 2)
        assert entry.rank_key == 2

    def test_update_resorts(self):
        # The next selection follows the replaced rank; ties go to the lower id.
        corpus = seeded_corpus({"A": 9, "B": 5})
        top = corpus.select_seed(Policy.TRUZZ)
        assert top.data == b"A"
        corpus.update_rank(top, 1)
        assert corpus.select_seed(Policy.TRUZZ).data == b"B"
        corpus.update_rank(top, 5)
        assert corpus.select_seed(Policy.TRUZZ) is top

    def test_unknown_entry_rejected(self):
        corpus = seeded_corpus({"A": 5})
        # The second stranger equals corpus's own entry field by field; the
        # third has an id past the corpus's end.
        strangers = [seeded_corpus({name: 5}).entries[0] for name in ("B", "A")]
        strangers.append(SeedEntry(id=99, data=b"A", path=frozenset({ord("A")}), rank_key=5))
        for stranger in strangers:
            with pytest.raises(CampaignError):
                corpus.update_rank(stranger, 0)
            assert stranger.rank_key == 5
        assert corpus.entries[0].rank_key == 5


class TestConfig:
    def test_policy_string_coerced(self):
        assert SchedulerConfig(policy="fifo").policy is Policy.FIFO
        assert SchedulerConfig(policy="truzz").policy is Policy.TRUZZ

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(ValueError):
            SchedulerConfig(energy=0)


@settings(max_examples=100)
@given(st.lists(st.sets(st.integers(0, 63), max_size=20), min_size=1, max_size=12))
def test_dry_run_matches_greedy_set_oracle(edge_sets):
    table = {bytes([i]): s for i, s in enumerate(edge_sets)}
    seeds = list(table)
    expected, covered = greedy_ranks(table)

    if not expected:
        with pytest.raises(CampaignError):
            dry_run(seeds, path_runner(table))
        return
    corpus = dry_run(seeds, path_runner(table))
    assert [(e.id, e.data, e.rank_key) for e in corpus.entries] == expected
    assert corpus.covered == covered


@settings(max_examples=100)
@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=8),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 30)), max_size=30),
)
def test_sorted_invariant_under_random_updates(initial_ranks, updates):
    # After each update, TRUZZ selects the highest rank, lowest id first;
    # when every rank is zero it cycles through the ids.
    corpus = Corpus()
    for i, rank in enumerate(initial_ranks):
        corpus.add_entry(bytes([i]), frozenset({i}), rank)
    model = TruzzPicks(initial_ranks)
    for which, new_rank in updates:
        i = which % len(model.ranks)
        entry = corpus.entries[i]
        corpus.update_rank(entry, new_rank)
        model.ranks[i] = new_rank
        assert entry.rank_key == new_rank
        assert corpus.select_seed(Policy.TRUZZ).data == bytes([model.pick()])
