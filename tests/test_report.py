import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from harness import brute_a12, valid_ratio_misreads

from truzz.report import (
    Magnitude,
    StatsSchemaError,
    a12,
    collect_final_metric,
    compare_campaigns,
    read_stats,
)

STATS_A = """elapsed_s,executions,seeds,edges_covered,valid,invalid,crashes
0.100000,10000,4,120,382,9618,0
0.200000,20000,6,150,782,19218,0
0.300000,30000,6,150,1182,28818,0
"""

STATS_B = """elapsed_s,executions,seeds,edges_covered,valid,invalid,crashes
0.100000,10000,5,140,3650,6350,0
0.200000,20000,8,190,7450,12550,0
0.300000,30000,9,205,10920,19080,0
"""


class TestA12:
    def test_identical_samples_score_half(self):
        r = a12([3.0, 3.0, 3.0], [3.0, 3.0, 3.0])
        assert r.score == 0.5
        assert r.magnitude is Magnitude.NONE

    def test_total_dominance(self):
        r = a12([10, 11, 12], [1, 2, 3])
        assert r.score == 1.0
        assert r.magnitude is Magnitude.BIG

    def test_half_ties_fixture(self):
        # [3,1] vs [2,2]: one win, one loss -> exactly 0.5
        assert a12([3, 1], [2, 2]).score == 0.5

    def test_magnitude_thresholds(self):
        assert a12([1] * 45 + [3] * 55, [2] * 100).magnitude is Magnitude.NONE
        assert a12([1] * 44 + [3] * 56, [2] * 100).magnitude is Magnitude.SMALL
        assert a12([1] * 36 + [3] * 64, [2] * 100).magnitude is Magnitude.MEDIUM
        assert a12([1] * 29 + [3] * 71, [2] * 100).magnitude is Magnitude.BIG

    def test_magnitude_symmetric(self):
        low = a12([1] * 71 + [3] * 29, [2] * 100)
        assert low.score == pytest.approx(0.29)
        assert low.magnitude is Magnitude.BIG

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            a12([], [1.0])
        with pytest.raises(ValueError):
            a12([1.0], [])

    @settings(max_examples=300)
    @given(
        st.lists(st.integers(0, 20), min_size=1, max_size=12),
        st.lists(st.integers(0, 20), min_size=1, max_size=12),
    )
    def test_matches_brute_force_and_complements(self, xs, ys):
        fwd = a12(xs, ys).score
        rev = a12(ys, xs).score
        assert math.isclose(fwd, brute_a12(xs, ys), abs_tol=1e-12)
        assert math.isclose(fwd + rev, 1.0, abs_tol=1e-12)
        assert 0.0 <= fwd <= 1.0


class TestReadStats:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "stats.csv"
        p.write_text(STATS_A)
        rows = read_stats(p)
        assert len(rows) == 3
        assert rows[-1].executions == 30000
        assert rows[-1].valid == 1182
        assert rows[0].elapsed_s == pytest.approx(0.1)

    def test_wrong_header_rejected(self, tmp_path):
        p = tmp_path / "stats.csv"
        p.write_text("time,execs\n1,2\n")
        with pytest.raises(StatsSchemaError):
            read_stats(p)

    def test_short_row_rejected(self, tmp_path):
        p = tmp_path / "stats.csv"
        p.write_text(STATS_A.splitlines()[0] + "\n1,2,3\n")
        with pytest.raises(StatsSchemaError):
            read_stats(p)

    def test_empty_body_rejected(self, tmp_path):
        p = tmp_path / "stats.csv"
        p.write_text(STATS_A.splitlines()[0] + "\n")
        with pytest.raises(StatsSchemaError):
            read_stats(p)


class TestCompare:
    @pytest.fixture()
    def stats_files(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text(STATS_A)
        b.write_text(STATS_B)
        return a, b

    def test_final_ratio_and_edges(self, stats_files):
        a, b = stats_files
        cmp = compare_campaigns(a, b)
        assert cmp.valid_ratio_a == pytest.approx(1182 / 30000)
        assert cmp.valid_ratio_b == pytest.approx(10920 / 30000)
        assert cmp.valid_delta_points == pytest.approx(
            (10920 - 1182) / 30000
        )
        assert cmp.edges_a == 150 and cmp.edges_b == 205
        assert cmp.edges_delta_pct == pytest.approx(100 * (205 - 150) / 150)

    def test_series_joined_on_executions(self, stats_files):
        a, b = stats_files
        cmp = compare_campaigns(a, b)
        assert cmp.series == [
            (10000, 120, 140),
            (20000, 150, 190),
            (30000, 150, 205),
        ]

    def test_swap_negates_delta(self, stats_files):
        a, b = stats_files
        fwd = compare_campaigns(a, b)
        rev = compare_campaigns(b, a)
        assert rev.valid_delta_points == pytest.approx(-fwd.valid_delta_points)

    def test_render_mentions_key_numbers(self, stats_files):
        text = compare_campaigns(*stats_files).render()
        assert "3.94%" in text       # 1182/30000
        assert "36.40%" in text      # 10920/30000
        assert "+36.67%" in text     # edge delta


class TestCollectFinalMetric:
    def test_flat_and_nested_layouts(self, tmp_path):
        (tmp_path / "r1.csv").write_text(STATS_A)
        nested = tmp_path / "run2"
        nested.mkdir()
        (nested / "stats.csv").write_text(STATS_B)
        values = collect_final_metric(tmp_path, "edges_covered")
        assert sorted(values) == [150.0, 205.0]

    def test_unknown_metric(self, tmp_path):
        with pytest.raises(ValueError):
            collect_final_metric(tmp_path, "nope")

    def test_no_files(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            collect_final_metric(tmp_path, "edges_covered")


class TestReportedEffects:
    """Arithmetic behind the reference A/B comparison figures."""

    def test_valid_ratio_gap(self):
        assert valid_ratio_misreads() == []

    def test_coverage_gain(self):
        # 4828 vs 3690 covered branches is a 30.84% relative gain
        gain = 100 * (4828 - 3690) / 3690
        assert abs(gain - 30.84) < 0.01
