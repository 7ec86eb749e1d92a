import shlex
import shutil
import sys

import pytest
from harness import DUMP_TARGET, make_corpus

import truzz.cli
from truzz.byte_analysis import AnalysisConfig
from truzz.cli import _analysis_config, build_parser, main
from truzz.engine import STATS_HEADER, CampaignConfig, CampaignStats
from truzz.scheduler import Policy


@pytest.fixture()
def campaign_dir(tmp_path):
    spec_path, corpus = make_corpus(tmp_path, "magic64", "corpus")
    return spec_path, str(corpus / "seeds_in" / "seed_00"), corpus


def run_fuzz(spec_path, corpus, *extra):
    return main(
        [
            "fuzz",
            "--target", spec_path,
            "--corpus", str(corpus),
            "--budget-execs", "3000",
            "--stats-interval", "1000",
            *extra,
        ]
    )


class TestFuzz:
    def test_smoke(self, campaign_dir, capsys):
        spec_path, _, corpus = campaign_dir
        assert run_fuzz(spec_path, corpus) == 0
        out = capsys.readouterr().out
        assert "executions=" in out and "edges_covered=" in out
        assert (corpus / "stats.csv").is_file()
        assert (corpus / "queue").is_dir()

    def test_baseline_flags(self, campaign_dir):
        spec_path, _, corpus = campaign_dir
        assert run_fuzz(spec_path, corpus, "--policy", "fifo", "--mask", "off") == 0

    def test_target_and_cmd_mutually_exclusive(self, campaign_dir):
        spec_path, _, corpus = campaign_dir
        with pytest.raises(SystemExit):
            main(
                [
                    "fuzz",
                    "--target", spec_path,
                    "--cmd", "prog @@",
                    "--corpus", str(corpus),
                ]
            )

    def test_cmd_without_placeholder_rejected(self, tmp_path):
        corpus = tmp_path / "corpus"
        with pytest.raises(SystemExit, match="exactly one '@@' token"):
            main(["fuzz", "--cmd", "/bin/true", "--corpus", str(corpus)])
        assert not corpus.exists()


    def test_bad_spec_is_one_line_error(self, tmp_path):
        spec = tmp_path / "bad.tspec"
        spec.write_text(
            "input_length = 4\n\n[stage.gate]\ncheck.bytes = 9\n"
            "check.predicate = EQ 43\ncheck.kind = VALIDATION\n"
            "pass.base = 0\npass.edges = 1\n"
        )
        with pytest.raises(SystemExit, match=r"^truzz fuzz: .*\b9\b") as exc:
            run_fuzz(str(spec), tmp_path / "corpus")
        assert "\n" not in str(exc.value)

    def test_missing_seed_directory_is_one_line_error(self, campaign_dir):
        spec_path, _, corpus = campaign_dir
        shutil.rmtree(corpus / "seeds_in")
        with pytest.raises(SystemExit, match=r"^truzz fuzz: missing initial seed directory"):
            run_fuzz(spec_path, corpus)

    def test_parsed_defaults_are_the_config_defaults(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            truzz.cli, "run_campaign", lambda cfg: built.append(cfg) or CampaignStats()
        )
        assert main(["fuzz", "--target", "t.tspec", "--corpus", "c"]) == 0
        assert built == [CampaignConfig(corpus_dir="c", target_spec="t.tspec")]
        for policy in Policy:
            args = build_parser().parse_args(
                ["fuzz", "--target", "t.tspec", "--corpus", "c", "--policy", policy.value]
            )
            assert Policy(args.policy) is policy
        args = build_parser().parse_args(["analyze", "--target", "t.tspec", "seed"])
        assert _analysis_config(args) == AnalysisConfig()


class TestAnalyze:
    def test_prints_fitness_and_probability(self, campaign_dir, capsys):
        spec_path, seed_path, _ = campaign_dir
        assert main(["analyze", "--target", spec_path, seed_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fitness:")
        assert "probability:" in out
        assert "probe_count:" in out

    def test_analysis_flags_accepted(self, campaign_dir, capsys):
        spec_path, seed_path, _ = campaign_dir
        rc = main(
            [
                "analyze",
                "--target", spec_path,
                "--threshold", "0.6",
                "--min-interval", "2",
                "--lp", "0.1",
                seed_path,
            ]
        )
        assert rc == 0
        probs = capsys.readouterr().out.splitlines()[1].split()[1:]
        assert min(float(p) for p in probs) >= 0.1

    def test_bad_threshold_is_one_line_error(self, campaign_dir):
        spec_path, seed_path, _ = campaign_dir
        with pytest.raises(SystemExit, match=r"^truzz analyze: threshold must be in"):
            main(["analyze", "--target", spec_path, "--threshold", "2", seed_path])

    def test_missing_seed_is_one_line_error(self, campaign_dir, tmp_path):
        spec_path, _, _ = campaign_dir
        missing = str(tmp_path / "nope")
        with pytest.raises(SystemExit, match=r"^truzz analyze: .*nope") as exc:
            main(["analyze", "--target", spec_path, missing])
        assert "\n" not in str(exc.value)

    def test_empty_seed_is_one_line_error(self, campaign_dir, tmp_path):
        spec_path, _, _ = campaign_dir
        empty = tmp_path / "empty"
        empty.write_bytes(b"")
        with pytest.raises(SystemExit, match=r"^truzz analyze: .*empty is empty") as exc:
            main(["analyze", "--target", spec_path, str(empty)])
        assert "\n" not in str(exc.value)

    def test_seed_covering_no_edges_is_one_line_error(self, tmp_path):
        # A spec with no stages parses, and every input covers no edge on it.
        spec = tmp_path / "bare.tspec"
        spec.write_text("input_length = 4\n")
        seed = tmp_path / "seed"
        seed.write_bytes(b"abcd")
        with pytest.raises(SystemExit, match=r"^truzz analyze: .*seed covers no edges") as exc:
            main(["analyze", "--target", str(spec), str(seed)])
        assert "\n" not in str(exc.value)


class TestReplay:
    def test_replay_seed(self, campaign_dir, capsys):
        spec_path, seed_path, corpus = campaign_dir
        run_fuzz(spec_path, corpus)
        capsys.readouterr()
        rc = main(
            [
                "replay",
                "--target", spec_path,
                "--corpus", str(corpus),
                "--show-path",
                seed_path,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "path size:" in out
        assert "new edges:   0" in out
        assert "edges:" in out

    def test_replay_cmd_with_space_in_path(self, tmp_path, capsys):
        script = tmp_path / "my target" / "target.py"
        script.parent.mkdir()
        script.write_text(DUMP_TARGET)
        data = tmp_path / "input"
        data.write_bytes(b"!x")
        cmd = shlex.join([sys.executable, str(script), "@@"])
        assert main(["replay", "--cmd", cmd, "--show-path", str(data)]) == 0
        assert "edges:       3 7 11" in capsys.readouterr().out

    @pytest.mark.parametrize("cmd, message", [
        ("cat", r"exactly one '@@' token, got \['cat'\]"),
        ("", r"exactly one '@@' token, got \[\]"),
        ("prog '@@", "No closing quotation"),
    ])
    def test_bad_cmd_is_one_line_error(self, tmp_path, cmd, message):
        data = tmp_path / "in.bin"
        data.write_bytes(b"x")
        with pytest.raises(SystemExit, match=rf"^truzz replay: .*{message}") as exc:
            main(["replay", "--cmd", cmd, str(data)])
        assert "\n" not in str(exc.value)

    def test_missing_input_is_one_line_error(self, campaign_dir, tmp_path):
        spec_path, _, _ = campaign_dir
        missing = str(tmp_path / "nope")
        with pytest.raises(SystemExit, match=r"^truzz replay: .*nope") as exc:
            main(["replay", "--target", spec_path, missing])
        assert "\n" not in str(exc.value)

    def test_corrupt_coverage_file_is_one_line_error(self, campaign_dir):
        spec_path, seed_path, corpus = campaign_dir
        (corpus / "overall.cov").write_text("3\nxx\n")
        argv = ["replay", "--target", spec_path, "--corpus", str(corpus), seed_path]
        with pytest.raises(SystemExit, match=r"^truzz replay: .*overall\.cov line 2: 'xx'") as exc:
            main(argv)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("edge", ["65536", "-1"])
    def test_out_of_map_coverage_file_is_one_line_error(self, campaign_dir, edge):
        spec_path, seed_path, corpus = campaign_dir
        (corpus / "overall.cov").write_text(f"3\n{edge}\n")
        argv = ["replay", "--target", spec_path, "--corpus", str(corpus), seed_path]
        message = rf"^truzz replay: .*overall\.cov line 2: edge id {edge} out of range"
        with pytest.raises(SystemExit, match=message) as exc:
            main(argv)
        assert "\n" not in str(exc.value)


class TestReport:
    def test_compare_and_a12(self, campaign_dir, tmp_path, capsys):
        spec_path, _, corpus = campaign_dir
        run_fuzz(spec_path, corpus, "--rng-seed", "1")
        _, corpus2 = make_corpus(tmp_path, "magic64", "corpus2")
        run_fuzz(spec_path, corpus2, "--rng-seed", "2", "--policy", "fifo")
        capsys.readouterr()

        rc = main(
            ["report", "compare", str(corpus / "stats.csv"), str(corpus2 / "stats.csv")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "valid ratio A:" in out and "edges covered B:" in out

        # one-run-per-directory effect size
        dir_a = tmp_path / "runs_a"
        dir_b = tmp_path / "runs_b"
        for d, src in ((dir_a, corpus), (dir_b, corpus2)):
            d.mkdir()
            (d / "r0.csv").write_bytes((src / "stats.csv").read_bytes())
        rc = main(["report", "a12", str(dir_a), str(dir_b)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("a12=")
        assert "magnitude=" in out

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["report"])

    def test_compare_wrong_columns_is_one_line_error(self, tmp_path):
        stats = tmp_path / "stats.csv"
        stats.write_text("time,execs\n0.1,10\n")
        with pytest.raises(SystemExit, match=r"^truzz report: .*expected columns"):
            main(["report", "compare", str(stats), str(stats)])

    def test_compare_non_numeric_cell_is_one_line_error(self, tmp_path):
        stats = tmp_path / "a.csv"
        stats.write_text(f"{STATS_HEADER}\n0.1,x,1,1,1,1,0\n")
        with pytest.raises(SystemExit, match=r"^truzz report: .*a\.csv: .*row 2") as exc:
            main(["report", "compare", str(stats), str(stats)])
        assert "\n" not in str(exc.value)

    def test_a12_unknown_metric_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "a12", "--metric", "nope", str(tmp_path), str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["fuzz", "--target", "{dir}", "--corpus", "{corpus}"], "Is a directory"),
    (["analyze", "--target", "{spec}", "{dir}"], "Is a directory"),
    (["report", "compare", "{dir}", "{spec}"], "Is a directory"),
    (["fuzz", "--target", "{seed}", "--corpus", "{corpus}"], "seed_00 is not UTF-8 text"),
], ids=["fuzz-dir-spec", "analyze-dir-seed", "compare-dir-stats", "fuzz-binary-spec"])
def test_unreadable_file_is_one_line_error(campaign_dir, tmp_path, argv, message):
    spec_path, seed_path, corpus = campaign_dir
    names = {"dir": str(tmp_path), "spec": spec_path, "seed": seed_path,
             "corpus": str(corpus)}
    with pytest.raises(SystemExit, match=rf"^truzz {argv[0]}: .*{message}") as exc:
        main([arg.format(**names) for arg in argv])
    assert "\n" not in str(exc.value)
