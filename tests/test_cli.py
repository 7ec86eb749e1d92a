import shlex
import sys
from pathlib import Path

import pytest
from test_target import DUMP_TARGET

from truzz.cli import main
from truzz.targets import write_bundled


@pytest.fixture()
def campaign_dir(tmp_path):
    spec_path, seed_path = write_bundled("magic64", tmp_path / "target")
    corpus = tmp_path / "corpus"
    seeds_in = corpus / "seeds_in"
    seeds_in.mkdir(parents=True)
    seeds_in.joinpath("seed").write_bytes(Path(seed_path).read_bytes())
    return spec_path, seed_path, corpus


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


class TestReport:
    def test_compare_and_a12(self, campaign_dir, tmp_path, capsys):
        spec_path, _, corpus = campaign_dir
        run_fuzz(spec_path, corpus, "--rng-seed", "1")
        corpus2 = tmp_path / "corpus2"
        (corpus2 / "seeds_in").mkdir(parents=True)
        (corpus2 / "seeds_in" / "seed").write_bytes(
            (corpus / "seeds_in" / "seed").read_bytes()
        )
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
