import itertools
import shutil
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
from test_target import open_fd_count

import truzz.engine
from truzz.byte_analysis import AnalysisConfig, mask_from_fitness
from truzz.engine import (
    STATS_HEADER,
    Budget,
    Campaign,
    CampaignConfig,
    replay,
    run_campaign,
)
from truzz.mutation import Rng, draw_op_count, mutate
from truzz.scheduler import CampaignError, SchedulerConfig, dry_run
from truzz.target import CompiledTarget, ExecStatus, load_spec
from truzz.targets import bundled_seed, write_bundled


def make_corpus(tmp_path, name, label="c", seeds=None):
    spec_path, seed_path = write_bundled(name, tmp_path / "target")
    corpus = tmp_path / label
    seeds_in = corpus / "seeds_in"
    seeds_in.mkdir(parents=True)
    for i, data in enumerate(seeds or [bundled_seed(name)]):
        (seeds_in / f"seed_{i:02d}").write_bytes(data)
    return spec_path, corpus


def config(spec_path, corpus, **kw):
    kw.setdefault("budget", Budget(max_execs=10_000))
    kw.setdefault("stats_interval", 1_000)
    return CampaignConfig(corpus_dir=str(corpus), target_spec=spec_path, **kw)


def snapshot(root):
    """Relative name -> bytes (None for a directory) of everything under root."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
        for p in sorted(root.rglob("*"))
    }


def interrupt_at(campaign, k):
    """Make the k-th execution (from 1) of synthetic ``campaign`` raise
    KeyboardInterrupt, as a Ctrl-C during it would; return the campaign."""
    run = campaign.compiled.run
    calls = itertools.count(1)

    def interrupted(data):
        if next(calls) == k:
            raise KeyboardInterrupt
        return run(data)

    campaign.compiled.run = interrupted
    return campaign


def artifacts(corpus):
    """Relative name -> bytes of stats.csv, overall.cov and each queue/ and
    meta/ file of a finished campaign."""
    files = [corpus / "stats.csv", corpus / "overall.cov"]
    files += sorted((corpus / "queue").iterdir()) + sorted((corpus / "meta").iterdir())
    return {f.relative_to(corpus).as_posix(): f.read_bytes() for f in files}


class TestValidation:
    def test_budget_requires_a_limit(self):
        with pytest.raises(ValueError):
            Budget()
        with pytest.raises(ValueError):
            Budget(max_execs=0)

    def test_config_requires_exactly_one_target(self, tmp_path):
        with pytest.raises(ValueError):
            CampaignConfig(corpus_dir=str(tmp_path))
        with pytest.raises(ValueError):
            CampaignConfig(
                corpus_dir=str(tmp_path), target_spec="x", command=["y", "@@"]
            )

    @pytest.mark.parametrize("command", [["prog"], ["prog", "@@", "@@"], ["prog", "@@x"]])
    def test_command_needs_one_placeholder(self, tmp_path, command):
        with pytest.raises(ValueError, match="exactly one '@@' token"):
            CampaignConfig(corpus_dir=str(tmp_path), command=command)


class TestSyntheticCampaign:
    def test_deterministic_stats_and_corpus(self, tmp_path):
        spec_path, _ = write_bundled("magic64", tmp_path / "target")
        outputs = []
        for label in ("a", "b"):
            corpus = tmp_path / label
            (corpus / "seeds_in").mkdir(parents=True)
            (corpus / "seeds_in" / "seed").write_bytes(bundled_seed("magic64"))
            run_campaign(config(spec_path, corpus, rng_seed=123))
            stats_bytes = (corpus / "stats.csv").read_bytes()
            queue = {
                p.name: p.read_bytes() for p in (corpus / "queue").iterdir()
            }
            outputs.append((stats_bytes, queue))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("name", ["magic64", "chain128"])
    def test_time_budget_reads_the_virtual_clock(self, tmp_path, name):
        """A synthetic campaign's time budget counts the virtual seconds that
        stats.csv reports, so 0.05 s is the same campaign as 5000 execs."""
        spec_path, by_execs = make_corpus(tmp_path, name, "execs")
        _, by_secs = make_corpus(tmp_path, name, "secs")
        run_campaign(config(spec_path, by_execs, budget=Budget(max_execs=5_000)))
        run_campaign(config(spec_path, by_secs, budget=Budget(max_seconds=0.05)))
        assert artifacts(by_execs) == artifacts(by_secs)

    def test_execution_accounting(self, tmp_path):
        spec_path, corpus = make_corpus(tmp_path, "magic64")
        campaign = Campaign(config(spec_path, corpus))
        stats = campaign.run()
        # mutation executions stop exactly at the budget; analysis probes for
        # a freshly selected seed may overshoot it slightly
        assert 10_000 <= stats.executions <= 10_000 + 256
        assert (
            stats.dry_run_execs + stats.probe_execs + stats.mutation_execs
            == stats.executions
        )
        # synthetic targets classify every execution
        assert stats.valid_count + stats.invalid_count == stats.executions

    def test_analysis_happens_once_per_seed(self, tmp_path):
        spec_path, corpus = make_corpus(tmp_path, "magic64")
        campaign = Campaign(config(spec_path, corpus))
        stats = campaign.run()
        analyzed = [e for e in campaign.corpus.entries if e.analysis is not None]
        assert analyzed, "at least the initial seed must be analyzed"
        assert stats.probe_execs == sum(
            e.analysis.fitness.probe_count for e in analyzed
        )

    def test_edges_covered_monotone_in_stats(self, tmp_path):
        from truzz.report import read_stats

        spec_path, corpus = make_corpus(tmp_path, "header128")
        run_campaign(config(spec_path, corpus))
        rows = read_stats(corpus / "stats.csv")
        edges = [r.edges_covered for r in rows]
        assert edges == sorted(edges)
        execs = [r.executions for r in rows]
        assert execs == sorted(execs) and len(set(execs)) == len(execs)
        assert rows[-1].executions >= 10_000

    def test_stats_rows_on_interval_boundaries(self, tmp_path):
        spec_path, corpus = make_corpus(tmp_path, "magic64")
        run_campaign(config(spec_path, corpus, stats_interval=2_500))
        lines = (corpus / "stats.csv").read_text().splitlines()
        assert lines[0] == STATS_HEADER
        execs = [int(line.split(",")[1]) for line in lines[1:]]
        assert all(e % 2_500 == 0 or e == execs[-1] for e in execs)

    def test_final_stats_row_after_retention_on_interval(self, tmp_path):
        """The last execution falls on a stats interval and retains a seed,
        so the interval row is stale; the final row must still be written."""
        from truzz.report import read_stats

        spec_path, corpus = make_corpus(tmp_path, "magic64")
        stats = run_campaign(config(
            spec_path,
            corpus,
            budget=Budget(max_execs=2),
            scheduler=SchedulerConfig(policy="fifo"),
            mask_enabled=False,
            rng_seed=0,
            stats_interval=1,
        ))
        assert (stats.seeds, stats.edges_covered) == (2, 105)
        final = read_stats(corpus / "stats.csv")[-1]
        assert (
            final.executions, final.seeds, final.edges_covered,
            final.valid, final.invalid, final.crashes,
        ) == (
            stats.executions, stats.seeds, stats.edges_covered,
            stats.valid_count, stats.invalid_count, stats.crashes,
        )

    def test_dry_run_rows_count_seeds_kept_so_far(self, tmp_path):
        """An interval row is written before its execution's retention, in
        the dry run as in mutation, so the second row counts the first seed."""
        from truzz.report import read_stats

        spec_path, corpus = make_corpus(
            tmp_path, "magic64", seeds=[bundled_seed("magic64"), bytes(64)]
        )
        run_campaign(config(spec_path, corpus, budget=Budget(max_execs=2), stats_interval=1))
        second = read_stats(corpus / "stats.csv")[1]
        assert (second.executions, second.seeds, second.edges_covered) == (2, 1, 100)

    def test_persistence_layout(self, tmp_path):
        spec_path, corpus = make_corpus(tmp_path, "magic64")
        campaign = Campaign(config(spec_path, corpus))
        campaign.run()
        assert (corpus / "stats.csv").is_file()
        assert (corpus / "overall.cov").is_file()
        queue = sorted((corpus / "queue").iterdir())
        metas = sorted((corpus / "meta").iterdir())
        assert len(queue) == len(campaign.corpus.entries) == len(metas)
        for entry in campaign.corpus.entries:
            assert (corpus / "queue" / f"id_{entry.id:06d}").read_bytes() == entry.data
        covered = {
            int(x) for x in (corpus / "overall.cov").read_text().split()
        }
        assert covered == campaign.corpus.covered

    def test_resume_restores_coverage_and_analysis(self, tmp_path):
        spec_path, corpus = make_corpus(tmp_path, "magic64")
        first = Campaign(config(spec_path, corpus))
        first.run()
        edges_before = first.corpus.edges_covered
        analyzed_before = {
            e.data for e in first.corpus.entries if e.analysis is not None
        }

        second = Campaign(config(spec_path, corpus, budget=Budget(max_execs=5_000)))
        second.run()
        assert second.corpus.edges_covered >= edges_before
        # saved analyses are reattached without re-probing
        reattached = {
            e.data
            for e in second.corpus.entries
            if e.analysis is not None and e.data in analyzed_before
        }
        assert reattached == {
            e.data for e in second.corpus.entries if e.data in analyzed_before
        }

    def test_resume_keeps_queue_ids_with_an_added_seed(self, tmp_path):
        """A seed added to seeds_in/ between runs comes after the queue, so
        every queue entry keeps its id and the added seed gets a new one."""
        spec_path, corpus = make_corpus(tmp_path, "chain128")
        run_campaign(config(spec_path, corpus, budget=Budget(max_execs=3_000), rng_seed=3))
        seed = bundled_seed("chain128")
        added = seed[:8] + b"\x29\x29" + seed[10:]  # passes chain01 and chain02
        (corpus / "seeds_in" / "seed_01").write_bytes(added)
        run_campaign(config(spec_path, corpus, budget=Budget(max_execs=1_000), rng_seed=3))

        compiled = CompiledTarget(load_spec(spec_path))
        queue = sorted((corpus / "queue").iterdir())
        for path in queue:
            meta = (corpus / "meta" / f"{path.name}.meta").read_text()
            size = len(compiled.run(path.read_bytes()).path)
            assert f"path_size = {size}\n" in meta, path.name
        datas = [p.read_bytes() for p in queue]
        assert added in datas
        assert len(set(datas)) == len(datas)

    def test_entries_stay_in_id_order(self, tmp_path):
        """The corpus keeps seeds in retention order, entry i with id i,
        after a campaign and after a resume of it."""
        spec_path, corpus = make_corpus(tmp_path, "chain128")
        for _ in range(2):
            campaign = Campaign(config(spec_path, corpus, budget=Budget(max_execs=3_000),
                                       rng_seed=3))
            campaign.run()
            assert len(campaign.corpus) > 1
            assert [e.id for e in campaign.corpus.entries] == list(range(len(campaign.corpus)))

    def test_mask_off_fifo_equals_vanilla_reference(self, tmp_path):
        """The baseline configuration must reproduce a hand-written vanilla
        greybox loop execution-for-execution under the same RNG seed."""
        spec_path, corpus = make_corpus(tmp_path, "header128")
        cfg = config(
            spec_path,
            corpus,
            budget=Budget(max_execs=6_000),
            scheduler=SchedulerConfig(energy=256, policy="fifo"),
            mask_enabled=False,
            rng_seed=77,
        )
        campaign = Campaign(cfg)
        campaign.run()

        # independent reference loop
        compiled = CompiledTarget(load_spec(spec_path))
        rng = Rng(77)
        seeds = [bundled_seed("header128")]
        execs = 0

        def run(data):
            nonlocal execs
            execs += 1
            return compiled.execute(data).path

        ref = dry_run(seeds, run)
        cursor = 0
        while execs < 6_000:
            ordered = sorted(ref.entries, key=lambda e: e.id)
            seed = ordered[cursor % len(ordered)]
            cursor += 1
            for _ in range(256):
                if execs >= 6_000:
                    break
                child = mutate(seed.data, None, rng, draw_op_count(rng))
                ref.retain_if_new(child, run(child))

        assert [e.data for e in sorted(campaign.corpus.entries, key=lambda e: e.id)] \
            == [e.data for e in sorted(ref.entries, key=lambda e: e.id)]
        assert campaign.corpus.covered == ref.covered

    def test_missing_seed_directory_fails(self, tmp_path):
        from truzz.scheduler import CampaignError

        spec_path, _ = write_bundled("magic64", tmp_path / "target")
        empty = tmp_path / "nothing"
        empty.mkdir()
        with pytest.raises(CampaignError):
            run_campaign(config(spec_path, empty, budget=Budget(max_execs=10)))

    def test_empty_seed_file_named_in_error(self, tmp_path):
        from truzz.scheduler import CampaignError

        spec_path, corpus = make_corpus(
            tmp_path, "magic64", seeds=[bundled_seed("magic64"), b""]
        )
        with pytest.raises(CampaignError, match="seed_01"):
            run_campaign(config(spec_path, corpus, budget=Budget(max_execs=10)))

    def test_empty_queue_file_named_on_resume(self, tmp_path):
        """A kept seed is never empty, so an empty queue file is a torn
        write; resume names it instead of fuzzing an empty seed."""
        spec_path, corpus = make_corpus(tmp_path, "magic64")
        run_campaign(config(spec_path, corpus, budget=Budget(max_execs=2_000)))
        (corpus / "queue" / "id_000000").write_bytes(b"")
        cfg = config(
            spec_path, corpus, budget=Budget(max_execs=2_000),
            scheduler=SchedulerConfig(energy=100, policy="fifo"),
        )
        with pytest.raises(CampaignError, match="id_000000"):
            run_campaign(cfg)

    @pytest.mark.parametrize("fault", ["missing seeds_in", "empty seed file", "empty queue file"])
    def test_refused_start_leaves_the_corpus_as_it_was(self, tmp_path, fault):
        """Every input is checked before anything is written, so a refused
        resume keeps the earlier campaign's stats.csv and corpus."""
        spec_path, corpus = make_corpus(tmp_path, "magic64")
        run_campaign(config(spec_path, corpus, budget=Budget(max_execs=2_000), stats_interval=500))
        if fault == "missing seeds_in":
            shutil.rmtree(corpus / "seeds_in")
        elif fault == "empty seed file":
            (corpus / "seeds_in" / "seed_01").write_bytes(b"")
        else:
            (corpus / "queue" / "id_000000").write_bytes(b"")
        before = snapshot(corpus)
        assert before["stats.csv"].count(b"\n") == 5
        with pytest.raises(CampaignError):
            run_campaign(config(spec_path, corpus, budget=Budget(max_execs=2_000)))
        assert snapshot(corpus) == before

    def test_refused_fresh_start_creates_no_directory(self, tmp_path):
        spec_path, _ = write_bundled("magic64", tmp_path / "target")
        corpus = tmp_path / "fresh"
        with pytest.raises(CampaignError, match="missing initial seed directory"):
            run_campaign(config(spec_path, corpus, budget=Budget(max_execs=10)))
        assert not corpus.exists()

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_interrupted_resume_dry_run_leaves_the_corpus_as_it_was(self, tmp_path, k):
        """The saved fitness is reattached only when the dry run ends, so an
        interrupt before then persists nothing and rewrites no stats.csv."""
        spec_path, corpus = make_corpus(tmp_path, "chain128")
        run_campaign(config(spec_path, corpus, budget=Budget(max_execs=5_000),
                            rng_seed=1, stats_interval=500))
        before = snapshot(corpus)
        assert b"fitness" in before["meta/id_000000.meta"]
        resumed = interrupt_at(Campaign(config(spec_path, corpus, stats_interval=500)), k)
        stats = resumed.run()
        # dry_run_execs is set when the dry run ends, so k fell inside it.
        assert stats.executions == k - 1 and stats.dry_run_execs == 0
        assert snapshot(corpus) == before

    def test_interrupted_fresh_dry_run_writes_nothing(self, tmp_path):
        spec_path, corpus = make_corpus(tmp_path, "magic64")
        before = snapshot(corpus)
        interrupt_at(Campaign(config(spec_path, corpus)), 1).run()
        assert snapshot(corpus) == before

    def test_resume_builds_masks_under_the_running_floor(self, tmp_path):
        spec_path, corpus = make_corpus(tmp_path, "magic64")
        run_campaign(config(spec_path, corpus, budget=Budget(max_execs=2_000)))
        analysis = AnalysisConfig(prob_floor=0.3)
        # A one-execution budget stops after the dry run, so every analysis
        # the campaign holds was reattached from meta/.
        resumed = Campaign(config(spec_path, corpus, budget=Budget(max_execs=1), analysis=analysis))
        resumed.run()
        reattached = [e.analysis for e in resumed.corpus.entries if e.analysis is not None]
        assert reattached and resumed.stats.probe_execs == 0
        for sa in reattached:
            assert sa.mask.probability == mask_from_fitness(sa.fitness, analysis).probability
            assert min(sa.mask.probability) == 0.3

    @pytest.mark.parametrize("damage", ["not ascii", "not a float"])
    def test_unreadable_meta_means_the_seed_is_analysed_again(self, tmp_path, damage):
        """A .meta file caches a deterministic analysis, so resume treats
        one it cannot parse as missing and analyses the seed again."""
        spec_path, corpus = make_corpus(tmp_path, "magic64")
        first = Campaign(config(spec_path, corpus, budget=Budget(max_execs=2_000)))
        first.run()
        fitness = {e.data: e.analysis.fitness for e in first.corpus.entries if e.analysis}
        meta = corpus / "meta" / "id_000000.meta"
        if damage == "not ascii":
            meta.write_bytes(b"\xff\xfe garbage")
        else:
            lines = meta.read_text().splitlines()
            lines = ["fitness = 0.5,zz" if ln.startswith("fitness") else ln for ln in lines]
            meta.write_text("\n".join(lines) + "\n")
        seed = (corpus / "queue" / "id_000000").read_bytes()
        assert seed in fitness

        # FIFO selects id 0 first, and the mask needs its analysis.
        resumed = Campaign(config(
            spec_path, corpus, budget=Budget(max_execs=2_000),
            scheduler=SchedulerConfig(energy=1, policy="fifo"),
        ))
        resumed.run()
        entry = next(e for e in resumed.corpus.entries if e.data == seed)
        assert entry.analysis.fitness == fitness[seed]
        assert "fitness = 0.5,zz" not in meta.read_text()

    def test_stats_rows_readable_while_running(self, tmp_path):
        from truzz.report import read_stats

        spec_path, corpus = make_corpus(tmp_path, "magic64")
        seen = []

        class Watched(Campaign):
            def _fuzz_round(self, entry):
                seen.append(read_stats(corpus / "stats.csv")[-1].executions)
                return super()._fuzz_round(entry)

        cfg = config(
            spec_path, corpus, budget=Budget(max_execs=2_000), stats_interval=1,
            scheduler=SchedulerConfig(energy=100),
        )
        stats = Watched(cfg).run()
        # Before the first round only the dry run has executed; every later
        # round sees the rows of every execution before it.
        assert seen[0] == stats.dry_run_execs
        assert len(seen) > 2 and seen == sorted(seen) and seen[-1] < stats.executions


CRASHY_TARGET = textwrap.dedent(
    """
    import os, sys
    data = open(sys.argv[1], 'rb').read()
    with open(os.environ['TRUZZ_COV_FILE'], 'w') as fh:
        fh.write('1\\n2\\n')
        if data and data[0] % 2:
            fh.write('5\\n')
    if len(data) > 1 and data[1] == 0xff:
        os.kill(os.getpid(), 9)
    """
)


class TestExternalCampaign:
    @pytest.mark.parametrize("mask_enabled", [False, True])
    def test_crashes_saved_not_retained(self, tmp_path, mask_enabled):
        script = tmp_path / "target.py"
        script.write_text(CRASHY_TARGET)
        corpus = tmp_path / "c"
        (corpus / "seeds_in").mkdir(parents=True)
        (corpus / "seeds_in" / "seed").write_bytes(b"\x00" * 8)
        cfg = CampaignConfig(
            corpus_dir=str(corpus),
            command=[sys.executable, str(script), "@@"],
            budget=Budget(max_execs=120),
            scheduler=SchedulerConfig(energy=30),
            mask_enabled=mask_enabled,
            rng_seed=5,
            stats_interval=50,
        )
        campaign = Campaign(cfg)
        stats = campaign.run()
        assert stats.executions == 120
        # valid/invalid undefined for external targets
        assert stats.valid_count == 0 and stats.invalid_count == 0
        # Every crash, whether from a mutated child or a byte-analysis
        # probe, is saved under its crash count.
        assert stats.crashes > 0
        crash_files = sorted((corpus / "crashes").iterdir())
        assert [f.name for f in crash_files] == [
            f"crash_{i:06d}" for i in range(1, stats.crashes + 1)
        ]
        for f in crash_files:
            assert f.read_bytes()[1] == 0xFF
        retained = {e.data for e in campaign.corpus.entries}
        assert not any(d[1] == 0xFF for d in retained if len(d) > 1)

    def test_crashing_initial_seed_saved_not_retained(self, tmp_path):
        script = tmp_path / "target.py"
        script.write_text(CRASHY_TARGET)
        corpus = tmp_path / "c"
        (corpus / "seeds_in").mkdir(parents=True)
        crashing = b"\x01\xff" + b"\x00" * 6  # new edge 5, then a crash
        (corpus / "seeds_in" / "a").write_bytes(b"\x00" * 8)
        (corpus / "seeds_in" / "b").write_bytes(crashing)
        cfg = CampaignConfig(
            corpus_dir=str(corpus),
            command=[sys.executable, str(script), "@@"],
            budget=Budget(max_execs=2),  # the dry run only
            mask_enabled=False,
        )
        Campaign(cfg).run()
        assert (corpus / "crashes" / "crash_000001").read_bytes() == crashing
        assert [f.name for f in (corpus / "queue").iterdir()] == ["id_000000"]
        assert (corpus / "queue" / "id_000000").read_bytes() == b"\x00" * 8
        # The crash's path is merged, as a crashing child's is.
        assert (corpus / "overall.cov").read_text() == "1\n2\n5\n"

    def test_final_stats_row_not_repeated(self, tmp_path):
        """Nothing changes after the last interval row but the wall clock;
        the final row must not repeat the interval row's counts."""
        from truzz.report import read_stats

        script = tmp_path / "target.py"
        script.write_text(CRASHY_TARGET)
        corpus = tmp_path / "c"
        (corpus / "seeds_in").mkdir(parents=True)
        # Covers every edge, and is too short to crash the target.
        (corpus / "seeds_in" / "seed").write_bytes(b"\x01")
        stats = Campaign(CampaignConfig(
            corpus_dir=str(corpus),
            command=[sys.executable, str(script), "@@"],
            budget=Budget(max_execs=20),
            mask_enabled=False,
            stats_interval=10,
        )).run()
        rows = read_stats(corpus / "stats.csv")
        assert [r.executions for r in rows] == [10, 20]
        assert rows[-1].elapsed_s == float(f"{stats.elapsed:.6f}")

    def test_only_crashing_initial_seeds_fail(self, tmp_path):
        from truzz.scheduler import CampaignError

        script = tmp_path / "target.py"
        script.write_text(CRASHY_TARGET)
        corpus = tmp_path / "c"
        (corpus / "seeds_in").mkdir(parents=True)
        (corpus / "seeds_in" / "seed").write_bytes(b"\x00\xff" + b"\x00" * 6)
        cfg = CampaignConfig(
            corpus_dir=str(corpus),
            command=[sys.executable, str(script), "@@"],
            budget=Budget(max_execs=5),
            mask_enabled=False,
        )
        with pytest.raises(CampaignError, match=r"every initial seed crashed.*crashes"):
            Campaign(cfg).run()
        assert (corpus / "crashes" / "crash_000001").is_file()

    def test_crashes_numbered_after_earlier_runs(self, tmp_path):
        script = tmp_path / "target.py"
        script.write_text(CRASHY_TARGET)
        corpus = tmp_path / "c"
        (corpus / "seeds_in").mkdir(parents=True)
        (corpus / "seeds_in" / "seed").write_bytes(b"\x00" * 8)

        def run(rng_seed):
            return Campaign(CampaignConfig(
                corpus_dir=str(corpus),
                command=[sys.executable, str(script), "@@"],
                budget=Budget(max_execs=80),
                scheduler=SchedulerConfig(energy=20),
                mask_enabled=False,
                rng_seed=rng_seed,
            )).run().crashes

        first = run(5)
        assert first > 0
        saved = {f.name: f.read_bytes() for f in (corpus / "crashes").iterdir()}
        second = run(6)
        assert second > 0
        names = sorted(f.name for f in (corpus / "crashes").iterdir())
        assert names == [f"crash_{i:06d}" for i in range(1, first + second + 1)]
        for name, data in saved.items():
            assert (corpus / "crashes" / name).read_bytes() == data

    def test_no_work_directory_left_behind(self, tmp_path, monkeypatch):
        from truzz.scheduler import CampaignError

        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        workdirs = []
        execute = truzz.engine.execute_external

        def recording(target, data):
            workdirs.append(target.workdir)
            return execute(target, data)

        monkeypatch.setattr(truzz.engine, "execute_external", recording)
        script = tmp_path / "target.py"
        script.write_text(CRASHY_TARGET)

        def campaign(label, seed):
            corpus = tmp_path / label
            (corpus / "seeds_in").mkdir(parents=True)
            (corpus / "seeds_in" / "seed").write_bytes(seed)
            return Campaign(CampaignConfig(
                corpus_dir=str(corpus),
                command=[sys.executable, str(script), "@@"],
                budget=Budget(max_execs=20),
                scheduler=SchedulerConfig(energy=10),
            ))

        fds = open_fd_count()
        stats = campaign("finishes", b"\x00" * 8).run()
        assert stats.executions == 20
        # One work directory serves the whole campaign.
        assert len(set(workdirs)) == 1
        assert Path(workdirs[0]).parent == tmp
        assert Path(workdirs[0]).name.startswith("truzz-exec-")
        assert list(tmp.iterdir()) == []
        assert open_fd_count() == fds

        with pytest.raises(CampaignError):
            campaign("all-crash", b"\x00\xff" + b"\x00" * 6).run()
        assert len(set(workdirs)) == 2
        assert list(tmp.iterdir()) == []
        assert open_fd_count() == fds

        rep = replay(
            str(tmp_path / "finishes" / "queue" / "id_000000"),
            command=[sys.executable, str(script), "@@"],
        )
        assert rep.path_size == 2
        assert len(set(workdirs)) == 3
        assert list(tmp.iterdir()) == []
        assert open_fd_count() == fds


class TestReplay:
    def test_replay_queue_seed_has_no_novelty(self, tmp_path):
        spec_path, corpus = make_corpus(tmp_path, "magic64")
        run_campaign(config(spec_path, corpus))
        some_seed = next(iter(sorted((corpus / "queue").iterdir())))
        rep = replay(str(some_seed), target_spec=spec_path, corpus_dir=str(corpus))
        assert rep.new_edges == 0
        assert rep.path_size > 0
        assert rep.exec_status is ExecStatus.NORMAL

    def test_replay_without_corpus_reports_full_path(self, tmp_path):
        spec_path, seed_path = write_bundled("magic64", tmp_path / "t")
        rep = replay(seed_path, target_spec=spec_path, show_path=True)
        assert rep.new_edges == rep.path_size == len(rep.edges)
        assert rep.valid is True

    def test_replay_missing_file(self, tmp_path):
        spec_path, _ = write_bundled("magic64", tmp_path / "t")
        with pytest.raises(FileNotFoundError):
            replay(str(tmp_path / "nope"), target_spec=spec_path)
