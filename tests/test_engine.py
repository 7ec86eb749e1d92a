import ctypes
import dataclasses
import itertools
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from harness import (
    PID_TARGET,
    external_config,
    make_corpus,
    many_checks,
    open_fd_count,
    vanilla_fifo,
    without_mutate_c,
    write_seeds,
)

import truzz.engine
import truzz.mutation
import truzz.target
from truzz.byte_analysis import AnalysisConfig, mask_from_fitness
from truzz.engine import (
    STATS_HEADER,
    VIRTUAL_SECONDS_PER_EXEC,
    Budget,
    Campaign,
    CampaignConfig,
    replay,
    run_campaign,
)
from truzz.mutation import mutate_chunks
from truzz.scheduler import CampaignError, Policy, SchedulerConfig
from truzz.target import MAX_TIMEOUT, CompiledTarget, ExecStatus, load_spec
from truzz.targets import bundled_names, bundled_seed, write_bundled


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

    def interrupted(data, then=None):
        if next(calls) == k:
            raise KeyboardInterrupt
        return run(data)

    campaign.compiled.run = interrupted
    return campaign


def record_children(monkeypatch):
    """Record, in order, each child of each chunk the fuzz loop takes from
    ``mutate_chunks``; return the list it fills."""
    made = []

    def recorded(chunks, length):
        for buffer, k in chunks:
            made.extend(buffer[start:start + length] for start in range(0, k * length, length))
            yield buffer, k

    monkeypatch.setattr(truzz.engine, "mutate_chunks",
                        lambda seed, *args: recorded(mutate_chunks(seed, *args), len(seed)))
    return made


def kernel_or_skip():
    """mutate.c's truzz_round; the test is skipped where it cannot be
    built."""
    kernel = truzz.mutation._kernel()
    if kernel is None:
        pytest.skip("no C compiler on this host")
    return kernel


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

    @pytest.mark.parametrize("seconds", [0.0, -1.0, float("nan"), float("inf")])
    def test_budget_seconds_must_be_positive_and_finite(self, seconds):
        """A NaN budget would pass a ``<= 0`` test and never run out."""
        with pytest.raises(ValueError, match="max_seconds must be a positive finite"):
            Budget(max_seconds=seconds)

    @pytest.mark.parametrize("field, make", [
        ("max_execs", lambda: Budget(max_execs=2500.5)),
        ("max_execs", lambda: Budget(max_execs=2500.0, max_seconds=1.0)),
        ("stats_interval", lambda: CampaignConfig(corpus_dir="c", target_spec="t",
                                                  stats_interval=7.5)),
        ("energy", lambda: SchedulerConfig(energy=10.5)),
    ])
    def test_counts_must_be_integers(self, field, make):
        """A fractional count is refused by name when its config is made,
        not in the first round, after the dry run has written the corpus."""
        with pytest.raises(ValueError, match=f"{field} must be .*integer"):
            make()

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

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf"), 1e30])
    def test_command_timeout_checked_when_made(self, tmp_path, timeout):
        """A command target's timeout is refused by the config, not when
        ``run()`` makes the ExternalTarget."""
        command = ["prog", "@@"]
        with pytest.raises(ValueError, match="timeout must be a positive"):
            CampaignConfig(corpus_dir=str(tmp_path), command=command, exec_timeout=timeout)
        CampaignConfig(corpus_dir=str(tmp_path), command=command, exec_timeout=MAX_TIMEOUT)


class TestSyntheticCampaign:
    def test_deterministic_stats_and_corpus(self, tmp_path):
        outputs = []
        for label in ("a", "b"):
            spec_path, corpus = make_corpus(tmp_path, "magic64", label)
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

    @settings(max_examples=25, deadline=None)
    @given(seconds=st.floats(1e-6, 0.1), max_execs=st.none() | st.integers(1, 10_000))
    @example(seconds=0.0523, max_execs=None)
    @example(seconds=3e-5, max_execs=None)
    @example(seconds=0.07, max_execs=None)
    @example(seconds=0.07, max_execs=6_999)  # the execution budget binds first
    # Stops so far past any campaign that a search one count at a time
    # would not end, or whose count overflows a float.
    @example(seconds=1e20, max_execs=500)
    @example(seconds=1e305, max_execs=500)
    def test_time_budget_stops_on_the_first_execution_to_reach_it(self, seconds, max_execs):
        """A synthetic campaign stops on the first execution count whose
        virtual time reaches ``max_seconds``, unless ``max_execs`` comes
        first; with no mask, no probe can overshoot it."""
        def virtual(executions):
            return executions * VIRTUAL_SECONDS_PER_EXEC

        if max_execs is not None and virtual(max_execs - 1) < seconds:
            stop = max_execs
        else:
            stop = next(k for k in itertools.count(1) if virtual(k) >= seconds)
        with tempfile.TemporaryDirectory() as tmp:
            spec_path, corpus = make_corpus(Path(tmp), "magic64")
            stats = run_campaign(config(
                spec_path, corpus, budget=Budget(max_execs=max_execs, max_seconds=seconds),
                scheduler=SchedulerConfig(energy=64, policy=Policy.FIFO), mask_enabled=False))
        assert stats.executions == stop
        assert stats.elapsed == virtual(stop)

    def test_rounds_pair_their_children(self, tmp_path, monkeypatch):
        """A synthetic round makes and scores exactly the children of its
        chunks, one kernel call per chunk, carried over several calls where
        the copy-out buffer fills, and makes none past the round's energy
        or the execution budget; only the dry run and the probes run one
        input at a time."""
        kernel = kernel_or_skip()
        energy, max_execs = 16, 1_000
        monkeypatch.setattr(truzz.mutation, "_CALL_BYTES", 3 * 64)  # three firsts a call
        spec_path, corpus = make_corpus(tmp_path, "magic64")
        campaign = Campaign(config(spec_path, corpus, budget=Budget(max_execs=max_execs),
                                   scheduler=SchedulerConfig(energy=energy)))
        run = campaign.compiled.run
        calls = []

        def recording(data, then=None):
            calls.append((data, then))
            return run(data)

        campaign.compiled.run = recording
        made, rounds = [], []  # children each kernel call made; chunk sizes of each round

        def recording_kernel(*args):
            kept = kernel(*args)
            n, capacity, firsts = args[12], args[14], args[15]
            last = ctypes.c_uint32.from_address(firsts + 4 * (kept - 1)).value if kept else 0
            made.append(n if kept < capacity else last + 1)
            return kept

        round_ = CompiledTarget.round

        def recording_round(self, *args):
            rounds.append([])
            for chunk in round_(self, *args):
                rounds[-1].append(chunk.size)
                yield chunk

        monkeypatch.setattr(truzz.mutation, "_kernel", lambda: recording_kernel)
        monkeypatch.setattr(CompiledTarget, "round", recording_round)
        stats = campaign.run()
        assert made == [size for sizes in rounds for size in sizes]
        assert len(made) > len(rounds)
        assert all(sum(sizes) <= energy for sizes in rounds)
        assert sum(made) == stats.mutation_execs
        assert stats.executions == max_execs
        assert len(calls) == stats.dry_run_execs + stats.probe_execs

    @pytest.mark.parametrize("case", [
        *(f"{name}-{interval}" for name in bundled_names() for interval in (7, 1000)),
        "magic64-seconds", "chain128-seconds", "magic64-lengths", "checks-24", "checks-25",
    ])
    def test_round_path_equals_per_child_path(self, tmp_path, monkeypatch, case):
        """A round whose children ``mutate.c`` makes and scores writes the
        same stats.csv, queue, meta and overall.cov as one where ``mutate``
        makes them and Python scores them: on every bundled spec at two
        stats intervals, under a time budget that ends mid-round, with
        seeds shorter and longer than the input, and on generated specs
        with as many checks as the C scorer takes and with one more, which
        Python scores in both runs."""
        name, _, variant = case.rpartition("-")
        kw = {"budget": Budget(max_execs=20_000)}
        seeds = None
        if variant.isdigit() and name != "checks":
            kw["stats_interval"] = int(variant)
        elif variant == "seconds":
            kw["budget"] = Budget(max_seconds=0.0523)
        elif variant == "lengths":
            seed = bundled_seed(name)
            seeds = [seed[:40], seed + b"\x01\x02\x03"]
        if name == "checks":
            spec_path, corpus = many_checks(tmp_path, int(variant), "round")
            fits = int(variant) <= truzz.target.CODE_CHECKS
            assert (CompiledTarget(load_spec(spec_path))._table is not None) == fits
        else:
            spec_path, corpus = make_corpus(tmp_path, name, "round", seeds)
        run_campaign(config(spec_path, corpus, **kw))
        per_child = shutil.copytree(corpus, tmp_path / "per-child")
        for part in ("stats.csv", "overall.cov", "queue", "meta"):
            path = per_child / part
            shutil.rmtree(path) if path.is_dir() else path.unlink()
        without_mutate_c(monkeypatch)
        run_campaign(config(spec_path, per_child, **kw))
        assert artifacts(per_child) == artifacts(corpus)

    @pytest.mark.parametrize("name", ["magic64", "record512"])
    def test_copy_out_capacity_changes_no_artifact(self, tmp_path, monkeypatch, name):
        """A campaign writes the same stats.csv, queue, meta and overall.cov
        whether each kernel call's copy-out buffer holds 64 KiB of first
        children or one, so that every first ends a call."""
        kernel_or_skip()
        kw = {"budget": Budget(max_execs=20_000), "stats_interval": 7}
        spec_path, corpus = make_corpus(tmp_path, name, "wide")
        run_campaign(config(spec_path, corpus, **kw))
        narrow = shutil.copytree(corpus, tmp_path / "narrow")
        for part in ("stats.csv", "overall.cov", "queue", "meta"):
            path = narrow / part
            shutil.rmtree(path) if path.is_dir() else path.unlink()
        monkeypatch.setattr(truzz.mutation, "_CALL_BYTES", 1)
        run_campaign(config(spec_path, narrow, **kw))
        assert artifacts(narrow) == artifacts(corpus)

    @pytest.mark.parametrize("per_call", [1, 3])
    @pytest.mark.parametrize("name", ["magic64", "record512"])
    def test_children_per_call_change_no_artifact(self, tmp_path, monkeypatch, name, per_call):
        """A campaign writes the same stats.csv, queue, meta and overall.cov
        whether a kernel call makes a round's children 4096 at a time or
        one or three, so that the round's set of codes is rebuilt larger
        as it fills."""
        kernel_or_skip()
        kw = {"budget": Budget(max_execs=20_000), "stats_interval": 7}
        spec_path, corpus = make_corpus(tmp_path, name, "wide")
        run_campaign(config(spec_path, corpus, **kw))
        narrow = shutil.copytree(corpus, tmp_path / "narrow")
        for part in ("stats.csv", "overall.cov", "queue", "meta"):
            path = narrow / part
            shutil.rmtree(path) if path.is_dir() else path.unlink()
        monkeypatch.setattr(truzz.mutation, "_CALL_CHILDREN", per_call)
        run_campaign(config(spec_path, narrow, **kw))
        assert artifacts(narrow) == artifacts(corpus)

    @pytest.mark.parametrize("where", [
        "analysis", "per-child code without mutate.c", "round result", "round score",
        "interval boundary",
    ])
    def test_interrupt_leaves_phases_summing_to_executions(self, tmp_path, monkeypatch, where):
        """Probes and mutated children are counted where executions are,
        so an interrupt anywhere after the dry run leaves the phase counts
        summing to the executions, and the final stats.csv row is the
        returned stats. Without ``mutate.c``, the interrupt comes while
        Python scores the second round's children, one code at a time; at
        an interval boundary, while the third row of the mutated children
        is written."""
        from truzz.report import read_stats

        spec_path, corpus = make_corpus(tmp_path, "magic64")
        kw = {"stats_interval": 100 if where == "interval boundary" else 1_000}
        if where == "per-child code without mutate.c":
            kw["mask_enabled"] = False
            kw["scheduler"] = SchedulerConfig(energy=16)
            without_mutate_c(monkeypatch)
        campaign = Campaign(config(spec_path, corpus, **kw))
        calls = itertools.count(1)
        if where == "analysis":
            interrupt_at(campaign, 5)
        elif where == "per-child code without mutate.c":
            code = campaign.compiled._code

            def interrupted_code(data):
                if next(calls) == 30:
                    raise KeyboardInterrupt
                return code(data)

            campaign.compiled._code = interrupted_code
        elif where == "round score":
            kernel = kernel_or_skip()

            def interrupted_kernel(*args):
                if next(calls) == 3:
                    raise KeyboardInterrupt
                return kernel(*args)

            monkeypatch.setattr(truzz.mutation, "_kernel", lambda: interrupted_kernel)
        elif where == "interval boundary":
            row = truzz.engine._StatsWriter.row

            def interrupted_row(writer, stats):
                if stats.mutation_execs and next(calls) == 3:
                    raise KeyboardInterrupt
                return row(writer, stats)

            monkeypatch.setattr(truzz.engine._StatsWriter, "row", interrupted_row)
        else:
            result_of, run = campaign.compiled.result_of, campaign.compiled.run
            running = []  # the lookups of run, for the dry run and probes, are not counted

            def uncounted_run(data, then=None):
                running.append(data)
                try:
                    return run(data)
                finally:
                    running.pop()

            def interrupted(code):
                if not running and next(calls) == 3:
                    raise KeyboardInterrupt
                return result_of(code)

            campaign.compiled.run = uncounted_run
            campaign.compiled.result_of = interrupted
        stats = campaign.run()
        if where == "analysis":
            assert (stats.executions, stats.dry_run_execs, stats.probe_execs) == (4, 1, 3)
        else:
            assert 0 < stats.mutation_execs and stats.executions < 10_000
        if where == "per-child code without mutate.c":
            assert stats.executions == 1 + 16  # the seed and the first round
        assert stats.dry_run_execs + stats.probe_execs + stats.mutation_execs \
            == stats.executions
        final = read_stats(corpus / "stats.csv")[-1]
        assert (final.elapsed_s, final.executions, final.seeds, final.edges_covered,
                final.valid, final.invalid, final.crashes) == (
            float(f"{stats.elapsed:.6f}"), stats.executions, stats.seeds,
            stats.edges_covered, stats.valid_count, stats.invalid_count, stats.crashes)

    def test_probes_that_use_up_the_budget_leave_an_empty_round(self, tmp_path, monkeypatch):
        """With one execution per seed and one more, the first seed's probes
        overshoot the budget, so its round makes no child and loads nothing
        from ``mutate.c``."""
        def refuse(*args):
            raise AssertionError("an empty round loaded mutate.c")

        monkeypatch.setattr(truzz.mutation, "_kernel", refuse)
        spec_path, corpus = make_corpus(tmp_path, "magic64")
        stats = run_campaign(config(spec_path, corpus, budget=Budget(max_execs=2)))
        assert stats.probe_execs > 1 and stats.mutation_execs == 0
        assert stats.executions == stats.dry_run_execs + stats.probe_execs

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

    def test_stats_rows_on_interval_boundaries(self, tmp_path, monkeypatch):
        """Rows fall on interval boundaries, the last aside. On magic64 and
        record512, with and without ``mutate.c``, there is a row on every
        boundary, which is the row a campaign writing one per execution
        writes at that count, and the last rows are the same, so the
        children a round charges in bulk are split exactly at each
        boundary."""
        from truzz.report import read_stats

        spec_path, corpus = make_corpus(tmp_path, "magic64")
        run_campaign(config(spec_path, corpus, stats_interval=2_500))
        lines = (corpus / "stats.csv").read_text().splitlines()
        assert lines[0] == STATS_HEADER
        execs = [int(line.split(",")[1]) for line in lines[1:]]
        assert all(e % 2_500 == 0 or e == execs[-1] for e in execs)
        for name, kernel in itertools.product(["magic64", "record512"], [True, False]):
            with monkeypatch.context() as patch:
                if not kernel:
                    without_mutate_c(patch)
                spec_path, _ = write_bundled(name, tmp_path / name)
                label = f"{name}-{kernel}"
                every = write_seeds(tmp_path / label / "1", [bundled_seed(name)])
                run_campaign(config(spec_path, every, stats_interval=1))
                reference = read_stats(every / "stats.csv")
                at = {}
                for row in reference:  # the final row may repeat the count before it
                    at.setdefault(row.executions, row)
                for interval in (7, 1000, 1024, 4097):
                    corpus = write_seeds(tmp_path / label / str(interval), [bundled_seed(name)])
                    run_campaign(config(spec_path, corpus, stats_interval=interval))
                    expected = [at[e] for e in range(interval, reference[-1].executions + 1,
                                                     interval)]
                    if expected[-1:] != reference[-1:]:  # a row repeating the last is skipped
                        expected.append(reference[-1])
                    assert read_stats(corpus / "stats.csv") == expected

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

        ref = vanilla_fifo(spec_path, [bundled_seed("header128")], 6_000, 256, 77)
        assert [e.data for e in sorted(campaign.corpus.entries, key=lambda e: e.id)] \
            == [e.data for e in sorted(ref.entries, key=lambda e: e.id)]
        assert campaign.corpus.covered == ref.covered

    def test_missing_seed_directory_fails(self, tmp_path):
        spec_path, _ = write_bundled("magic64", tmp_path / "target")
        empty = tmp_path / "nothing"
        empty.mkdir()
        with pytest.raises(CampaignError):
            run_campaign(config(spec_path, empty, budget=Budget(max_execs=10)))

    def test_empty_seed_file_named_in_error(self, tmp_path):
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

    def test_resume_keeps_every_covered_edge(self, tmp_path):
        """Edges seen only by probes or crashes are in overall.cov, not in
        any queue seed's path; a resume that ends in its dry run keeps them."""
        spec_path, corpus = make_corpus(tmp_path, "magic64")
        run_campaign(config(spec_path, corpus, budget=Budget(max_execs=5_000), rng_seed=3))
        before = (corpus / "overall.cov").read_bytes()
        run_campaign(config(spec_path, corpus, budget=Budget(max_execs=1), rng_seed=3))
        assert (corpus / "overall.cov").read_bytes() == before

    @pytest.mark.parametrize("line", ["xx", "65536"])
    def test_corrupt_coverage_named_on_resume(self, tmp_path, line):
        """A bad overall.cov line is named, as replay names it, before the
        earlier campaign's files are touched."""
        spec_path, corpus = make_corpus(tmp_path, "magic64")
        run_campaign(config(spec_path, corpus, budget=Budget(max_execs=2_000)))
        (corpus / "overall.cov").write_text(f"3\n{line}\n")
        before = snapshot(corpus)
        with pytest.raises(CampaignError, match=r"overall\.cov line 2: "):
            run_campaign(config(spec_path, corpus, budget=Budget(max_execs=2_000)))
        assert snapshot(corpus) == before

    def test_each_run_counts_from_zero(self, tmp_path):
        """A second ``run()`` of one Campaign is a resume with its own
        stats: its dry run re-runs the first run's queue and its budget is
        spent anew."""
        spec_path, corpus = make_corpus(tmp_path, "magic64")
        campaign = Campaign(config(spec_path, corpus, budget=Budget(max_execs=3_000)))
        first = campaign.run()
        kept = len(list((corpus / "queue").iterdir()))
        second = campaign.run()
        assert second is not first and second is campaign.stats
        assert second.dry_run_execs == kept + 1  # the queue, then seeds_in/
        assert 3_000 <= second.executions <= 3_000 + 256
        assert second.mutation_execs > 0

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


class TestExternalCampaign:
    @pytest.mark.parametrize("mask_enabled", [False, True])
    def test_crashes_saved_not_retained(self, tmp_path, mask_enabled):
        cfg = external_config(
            tmp_path, budget=Budget(max_execs=120), scheduler=SchedulerConfig(energy=30),
            mask_enabled=mask_enabled, rng_seed=5, stats_interval=50,
        )
        campaign = Campaign(cfg)
        stats = campaign.run()
        assert stats.executions == 120
        # valid/invalid undefined for external targets
        assert stats.valid_count == 0 and stats.invalid_count == 0
        # Every crash, whether from a mutated child or a byte-analysis
        # probe, is saved under its crash count.
        assert stats.crashes > 0
        crash_files = sorted((tmp_path / "c" / "crashes").iterdir())
        assert [f.name for f in crash_files] == [
            f"crash_{i:06d}" for i in range(1, stats.crashes + 1)
        ]
        for f in crash_files:
            assert f.read_bytes()[1] == 0xFF
        retained = {e.data for e in campaign.corpus.entries}
        assert not any(d[1] == 0xFF for d in retained if len(d) > 1)

    def test_crashing_initial_seed_saved_not_retained(self, tmp_path):
        crashing = b"\x01\xff" + b"\x00" * 6  # new edge 5, then a crash
        cfg = external_config(
            tmp_path, seeds=[b"\x00" * 8, crashing],
            budget=Budget(max_execs=2),  # the dry run only
            mask_enabled=False,
        )
        Campaign(cfg).run()
        corpus = tmp_path / "c"
        assert (corpus / "crashes" / "crash_000001").read_bytes() == crashing
        assert [f.name for f in (corpus / "queue").iterdir()] == ["id_000000"]
        assert (corpus / "queue" / "id_000000").read_bytes() == b"\x00" * 8
        # The crash's path is merged, as a crashing child's is.
        assert (corpus / "overall.cov").read_text() == "1\n2\n5\n"

    def test_final_stats_row_not_repeated(self, tmp_path):
        """Nothing changes after the last interval row but the wall clock;
        the final row must not repeat the interval row's counts."""
        from truzz.report import read_stats

        # Covers every edge, and is too short to crash the target.
        stats = Campaign(external_config(
            tmp_path, seeds=[b"\x01"], budget=Budget(max_execs=20),
            mask_enabled=False, stats_interval=10,
        )).run()
        rows = read_stats(tmp_path / "c" / "stats.csv")
        assert [r.executions for r in rows] == [10, 20]
        assert rows[-1].elapsed_s == float(f"{stats.elapsed:.6f}")

    def test_only_crashing_initial_seeds_fail(self, tmp_path):
        cfg = external_config(
            tmp_path, seeds=[b"\x00\xff" + b"\x00" * 6], budget=Budget(max_execs=5),
            mask_enabled=False,
        )
        with pytest.raises(CampaignError, match=r"every initial seed crashed.*crashes"):
            Campaign(cfg).run()
        assert (tmp_path / "c" / "crashes" / "crash_000001").is_file()

    def test_crashes_numbered_after_earlier_runs(self, tmp_path):
        cfg = external_config(
            tmp_path, budget=Budget(max_execs=80), scheduler=SchedulerConfig(energy=20),
            mask_enabled=False,
        )
        crash_dir = tmp_path / "c" / "crashes"

        def run(rng_seed):
            return Campaign(dataclasses.replace(cfg, rng_seed=rng_seed)).run().crashes

        first = run(5)
        assert first > 0
        saved = {f.name: f.read_bytes() for f in crash_dir.iterdir()}
        second = run(6)
        assert second > 0
        names = sorted(f.name for f in crash_dir.iterdir())
        assert names == [f"crash_{i:06d}" for i in range(1, first + second + 1)]
        for name, data in saved.items():
            assert (crash_dir / name).read_bytes() == data

    @pytest.mark.parametrize("mask_enabled", [False, True])
    def test_overlap_changes_no_output(self, tmp_path, monkeypatch, mask_enabled):
        """Spawning child i+1 while child i runs changes nothing but speed:
        a run whose executor ignores ``then`` saves the same corpus and
        crashes and counts the same executions in every phase. With the
        mask on, byte-analysis probes crash too."""
        execute = truzz.engine.execute_external

        def campaign(label, wrapper):
            monkeypatch.setattr(truzz.engine, "execute_external", wrapper)
            stats = Campaign(external_config(
                tmp_path, label, budget=Budget(max_execs=120),
                scheduler=SchedulerConfig(energy=30), mask_enabled=mask_enabled, rng_seed=5,
            )).run()
            outputs = {k: v for k, v in snapshot(tmp_path / label).items() if k != "stats.csv"}
            counts = (stats.executions, stats.crashes, stats.dry_run_execs,
                      stats.probe_execs, stats.mutation_execs)
            return outputs, counts

        calls = []

        def overlapping(target, data, then=None):
            calls.append((data, then))
            return execute(target, data, then)

        def serial(target, data, then=None):
            return execute(target, data)

        overlapped = campaign("overlapped", overlapping)
        thens = [then for _, then in calls]
        assert sum(then is not None for then in thens) > 50
        # Each child made ahead is the next input executed: none is spawned
        # past the round's energy or the execution budget.
        for then, (data, _) in zip(thens, calls[1:] + [(None, None)]):
            assert then is None or then is data
        assert overlapped == campaign("serial", serial)
        assert overlapped[1][1] > 0  # crashes
        assert any(name.startswith("crashes/") for name in overlapped[0])

    def test_rounds_pair_their_children(self, tmp_path, monkeypatch):
        """An external round runs every child: it takes child i+1 before it
        runs child i and passes it as ``then``, runs each child it makes
        once, in order, and makes none past the round's energy or the
        execution budget."""
        execute = truzz.engine.execute_external
        energy, max_execs = 10, 60
        calls = []

        def recording(target, data, then=None):
            calls.append((data, then))
            return execute(target, data, then)

        monkeypatch.setattr(truzz.engine, "execute_external", recording)
        made = record_children(monkeypatch)
        stats = Campaign(external_config(
            tmp_path, budget=Budget(max_execs=max_execs),
            scheduler=SchedulerConfig(energy=energy), mask_enabled=False,
        )).run()
        thens = [then for _, then in calls]
        assert sum(then is not None for then in thens) > 30
        for then, (data, _) in zip(thens, calls[1:] + [(None, None)]):
            assert then is None or then is data
        # With no mask there are no probes: every run after the dry run is
        # a child made, and every child made runs once, in order.
        assert [data for data, _ in calls[stats.dry_run_execs:]] == made
        assert len(calls) <= max_execs
        linked = 1  # a run of children linked by ``then`` is one round
        for then in thens:
            assert linked <= energy
            linked = linked + 1 if then is not None else 1
        assert len(made) == stats.mutation_execs == max_execs - stats.dry_run_execs

    @pytest.mark.parametrize("fault", ["interrupt-1", "interrupt-2", "interrupt-5", "no-dump"])
    def test_no_child_outlives_the_campaign(self, tmp_path, monkeypatch, fault):
        """A campaign ended while the next child runs, by an interrupt after
        the k-th mutated exec or by a missing coverage dump, kills and reaps
        that child, stops both fork servers and removes the work directory."""
        from truzz.target import CoverageDumpError

        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        execute = truzz.engine.execute_external
        interrupt_after = int(fault.split("-")[1]) + 1 if fault.startswith("interrupt") else 0
        thens = []
        servers = set()

        def interrupting(target, data, then=None):
            thens.append(then)
            try:
                result = execute(target, data, then)
            finally:
                servers.update(slot.server_pid for slot in target.slots if slot.server_pid)
            if len(thens) == interrupt_after:  # the dry run's one exec, then k mutated
                raise KeyboardInterrupt
            return result

        monkeypatch.setattr(truzz.engine, "execute_external", interrupting)
        campaign = Campaign(external_config(
            tmp_path, script=PID_TARGET, budget=Budget(max_execs=50),
            scheduler=SchedulerConfig(energy=10), mask_enabled=False,
        ))
        fds = open_fd_count()
        if fault == "no-dump":
            (tmp_path / "no-dump").touch()
            with pytest.raises(CoverageDumpError):
                campaign.run()
        else:
            assert campaign.run().executions == interrupt_after - 1
        # The campaign ended while the child spawned as ``then`` ran.
        assert thens[-1] is not None
        pids = [int(line) for line in (tmp_path / "pids").read_text().split()]
        assert len(pids) >= len(thens)
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        if truzz.target._fork_server_shim() is not None:
            assert len(servers) == 2
        for pid in servers:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert list(tmp.iterdir()) == []
        assert open_fd_count() == fds

    @pytest.mark.parametrize("mask_enabled", [False, True])
    def test_launch_changes_no_output(self, tmp_path, monkeypatch, mask_enabled):
        """Running each child under a fork server changes nothing but speed:
        a campaign that spawns a process per run saves the same queue,
        meta, crashes and overall.cov, and counts the same executions in
        every phase."""
        if truzz.target._fork_server_shim() is None:
            pytest.skip("no fork-server shim on this host")
        execute = truzz.engine.execute_external
        servers = set()

        def recording(target, data, then=None):
            servers.update(slot.server_pid for slot in target.slots if slot.server_pid)
            return execute(target, data, then)

        monkeypatch.setattr(truzz.engine, "execute_external", recording)

        def campaign(label):
            stats = Campaign(external_config(
                tmp_path, label, budget=Budget(max_execs=120),
                scheduler=SchedulerConfig(energy=30), mask_enabled=mask_enabled, rng_seed=5,
            )).run()
            outputs = {k: v for k, v in snapshot(tmp_path / label).items() if k != "stats.csv"}
            counts = (stats.executions, stats.crashes, stats.dry_run_execs,
                      stats.probe_execs, stats.mutation_execs)
            return outputs, counts

        forked = campaign("forked")
        assert len(servers) == 2
        servers.clear()
        monkeypatch.setattr(truzz.target, "_fork_server_shim", lambda: None)
        spawned = campaign("spawned")
        assert not servers
        assert forked == spawned
        assert forked[1][1] > 0  # crashes
        assert any(name.startswith("crashes/") for name in forked[0])

    def test_no_work_directory_left_behind(self, tmp_path, monkeypatch):
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        workdirs = []
        execute = truzz.engine.execute_external

        def recording(target, data, *then):
            workdirs.append(target.workdir)
            return execute(target, data, *then)

        monkeypatch.setattr(truzz.engine, "execute_external", recording)

        def campaign(label, seed):
            return Campaign(external_config(
                tmp_path, label, seeds=[seed], budget=Budget(max_execs=20),
                scheduler=SchedulerConfig(energy=10),
            ))

        fds = open_fd_count()
        finishes = campaign("finishes", b"\x00" * 8)
        stats = finishes.run()
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
            command=finishes.cfg.command,
        )
        assert rep.path_size == 2
        assert len(set(workdirs)) == 3
        assert list(tmp.iterdir()) == []
        assert open_fd_count() == fds

    @pytest.mark.parametrize("fault", ["workdir-removed", "close-fails"])
    def test_failed_close_keeps_the_corpus(self, tmp_path, monkeypatch, fault):
        """A campaign whose work directory is removed mid-run fails with the
        run's own error, and one whose ``close`` fails with that failure;
        either way the corpus and the final stats row are saved."""
        from truzz.target import CoverageDumpError, ExternalTarget

        execute = truzz.engine.execute_external
        calls = []

        def removing(target, data, then=None):
            calls.append(data)
            if len(calls) == 20:
                shutil.rmtree(target.workdir)
            return execute(target, data, then)

        close = ExternalTarget.close

        def failing(target):
            close(target)
            raise OSError("close failed")

        if fault == "workdir-removed":
            monkeypatch.setattr(truzz.engine, "execute_external", removing)
            expected = CoverageDumpError
        else:
            monkeypatch.setattr(ExternalTarget, "close", failing)
            expected = OSError
        campaign = Campaign(external_config(tmp_path, budget=Budget(max_execs=40)))
        with pytest.raises(expected):
            campaign.run()
        corpus = tmp_path / "c"
        assert list((corpus / "queue").iterdir())
        rows = (corpus / "stats.csv").read_text().splitlines()
        assert rows[0] == STATS_HEADER
        assert int(rows[-1].split(",")[1]) == campaign.stats.executions > 0


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
