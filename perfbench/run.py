"""The repository's benchmark: truzz fuzzing campaigns, end to end and per
layer.

Run from the repository root:

    python3 perfbench/run.py --workload synth-truzz --seed 1 --seconds 36 --trace 0

Each workload is a fixed set of campaigns run one after another in this
process. Every campaign's rng seed is derived from ``--seed``, its set and
its place in the set, so a seed fixes every input, and the two synthetic
workloads run the same seeds.

- ``synth-truzz``: the full technique (TRUZZ ranking, mask on) on
  four_byte_magic, magic64, record512 and chain128. Masked mutation with
  rejection sampling takes most of the time; byte analysis and rank
  replacement are active.
- ``synth-vanilla``: the same campaigns under FIFO with no mask. The
  control for mask-only changes, which should not move it; a change to the
  shared mutation or target layers must not slow it.
- ``external-cmd``: the full technique against ``harness.c``, a
  deterministic C program with magic64's layout that aborts on one
  reachable input class, through the external-command executor. Fork,
  exec and the coverage file take nearly all the time.

A run runs ``SETS_PER_RUN`` campaign sets, each with its own rng seeds,
and cycles through them again until ``--seconds`` of campaign time are
spent. A set's repeats are identical by construction: outcome metrics are
exact for a seed, and each repeat is checked against the set's first run.
After each repeat the campaigns' outputs are checked (``checks.py``), a
mismatch makes the command exit 1, and set-up is timed in fresh processes
(``first_child.py``).

``--trace 0`` reports the end-to-end metrics: ``execs_per_s`` (all
executions over campaign time, both summed over the run's untraced
repeats), ``setup_s`` (median over set-up processes), ``edges`` (summed
over the sets' campaigns) and ``peak_rss_mb``. Campaign time is in
reference-host seconds: a speed probe (``speed.py``) samples the host's
speed with a fixed reference loop while each campaign runs and converts
its wall time into the time the same work takes on a host of fixed
speed, so that exec/s does not swing with the load other tenants put on
a shared host. Set-up time is wall-clock time: it is mostly interpreter
start and imports, which the reference loop does not follow. The
wall-clock exec/s (``execs_per_wall_s``), ``valid_ratio`` (undefined on
external-cmd) and ``failed_frac`` are printed but left out of the result
line, whose ``failed`` count carries the failures.
``--trace 1`` runs the first set only, in untraced, count and span
repeats (``tracing.py``), and reports the per-layer metrics, each layer's
self time and share of campaign wall time, and the tracing overhead.

Outputs go to ``.bench_build/`` under the repository root:
``results/<workload>-seed<seed>-trace<k>.json`` holds the environment,
every campaign's seed and outcome, the checks and all metrics; traced runs
also write ``trace/<workload>-seed<seed>.spans.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Exit status: 0
when every check passes, 1 on a correctness mismatch or executor error,
2 when the benchmark cannot run (no truzz sources, no C compiler, or an
entry point that it wraps, reads or checks against is gone; ``errors.py``).

Self-test: ``python3 -m pytest perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import speed
from errors import BenchError, CompilerNotFoundError, MissingEntryPointError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Budgets are executions per campaign. One synthetic set takes 4-9 s on a
# 2-core machine, so a 36 s run holds four or more repeats. The three
# small targets reach full coverage within 5k executions under both
# policies. chain128's coverage keeps growing, so it gets the largest
# budget: by 100k executions the full technique almost always covers all
# 206 edges while the vanilla baseline stops between 89 and 164, so its
# final edge count shows the technique's effect. A run sums edges over
# SETS_PER_RUN sets to narrow the vanilla spread.
SYNTH_SET = (("four_byte_magic", 5_000), ("magic64", 5_000), ("record512", 10_000),
             ("chain128", 100_000))
EXTERNAL_SET = (("magic64", 600), ("magic64", 600))
SETS_PER_RUN = 3
# A run takes SETUP_SAMPLES set-up samples, SETUP_PER_REPEAT after each
# repeat, so that they spread over the run instead of sharing one phase of
# the machine's speed (which swings by up to 2x over seconds to minutes on
# a shared 2-core host); a run with too few repeats takes the rest at the
# end.
SETUP_PER_REPEAT = 2
SETUP_SAMPLES = 12


@dataclass(frozen=True)
class Workload:
    campaigns: tuple[tuple[str, int], ...]
    policy: str
    mask: bool
    external: bool


WORKLOADS = {
    "synth-truzz": Workload(SYNTH_SET, "truzz", True, False),
    "synth-vanilla": Workload(SYNTH_SET, "fifo", False, False),
    "external-cmd": Workload(EXTERNAL_SET, "truzz", True, True),
}

END_TO_END = {"execs_per_s": "1/s", "setup_s": "s", "edges": "count", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "mutation.mutate.calls": "count",
    "mutation.mutate.us": "us",
    "mutation.ops_per_child": "count",
    "mutation.rng_draws_per_child": "count",
    "mutation.mask_accept_ratio": "fraction",
    "mutation.self_ms": "ms",
    "mutation.share": "fraction",
    "target.run.calls": "count",
    "target.run.us": "us",
    "target.sig_cache_hit_ratio": "fraction",
    "target.external.calls": "count",
    "target.external.ms": "ms",
    "target.external.timeouts": "count",
    "target.external.errors": "count",
    "target.self_ms": "ms",
    "target.share": "fraction",
    "byte_analysis.analyze.calls": "count",
    "byte_analysis.analyze.ms": "ms",
    "byte_analysis.probes_per_seed": "count",
    "byte_analysis.mask_mean_prob": "fraction",
    "byte_analysis.precision": "fraction",
    "byte_analysis.recall": "fraction",
    "byte_analysis.self_ms": "ms",
    "byte_analysis.share": "fraction",
    "scheduler.select_seed.calls": "count",
    "scheduler.select_seed.us": "us",
    "scheduler.update_rank.us": "us",
    "scheduler.corpus_seeds": "count",
    "scheduler.productive_round_ratio": "fraction",
    "scheduler.self_ms": "ms",
    "scheduler.share": "fraction",
    "engine.self_us_per_exec": "us",
    "engine.dry_run_execs": "count",
    "engine.probe_execs": "count",
    "engine.mutation_execs": "count",
    "engine.retained_per_kexec": "count",
    "engine.persist.ms": "ms",
    "engine.crash_saves": "count",
    "engine.self_ms": "ms",
    "engine.share": "fraction",
    "coverage.calls": "count",
    "trace.overhead": "fraction",
    "trace.execs_per_s": "1/s",
    "trace.untraced_execs_per_s": "1/s",
    "trace.spans": "count",
}


@dataclass(frozen=True)
class Plan:
    set_index: int
    index: int
    target: str
    budget: int
    rng_seed: int


@dataclass
class Outcome:
    plan: Plan
    corpus_dir: Path
    stats: object  # CampaignStats, or None after an executor error
    wall: float  # seconds, net of the speed probe's handler
    error: str | None = None
    # ``wall`` in reference-host seconds (``speed.py``); None when the
    # campaign ran without a speed probe.
    ref_wall: float | None = None
    # What the per-layer metrics read from a traced campaign; the campaign
    # itself is dropped, so that peak RSS does not grow with the repeats.
    facts: dict | None = None


def derive_seed(seed: int, set_index: int, index: int, target: str) -> int:
    digest = hashlib.sha256(f"{seed}/{set_index}/{index}/{target}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def import_truzz(root: Path) -> None:
    src = root / "src"
    if not (src / "truzz" / "__init__.py").is_file():
        raise BenchError(f"truzz sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import truzz

    if Path(truzz.__file__).resolve().parent != (src / "truzz").resolve():
        raise BenchError(f"imported truzz from {truzz.__file__}, not from {src}")


def find_cc() -> list[str]:
    candidates = [shlex.split(os.environ["CC"])] if os.environ.get("CC") else []
    candidates += [["cc"], ["gcc"], ["clang"]]
    for argv in candidates:
        if argv and shutil.which(argv[0]):
            return argv
    raise CompilerNotFoundError(
        "no C compiler found ($CC, cc, gcc, clang); external-cmd builds perfbench/harness.c"
    )


def build_harness(work: Path) -> Path:
    out = Path(tempfile.mkdtemp(prefix="harness-", dir=work)) / "harness"
    argv = find_cc() + ["-O2", "-o", str(out), str(HERE / "harness.c")]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise BenchError(f"building the harness failed: {proc.stderr.strip()}")
    return out


def environment(root: Path, seed: int, plans) -> dict:
    import numpy

    commit = "unknown"
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".tspec"):
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "workload_seed": seed,
        "campaigns": [vars(p) for p in plans],
    }


class Bench:
    """One workload's campaigns, run and checked under a work directory."""

    def __init__(self, root: Path, work: Path, name: str, seed: int, scale: float, n_sets: int):
        from truzz.targets import load_bundled, write_bundled

        self.root = root
        self.work = work
        self.workload = WORKLOADS[name]
        self.sets = [
            [Plan(k, i, target, max(1, int(budget * scale)), derive_seed(seed, k, i, target))
             for i, (target, budget) in enumerate(self.workload.campaigns)]
            for k in range(n_sets)
        ]
        # Each target's spec and a seed that passes its validation checks;
        # the external harness follows its target's spec.
        self.bundled = {t: load_bundled(t) for t, _ in self.workload.campaigns}
        self.statuses: Counter = Counter()
        if self.workload.external:
            self.command = [str(build_harness(work)), "@@"]
            self._count_statuses()
        else:
            self.command = None
            self.spec_paths = {t: write_bundled(t, work / "targets")[0] for t in self.bundled}

    def _count_statuses(self) -> None:
        """Count external execution statuses, so timeouts are seen untraced."""
        import truzz.engine as engine

        original = engine.execute_external
        statuses = self.statuses

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            statuses[result.exec_status.value] += 1
            return result

        engine.execute_external = counted
        self._restore = lambda: setattr(engine, "execute_external", original)

    def close(self) -> None:
        if self.command is not None:
            self._restore()

    def new_corpus(self, corpus: Path, plan: Plan) -> Path:
        (corpus / "seeds_in").mkdir(parents=True)
        (corpus / "seeds_in" / "seed").write_bytes(self.bundled[plan.target][1])
        return corpus

    def target_args(self, plan: Plan) -> dict:
        if self.command is not None:
            return {"command": self.command}
        return {"target_spec": self.spec_paths[plan.target]}

    def setup_time(self, k: int) -> tuple[float | None, str | None]:
        """Set-up sample ``k``: the first set's campaigns in turn, each in a
        fresh process. Returns (seconds, None) or (None, problem)."""
        plan = self.sets[0][k % len(self.sets[0])]
        corpus = self.new_corpus(self.work / "setup" / str(k), plan)
        cfg = {
            "src": str(self.root / "src"),
            "corpus_dir": str(corpus),
            "policy": self.workload.policy,
            "mask": self.workload.mask,
            "rng_seed": plan.rng_seed,
            **self.target_args(plan),
        }
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "first_child.py"), json.dumps(cfg)],
                              capture_output=True, text=True, timeout=120)
        shutil.rmtree(corpus)
        if proc.returncode != 0:
            return None, f"set-up process failed: {proc.stderr.strip()[-400:]}"
        return float(proc.stdout.split()[-1]) - t0, None

    def layer_facts(self, plan: Plan, campaign) -> dict:
        """Read from a finished traced campaign what the per-layer metrics need."""
        import checks

        if self.command is None:
            cache = getattr(getattr(campaign, "compiled", None), "_cache", None)
            if not isinstance(cache, dict):
                raise MissingEntryPointError("Campaign.compiled._cache, the signature cache "
                                             "target.sig_cache_hit_ratio is read from, is gone")
            cache_entries = len(cache)
        else:
            cache_entries = 0
        try:
            entries = campaign.corpus.entries
            threshold = campaign.cfg.analysis.threshold
        except AttributeError as exc:
            raise MissingEntryPointError(f"byte analysis cannot be scored: {exc}") from None
        score = checks.score_analysis(entries, self.bundled[plan.target][0], threshold)
        return {"cache_entries": cache_entries, **score}

    def run_set(self, rep: int, plans: list[Plan], tracer=None, probe: bool = False
                ) -> list[Outcome]:
        from truzz.byte_analysis import AnalysisError
        from truzz.engine import Budget, Campaign, CampaignConfig
        from truzz.scheduler import Policy, SchedulerConfig
        from truzz.target import ExternalTargetError

        outcomes = []
        for plan in plans:
            corpus = self.new_corpus(self.work / f"rep{rep}" / f"{plan.index}-{plan.target}", plan)
            campaign = Campaign(CampaignConfig(
                corpus_dir=str(corpus),
                budget=Budget(max_execs=plan.budget),
                scheduler=SchedulerConfig(policy=Policy(self.workload.policy)),
                mask_enabled=self.workload.mask,
                rng_seed=plan.rng_seed,
                **self.target_args(plan),
            ))
            error = None
            sampler = speed.SpeedProbe() if probe else contextlib.nullcontext()
            with sampler:
                t0 = perf_counter()
                try:
                    if tracer is None:
                        stats = campaign.run()
                    else:
                        tracer.attach(campaign)
                        stats = tracer.campaign_span(plan.index, campaign.run)
                except (ExternalTargetError, AnalysisError) as exc:
                    stats, error = None, f"{type(exc).__name__}: {exc}"
                wall = perf_counter() - t0
            ref_wall = None
            if probe:
                wall -= sampler.overhead
                ref_wall = wall * speed.scale(sampler.ratios)
            facts = self.layer_facts(plan, campaign) if tracer and stats else None
            outcomes.append(Outcome(plan, corpus, stats, wall, error, ref_wall, facts))
        return outcomes

    def check(self, outcomes: list[Outcome], first_keys: list | None) -> tuple[list[str], list]:
        """Check a repeat's outputs, and that it reproduces its set's first run."""
        import checks

        problems = []
        for o in outcomes:
            if o.stats is None:
                continue
            spec = self.bundled[o.plan.target][0]
            for p in checks.check_campaign(o.corpus_dir, o.stats, o.plan.budget, spec, self.command):
                problems.append(f"set {o.plan.set_index} campaign {o.plan.index} "
                                f"({o.plan.target}): {p}")
        keys = [outcome_key(o) for o in outcomes]
        if first_keys is not None:
            for o, key, first in zip(outcomes, keys, first_keys):
                if key != first:
                    problems.append(f"set {o.plan.set_index} campaign {o.plan.index}: "
                                    "repeat differs from the set's first run")
        return problems, keys


def corpus_digest(corpus_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((corpus_dir / "queue").glob("id_*")) + [corpus_dir / "overall.cov"]:
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def outcome_key(o: Outcome):
    """What must repeat exactly for a fixed seed (wall-clock fields excluded)."""
    if o.stats is None:
        return None
    s = o.stats
    return (s.executions, s.seeds, s.edges_covered, s.valid_count, s.invalid_count, s.crashes,
            s.dry_run_execs, s.probe_execs, s.mutation_execs, corpus_digest(o.corpus_dir))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def exec_rate(outcomes: list[Outcome], calibrated: bool = False) -> float:
    """Executions per second of campaign time: wall-clock seconds, or with
    ``calibrated`` reference-host seconds (``speed.py``)."""
    done = [o for o in outcomes if o.stats is not None]
    seconds = sum(o.ref_wall if calibrated else o.wall for o in done)
    return ratio(sum(o.stats.executions for o in done), seconds)


def outcome_record(o: Outcome) -> dict:
    rec = {"set": o.plan.set_index, "index": o.plan.index, "target": o.plan.target, "rng_seed": o.plan.rng_seed,
           "budget": o.plan.budget, "wall_s": o.wall, "ref_wall_s": o.ref_wall, "error": o.error}
    if o.stats is not None:
        s = o.stats
        rec.update(executions=s.executions, edges=s.edges_covered, seeds=s.seeds,
                   valid=s.valid_count, invalid=s.invalid_count, crashes=s.crashes,
                   dry_run_execs=s.dry_run_execs, probe_execs=s.probe_execs,
                   mutation_execs=s.mutation_execs)
    return rec


def layer_metrics(traced: list[list[Outcome]], untraced: list[Outcome],
                  totals: dict, counts: dict, statuses: Counter, spans: int) -> dict:
    """Per-layer metrics from the traced repeats; counts and self times are
    per campaign set, shares are of campaign wall time."""
    import tracing

    n = len(traced)
    last = [o for o in traced[-1] if o.stats is not None]
    stats = [o.stats for o in last]
    execs = sum(s.executions for s in stats)
    wall = totals[tracing.CAMPAIGN_SPAN]["seconds"]

    def calls(name):
        return totals[name]["calls"] / n

    def mean(name, scale):
        return scale * ratio(totals[name]["seconds"], totals[name]["calls"])

    def self_seconds(layer):
        return sum(t["self_seconds"] for name, t in totals.items() if tracing.LAYER_OF[name] == layer)

    children = calls("mutation.mutate")  # per set, as are the count repeat's counts
    score = Counter()
    for o in last:
        score.update(o.facts)
    cache_entries = score["cache_entries"]
    traced_rate = exec_rate([o for rep in traced for o in rep])
    untraced_rate = exec_rate(untraced)
    analyses = calls("byte_analysis.analyze")
    return {
        "mutation.mutate.calls": calls("mutation.mutate"),
        "mutation.mutate.us": mean("mutation.mutate", 1e6),
        "mutation.ops_per_child": ratio(counts["select_byte"], children),
        "mutation.rng_draws_per_child": ratio(counts["rng.randrange"] + counts["rng.random"], children),
        "mutation.mask_accept_ratio": ratio(counts["select_byte"], counts["positions_drawn"]),
        "mutation.self_ms": 1e3 * self_seconds("mutation") / n,
        "mutation.share": ratio(self_seconds("mutation"), wall),
        "target.run.calls": calls("target.run"),
        "target.run.us": mean("target.run", 1e6),
        "target.sig_cache_hit_ratio": (1 - ratio(cache_entries, calls("target.run"))
                                       if calls("target.run") else 0.0),
        "target.external.calls": calls("target.external"),
        "target.external.ms": mean("target.external", 1e3),
        "target.external.timeouts": statuses["TIMEOUT"] / n,
        "target.external.errors": sum(o.error is not None for r in traced for o in r) / n,
        "target.self_ms": 1e3 * self_seconds("target") / n,
        "target.share": ratio(self_seconds("target"), wall),
        "byte_analysis.analyze.calls": analyses,
        "byte_analysis.analyze.ms": mean("byte_analysis.analyze", 1e3),
        "byte_analysis.probes_per_seed": ratio(sum(s.probe_execs for s in stats), analyses),
        "byte_analysis.mask_mean_prob": ratio(score["prob_sum"], score["prob_n"]),
        "byte_analysis.precision": ratio(score["tp"], score["tp"] + score["fp"]),
        "byte_analysis.recall": ratio(score["tp"], score["tp"] + score["fn"]),
        "byte_analysis.self_ms": 1e3 * self_seconds("byte_analysis") / n,
        "byte_analysis.share": ratio(self_seconds("byte_analysis"), wall),
        "scheduler.select_seed.calls": calls("scheduler.select_seed"),
        "scheduler.select_seed.us": mean("scheduler.select_seed", 1e6),
        "scheduler.update_rank.us": mean("scheduler.update_rank", 1e6),
        "scheduler.corpus_seeds": sum(s.seeds for s in stats),
        "scheduler.productive_round_ratio": ratio(counts["productive_rounds"], counts["rounds"]),
        "scheduler.self_ms": 1e3 * self_seconds("scheduler") / n,
        "scheduler.share": ratio(self_seconds("scheduler"), wall),
        "engine.self_us_per_exec": 1e6 * ratio(totals[tracing.CAMPAIGN_SPAN]["self_seconds"], execs * n),
        "engine.dry_run_execs": sum(s.dry_run_execs for s in stats),
        "engine.probe_execs": sum(s.probe_execs for s in stats),
        "engine.mutation_execs": sum(s.mutation_execs for s in stats),
        # Each campaign starts from one seed, which the dry run keeps.
        "engine.retained_per_kexec": 1e3 * ratio(sum(s.seeds for s in stats) - len(stats), execs),
        "engine.persist.ms": mean("engine.persist", 1e3),
        "engine.crash_saves": calls("engine.save_crash"),
        "engine.self_ms": 1e3 * self_seconds("engine") / n,
        "engine.share": ratio(self_seconds("engine"), wall),
        "coverage.calls": counts["coverage"],
        "trace.overhead": 1 - ratio(traced_rate, untraced_rate),
        "trace.execs_per_s": traced_rate,
        "trace.untraced_execs_per_s": untraced_rate,
        "trace.spans": spans,
    }


def run(root: Path, work_root: Path, workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one workload; return the full results, including the result line."""
    import_truzz(root)
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-seed{seed}-", dir=work_root))
    (work / "tmp").mkdir()
    # Temporary files of external executions, replays, set-up processes and
    # the compiler stay inside the work directory.
    saved_tmpdir = os.environ.get("TMPDIR")
    os.environ["TMPDIR"] = tempfile.tempdir = str(work / "tmp")
    bench = None
    try:
        # A traced run compares traced and untraced repeats of one set.
        bench = Bench(root, work, workload, seed, scale, 1 if trace else SETS_PER_RUN)
        return _measure(bench, work_root, workload, seed, seconds, trace, setup_samples)
    finally:
        if bench is not None:
            bench.close()
        tempfile.tempdir = None
        if saved_tmpdir is None:
            del os.environ["TMPDIR"]
        else:
            os.environ["TMPDIR"] = saved_tmpdir
        shutil.rmtree(work, ignore_errors=True)


def _measure(bench: Bench, work_root: Path, workload: str, seed: int, seconds: float,
             trace: bool, setup_samples: int) -> dict:
    import tracing

    env = environment(bench.root, seed, [p for plans in bench.sets for p in plans])
    setup: list[float] = []
    problems: list[str] = []
    setup_attempts = 0

    def sample_setup() -> None:
        nonlocal setup_attempts
        took, problem = bench.setup_time(setup_attempts)
        setup_attempts += 1
        if took is None:
            problems.append(problem)
        else:
            setup.append(took)

    tracer = tracing.Tracer() if trace else None
    first: dict[int, list[Outcome]] = {}  # set index -> its first run
    first_keys: dict[int, list] = {}
    reps: list[dict] = []
    untraced: list[Outcome] = []
    traced: list[list[Outcome]] = []
    totals: dict = {}
    counts: dict = {}
    statuses: Counter = Counter()
    attempted = errors = 0
    spent = last_wall = 0.0
    # Untraced runs go through every set once, then cycle. Traced runs
    # start untraced, count, spans, then alternate untraced and spans; the
    # spans of the last span repeat are the ones written out.
    kinds = ["untraced", "counts", "spans"] if trace else ["untraced"] * len(bench.sets)
    while len(reps) < len(kinds) or spent + last_wall <= seconds:
        if len(reps) < len(kinds):
            kind = kinds[len(reps)]
        else:
            kind = "untraced" if not trace or len(reps) % 2 else "spans"
        set_index = len(reps) % len(bench.sets)
        plans = bench.sets[set_index]
        before = Counter(bench.statuses)
        if kind == "untraced":
            outcomes = bench.run_set(len(reps), plans, probe=not trace)
            untraced += outcomes
        else:
            tracer.clear()
            tracer.install_counts() if kind == "counts" else tracer.install_spans()
            try:
                outcomes = bench.run_set(len(reps), plans, tracer)
            finally:
                tracer.uninstall()
        if kind == "counts":
            counts = tracer.counts
        elif kind == "spans":
            for name, t in tracer.totals().items():
                acc = totals.setdefault(name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0})
                for key in acc:
                    acc[key] += t[key]
            statuses.update(bench.statuses - before)
            traced.append(outcomes)
        last_wall = sum(o.wall for o in outcomes)
        spent += last_wall
        attempted += sum(o.stats.executions if o.stats else o.plan.budget for o in outcomes)
        errors += sum(o.error is not None for o in outcomes)
        problems += [f"set {o.plan.set_index} campaign {o.plan.index}: {o.error}"
                     for o in outcomes if o.error]
        found, keys = bench.check(outcomes, first_keys.get(set_index))
        problems += found
        if set_index not in first:
            first[set_index], first_keys[set_index] = outcomes, keys
        reps.append({"kind": kind, "set": set_index, "wall_s": last_wall,
                     "execs_per_wall_s": exec_rate(outcomes),
                     "execs_per_s": (exec_rate(outcomes, calibrated=True)
                                     if kind == "untraced" and not trace else None),
                     "outcomes": [outcome_record(o) for o in outcomes]})
        shutil.rmtree(bench.work / f"rep{len(reps) - 1}")
        del outcomes
        gc.collect()
        for _ in range(min(SETUP_PER_REPEAT, setup_samples - setup_attempts)):
            sample_setup()
    while setup_attempts < setup_samples:
        sample_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    done = [o for outcomes in first.values() for o in outcomes if o.stats is not None]
    valid = sum(o.stats.valid_count for o in done)
    judged = valid + sum(o.stats.invalid_count for o in done)
    failed = bench.statuses["TIMEOUT"] + len(problems)
    printed = {
        # Untraced repeats of an untraced run carry the speed probe.
        "execs_per_s": (exec_rate(untraced, calibrated=not trace), "1/s"),
        "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
        "edges": (sum(o.stats.edges_covered for o in done), "count"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    if not trace:
        # The same in wall-clock seconds, for reading; not gated.
        printed["execs_per_wall_s"] = (exec_rate(untraced), "1/s")
    if not bench.workload.external:
        printed["valid_ratio"] = (ratio(valid, judged), "fraction")
    printed["failed_frac"] = (ratio(failed, attempted), "fraction")
    if trace:
        # Rounds are counted by the update_rank span, in span repeats.
        counts.update(rounds=tracer.counts["rounds"],
                      productive_rounds=tracer.counts["productive_rounds"])
        metrics = layer_metrics(traced, untraced, totals, counts, statuses,
                                len(tracer.start))
        units = PER_LAYER
        (work_root / "trace").mkdir(exist_ok=True)
        tracer.write_spans(work_root / "trace" / f"{workload}-seed{seed}.spans.tsv")
        printed.update({k: (v, units[k]) for k, v in metrics.items()})
    else:
        metrics = {k: printed[k][0] for k in END_TO_END}
        units = END_TO_END
    line = {
        "correct": not problems and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    results = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "setup_s_samples": setup, "repeats": reps,
        "problems": problems,
        "printed": {k: {"value": v, "unit": u} for k, (v, u) in printed.items()},
        "line": line,
    }
    (work_root / "results").mkdir(exist_ok=True)
    out = work_root / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        results = run(ROOT, ROOT / ".bench_build", args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for problem in results["problems"]:
        print(f"MISMATCH {problem}")
    for name, m in results["printed"].items():
        print(f"{name:<36} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results["line"]))
    return 0 if results["line"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
