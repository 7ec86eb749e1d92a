"""Campaign loop: dry run, seed selection, one-time byte analysis,
mask-gated mutation, retention, and rank updates, with CSV stats and an
on-disk corpus. A FIFO/unmasked configuration reproduces the vanilla
baseline exactly under the same RNG seed, enabling A/B comparisons from
one binary.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path as FsPath
from typing import Callable, Optional, Sequence

from .byte_analysis import AnalysisConfig, FitnessMap, MutationMask, analyze, mask_from_fitness
from .coverage import Path
from .mutation import Rng, draw_op_count, mutate
from .scheduler import (
    CampaignError,
    Corpus,
    Policy,
    SchedulerConfig,
    SeedAnalysis,
    SeedEntry,
    dry_run,
)
from .target import (
    CompiledTarget,
    ExecResult,
    ExecStatus,
    execute_external,
    load_spec,
    placeholder_index,
)

STATS_HEADER = "elapsed_s,executions,seeds,edges_covered,valid,invalid,crashes"

# Virtual seconds charged per synthetic execution; keeps stats.csv
# deterministic (wall clock would differ between identical runs).
VIRTUAL_SECONDS_PER_EXEC = 1e-5


@dataclass
class Budget:
    max_execs: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self):
        if self.max_execs is None and self.max_seconds is None:
            raise ValueError("budget requires max_execs and/or max_seconds")
        if self.max_execs is not None and self.max_execs <= 0:
            raise ValueError(f"max_execs must be positive, got {self.max_execs}")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError(f"max_seconds must be positive, got {self.max_seconds}")


@dataclass
class CampaignConfig:
    corpus_dir: str
    target_spec: Optional[str] = None          # path to a .tspec document
    command: Optional[Sequence[str]] = None    # external target argv with @@
    budget: Budget = field(default_factory=lambda: Budget(max_execs=100_000))
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    mask_enabled: bool = True
    rng_seed: int = 0
    stats_interval: int = 10_000
    exec_timeout: float = 5.0

    def __post_init__(self):
        if (self.target_spec is None) == (self.command is None):
            raise ValueError("exactly one of target_spec or command must be set")
        if self.command is not None:
            placeholder_index(self.command)
        if self.stats_interval < 1:
            raise ValueError(f"stats_interval must be >= 1, got {self.stats_interval}")


@dataclass
class CampaignStats:
    executions: int = 0
    seeds: int = 0
    edges_covered: int = 0
    valid_count: int = 0
    invalid_count: int = 0
    crashes: int = 0
    elapsed: float = 0.0
    dry_run_execs: int = 0
    probe_execs: int = 0
    mutation_execs: int = 0


class _StatsWriter:
    def __init__(self, path: FsPath, clock: Callable[[], float]):
        self._fh = open(path, "w", encoding="ascii", newline="\n")
        self._fh.write(STATS_HEADER + "\n")
        self._clock = clock
        self._last_counts = ""

    def row(self, stats: CampaignStats) -> None:
        # An interval row is written before that execution's retention, so
        # the final row may repeat its execution count; a row whose counts
        # all repeat the last row's is skipped. Only a written row reads the
        # clock, so ``stats.elapsed`` is always the last row's.
        counts = (
            f"{stats.executions},{stats.seeds},{stats.edges_covered},"
            f"{stats.valid_count},{stats.invalid_count},{stats.crashes}\n"
        )
        if counts != self._last_counts:
            self._last_counts = counts
            stats.elapsed = self._clock()
            self._fh.write(f"{stats.elapsed:.6f},{counts}")
            self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def _read_files(directory: FsPath) -> list[tuple[str, bytes]]:
    """(name, bytes) of each regular file in ``directory``, sorted by name;
    empty when the directory does not exist."""
    if not directory.is_dir():
        return []
    paths = (directory / name for name in sorted(os.listdir(directory)))
    return [(p.name, p.read_bytes()) for p in paths if p.is_file()]


def _write_meta(meta_dir: FsPath, entry: SeedEntry) -> None:
    lines = [
        f"rank_key = {entry.rank_key}",
        f"insertion_order = {entry.insertion_order}",
        f"path_size = {len(entry.path)}",
        f"times_selected = {entry.times_selected}",
    ]
    if entry.analysis is not None:
        fit = ",".join(repr(v) for v in entry.analysis.fitness.values)
        prob = ",".join(repr(v) for v in entry.analysis.mask.probability)
        lines.append(f"probe_count = {entry.analysis.fitness.probe_count}")
        lines.append(f"fitness = {fit}")
        lines.append(f"probability = {prob}")
    (meta_dir / f"id_{entry.id:06d}.meta").write_text(
        "\n".join(lines) + "\n", encoding="ascii"
    )


def _read_meta_analysis(meta_path: FsPath) -> Optional[SeedAnalysis]:
    fields: dict[str, str] = {}
    for line in meta_path.read_text(encoding="ascii").splitlines():
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    if "fitness" not in fields or "probability" not in fields:
        return None
    fitness = [float(v) for v in fields["fitness"].split(",") if v]
    probability = [float(v) for v in fields["probability"].split(",") if v]
    probe_count = int(fields.get("probe_count", "0"))
    return SeedAnalysis(FitnessMap(fitness, probe_count), MutationMask(probability))


def _persist_corpus(corpus_dir: FsPath, corpus: Corpus) -> None:
    queue_dir = corpus_dir / "queue"
    meta_dir = corpus_dir / "meta"
    queue_dir.mkdir(exist_ok=True)
    meta_dir.mkdir(exist_ok=True)
    for entry in corpus.entries:
        seed_path = queue_dir / f"id_{entry.id:06d}"
        if not seed_path.exists():
            seed_path.write_bytes(entry.data)
        _write_meta(meta_dir, entry)
    (corpus_dir / "overall.cov").write_text(
        "".join(f"{e}\n" for e in sorted(corpus.covered)), encoding="ascii"
    )


class Campaign:
    """One fuzzing campaign over a synthetic or external target. Every
    execution goes through ``_exec`` and yields the executor's ExecResult."""

    def __init__(self, cfg: CampaignConfig):
        self.cfg = cfg
        self.rng = Rng(cfg.rng_seed)
        self.stats = CampaignStats()
        self.corpus_dir = FsPath(cfg.corpus_dir)
        self.crash_dir = self.corpus_dir / "crashes"
        self._stats_writer: Optional[_StatsWriter] = None
        self._wall_start = 0.0
        # Paths that added no edge. Coverage only grows, so they never will.
        self._known_stale: set[Path] = set()
        self._workdir: Optional[str] = None  # external targets' input and coverage files

        # The executor: run(data) -> ExecResult. Only ``_exec`` calls it.
        if cfg.target_spec is not None:
            self.compiled: Optional[CompiledTarget] = CompiledTarget(load_spec(cfg.target_spec))
            self._run = self.compiled.run
        else:
            self.compiled = None
            self._run = self._run_external
        self.corpus: Optional[Corpus] = None

    # -- execution ----------------------------------------------------------

    def _exec(self, data: bytes) -> ExecResult:
        """Execute ``data`` in any phase (dry run, probe, mutation): charge
        the budget and stats, write the interval row, save a crash, and
        return the executor's result."""
        result = self._run(data)
        st = self.stats
        st.executions += 1
        if result.valid is True:
            st.valid_count += 1
        elif result.valid is False:
            st.invalid_count += 1
        if result.exec_status is ExecStatus.CRASH:
            st.crashes += 1
            self._save_crash(data)
        if st.executions % self.cfg.stats_interval == 0:
            self._emit_row()
        return result

    def _emit_row(self) -> None:
        if self._stats_writer is not None:
            self.stats.seeds = len(self.corpus) if self.corpus else 0
            self.stats.edges_covered = (
                self.corpus.edges_covered if self.corpus else 0
            )
            self._stats_writer.row(self.stats)

    def _elapsed(self) -> float:
        """Virtual seconds for a synthetic target, wall seconds otherwise."""
        if self.compiled is not None:
            return self.stats.executions * VIRTUAL_SECONDS_PER_EXEC
        return time.monotonic() - self._wall_start

    def _run_external(self, data: bytes) -> ExecResult:
        """Executor for external targets."""
        return execute_external(
            self.cfg.command, data, self.cfg.exec_timeout, self._workdir
        )

    def _budget_left(self) -> bool:
        b = self.cfg.budget
        if b.max_execs is not None and self.stats.executions >= b.max_execs:
            return False
        if (
            b.max_seconds is not None
            and time.monotonic() - self._wall_start >= b.max_seconds
        ):
            return False
        return True

    # -- byte analysis ------------------------------------------------------

    def _analyze_seed(self, entry: SeedEntry) -> None:
        """One-time fitness/mask computation; probes charge the budget."""

        def probe(mutant: bytes) -> Path:
            path = self._exec(mutant).path
            self.corpus.merge(path)
            return path

        fm = analyze(entry.data, entry.path, probe, self.cfg.analysis)
        mask = mask_from_fitness(fm, self.cfg.analysis)
        entry.analysis = SeedAnalysis(fm, mask)
        self.stats.probe_execs += fm.probe_count

    # -- campaign -----------------------------------------------------------

    def _dry_run(self) -> None:
        seeds_dir = self.corpus_dir / "seeds_in"
        if not seeds_dir.is_dir():
            raise CampaignError(f"missing initial seed directory {seeds_dir}")
        seeds = []
        for name, data in _read_files(seeds_dir):
            if not data:
                raise CampaignError(f"initial seed {seeds_dir / name} is empty")
            seeds.append(data)
        if not seeds:
            raise CampaignError(f"no initial seeds in {seeds_dir}")

        # A resumed corpus re-runs its queue after the initial seeds and
        # keeps each queue entry's saved analysis.
        meta_dir = self.corpus_dir / "meta"
        saved_analysis: dict[bytes, SeedAnalysis] = {}
        for name, data in _read_files(self.corpus_dir / "queue"):
            seeds.append(data)
            meta_path = meta_dir / f"{name}.meta"
            if meta_path.is_file():
                sa = _read_meta_analysis(meta_path)
                if sa is not None:
                    saved_analysis[data] = sa

        corpus = Corpus()

        def run(data: bytes) -> Path:
            result = self._exec(data)
            if result.exec_status is ExecStatus.CRASH:
                # Saved by _exec; like a crashing child, merged but not kept.
                corpus.merge(result.path)
                return frozenset()
            return result.path

        start = self.stats.executions
        crashes_before = self.stats.crashes
        try:
            self.corpus = dry_run(seeds, run, corpus)
        except CampaignError:
            if self.stats.crashes - crashes_before == len(seeds):
                raise CampaignError(
                    f"every initial seed crashed; the inputs are saved in {self.crash_dir}"
                ) from None
            raise
        self.stats.dry_run_execs = self.stats.executions - start
        for entry in self.corpus.entries:
            cached = saved_analysis.get(entry.data)
            if cached is not None and len(cached.mask) == len(entry.data):
                entry.analysis = cached

    def _save_crash(self, data: bytes) -> None:
        self.crash_dir.mkdir(exist_ok=True)
        name = f"crash_{self.stats.crashes:06d}"
        (self.crash_dir / name).write_bytes(data)

    def _fuzz_round(self, entry: SeedEntry) -> int:
        """Run one energy round on ``entry``; returns the new-edge total."""
        cfg = self.cfg
        corpus = self.corpus
        rng = self.rng
        mask = None
        if cfg.mask_enabled:
            if entry.analysis is None:
                self._analyze_seed(entry)
            mask = entry.analysis.mask

        n_all = 0
        known_stale = self._known_stale
        seed_data = entry.data

        for _ in range(cfg.scheduler.energy):
            if not self._budget_left():
                break
            child = mutate(seed_data, mask, rng, draw_op_count(rng))
            self.stats.mutation_execs += 1
            result = self._exec(child)
            path = result.path
            if result.exec_status is ExecStatus.CRASH:
                corpus.merge(path)
                continue
            if path in known_stale:
                continue
            kept = corpus.retain_if_new(child, path)
            if kept is None:
                known_stale.add(path)
            else:
                n_all += kept.rank_key
        return n_all

    def run(self) -> CampaignStats:
        self.corpus_dir.mkdir(parents=True, exist_ok=True)
        self._wall_start = time.monotonic()
        self._stats_writer = _StatsWriter(self.corpus_dir / "stats.csv", self._elapsed)
        try:
            if self.compiled is None:
                self._workdir = tempfile.mkdtemp(prefix="truzz-exec-")
            self._dry_run()
            while self._budget_left():
                entry = self.corpus.select_seed(self.cfg.scheduler.policy)
                n_all = self._fuzz_round(entry)
                self.corpus.update_rank(entry, n_all)
        except KeyboardInterrupt:
            pass
        finally:
            if self._workdir is not None:
                shutil.rmtree(self._workdir)
                self._workdir = None
            if self.corpus is not None:
                self._emit_row()
                _persist_corpus(self.corpus_dir, self.corpus)
            self._stats_writer.close()
        return self.stats


def run_campaign(cfg: CampaignConfig) -> CampaignStats:
    """Run a full campaign; artifacts land under ``cfg.corpus_dir``."""
    return Campaign(cfg).run()


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


@dataclass
class ReplayReport:
    path_size: int
    new_edges: int
    valid: Optional[bool]
    exec_status: ExecStatus
    edges: Optional[list[int]] = None
    warning: Optional[str] = None

    def render(self) -> str:
        lines = [
            f"path size:   {self.path_size}",
            f"new edges:   {self.new_edges}",
            f"valid:       {'n/a' if self.valid is None else self.valid}",
            f"exec status: {self.exec_status.value}",
        ]
        if self.warning:
            lines.append(f"warning:     {self.warning}")
        if self.edges is not None:
            lines.append("edges:       " + " ".join(str(e) for e in self.edges))
        return "\n".join(lines)


def replay(
    input_path: str,
    target_spec: Optional[str] = None,
    command: Optional[Sequence[str]] = None,
    corpus_dir: Optional[str] = None,
    show_path: bool = False,
    exec_timeout: float = 5.0,
) -> ReplayReport:
    """Execute one stored input and report path size, novelty and verdict."""
    p = FsPath(input_path)
    if not p.is_file():
        raise FileNotFoundError(input_path)
    data = p.read_bytes()

    if (target_spec is None) == (command is None):
        raise ValueError("exactly one of target_spec or command must be set")
    if target_spec is not None:
        result = CompiledTarget(load_spec(target_spec)).execute(data)
    else:
        with tempfile.TemporaryDirectory(prefix="truzz-exec-") as workdir:
            result = execute_external(command, data, exec_timeout, workdir)

    known: set[int] = set()
    if corpus_dir is not None:
        cov = FsPath(corpus_dir) / "overall.cov"
        if cov.is_file():
            known = {
                int(line)
                for line in cov.read_text(encoding="ascii").splitlines()
                if line.strip()
            }

    warning = None
    if target_spec is not None and "crash" in p.name.lower():
        warning = "synthetic targets cannot crash; replayed normally"

    return ReplayReport(
        path_size=len(result.path),
        new_edges=len(result.path - known),
        valid=result.valid,
        exec_status=result.exec_status,
        edges=sorted(result.path) if show_path else None,
        warning=warning,
    )
