"""Campaign loop: dry run, seed selection, one-time byte analysis,
mask-gated mutation, retention, and rank updates, with CSV stats and an
on-disk corpus. A FIFO/unmasked configuration reproduces the vanilla
baseline exactly under the same RNG seed, enabling A/B comparisons from
one binary.
"""

from __future__ import annotations

import functools
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field
from itertools import chain, pairwise
from pathlib import Path as FsPath
from typing import Callable, Iterator, Optional, Sequence

from .byte_analysis import (
    AnalysisConfig,
    FitnessMap,
    MutationMask,
    analyze,
    mask_from_fitness,
)
from .coverage import Path, parse_edges
# Nothing here calls mutate or draw_op_count: they are imported so that
# perfbench's tracer (tracing.SPANNED) finds them under these names.
from .mutation import Rng, draw_op_count, mutate, mutate_chunks
from .scheduler import (
    CampaignError,
    Corpus,
    SchedulerConfig,
    SeedAnalysis,
    SeedEntry,
    dry_run,
)
from .target import (
    Chunk,
    CompiledTarget,
    ExecResult,
    ExecStatus,
    ExternalTarget,
    check_timeout,
    execute_external,
    load_spec,
    placeholder_index,
)

STATS_HEADER = "elapsed_s,executions,seeds,edges_covered,valid,invalid,crashes"

_CRASH_NAME = re.compile(r"crash_([0-9]{6,})")

# Virtual seconds charged per synthetic execution; keeps stats.csv
# deterministic (wall clock would differ between identical runs).
VIRTUAL_SECONDS_PER_EXEC = 1e-5

# The CampaignStats counters of the phases whose executions are counted one
# by one; the dry run's count is set when it ends.
_PROBE, _MUTATION = "probe_execs", "mutation_execs"


def _virtual_seconds(executions: int) -> float:
    return executions * VIRTUAL_SECONDS_PER_EXEC


def _virtual_stop(seconds: float) -> int:
    """The first execution count whose virtual time reaches ``seconds``,
    or sys.maxsize where that is past 2**52: no campaign runs that long,
    and there a search one count at a time may never end, as consecutive
    counts round to the same float."""
    stop = seconds / VIRTUAL_SECONDS_PER_EXEC
    if stop >= 2 ** 52:
        return sys.maxsize
    stop = math.ceil(stop)
    while stop > 0 and _virtual_seconds(stop - 1) >= seconds:
        stop -= 1
    while _virtual_seconds(stop) < seconds:
        stop += 1
    return stop


@dataclass
class Budget:
    max_execs: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self):
        if self.max_execs is None and self.max_seconds is None:
            raise ValueError("budget requires max_execs and/or max_seconds")
        if self.max_execs is not None and not (isinstance(self.max_execs, int)
                                               and self.max_execs > 0):
            raise ValueError(f"max_execs must be a positive integer, got {self.max_execs!r}")
        # Written so that NaN fails too: a NaN budget would never run out.
        if self.max_seconds is not None and not 0 < self.max_seconds < math.inf:
            raise ValueError(f"max_seconds must be a positive finite number: {self.max_seconds}")


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
            check_timeout(self.exec_timeout)
        if not (isinstance(self.stats_interval, int) and self.stats_interval >= 1):
            raise ValueError(f"stats_interval must be an integer >= 1, got {self.stats_interval!r}")


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
    """Writes ``stats.csv``. The file is created, or an earlier campaign's
    truncated, only when the first row is written."""

    def __init__(self, path: FsPath, clock: Callable[[], float]):
        self._path = path
        self._fh = None
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
            if self._fh is None:
                self._fh = open(self._path, "w", encoding="ascii", newline="\n")
                self._fh.write(STATS_HEADER + "\n")
            self._last_counts = counts
            stats.elapsed = self._clock()
            self._fh.write(f"{stats.elapsed:.6f},{counts}")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
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
        f"insertion_order = {entry.id}",
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


def _read_meta_fitness(meta_path: FsPath, length: int) -> Optional[FitnessMap]:
    """The fitness of a ``length``-byte seed saved in a ``.meta`` file, or
    None. A ``.meta`` file caches a deterministic analysis, so one that is
    missing or cannot be parsed only means the seed is analysed again."""
    try:
        fields = {}
        for line in meta_path.read_text(encoding="ascii").splitlines():
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
        fitness = [float(v) for v in fields["fitness"].split(",") if v]
        probe_count = int(fields.get("probe_count", "0"))
    except (OSError, KeyError, ValueError):  # UnicodeDecodeError is a ValueError
        return None
    if len(fitness) != length or not all(0.0 <= f < 1.0 for f in fitness):
        return None
    return FitnessMap(fitness, probe_count)


def _read_coverage(path: FsPath) -> Path:
    """The edges an ``overall.cov`` file lists, none if there is no file;
    CampaignError naming the file and the first bad line."""
    if not path.is_file():
        return Path()
    try:
        return parse_edges(path.read_text(encoding="ascii", errors="replace"))
    except ValueError as exc:
        raise CampaignError(f"{path} {exc}") from None


def _load_seeds(
    corpus_dir: FsPath,
) -> tuple[list[bytes], dict[bytes, Optional[FitnessMap]], Path]:
    """Read and check a campaign's seeds and earlier coverage before
    anything is written. A resumed corpus runs its queue before
    ``seeds_in/``, so each queue entry keeps its id, and brings its saved
    fitness and ``overall.cov``. A kept seed is never empty, so an empty
    queue file is a torn write."""
    seeds_dir = corpus_dir / "seeds_in"
    queue_dir = corpus_dir / "queue"
    if not seeds_dir.is_dir():
        raise CampaignError(f"missing initial seed directory {seeds_dir}")
    initial = _read_files(seeds_dir)
    if not initial:
        raise CampaignError(f"no initial seeds in {seeds_dir}")
    queue = _read_files(queue_dir)
    for directory, files in ((queue_dir, queue), (seeds_dir, initial)):
        for name, data in files:
            if not data:
                raise CampaignError(f"seed {directory / name} is empty")
    saved = {data: _read_meta_fitness(corpus_dir / "meta" / f"{name}.meta", len(data))
             for name, data in queue}
    covered = _read_coverage(corpus_dir / "overall.cov")
    return [data for _, data in queue + initial], saved, covered


def _last_crash_number(crash_dir: FsPath) -> int:
    """The highest N of a ``crash_NNNNNN`` file in ``crash_dir``, 0 if none;
    a resumed campaign numbers its crashes after it."""
    if not crash_dir.is_dir():
        return 0
    matches = (_CRASH_NAME.fullmatch(name) for name in os.listdir(crash_dir))
    return max((int(m[1]) for m in matches if m), default=0)


def _persist_corpus(corpus_dir: FsPath, corpus: Corpus) -> None:
    queue_dir = corpus_dir / "queue"
    meta_dir = corpus_dir / "meta"
    queue_dir.mkdir(exist_ok=True)
    meta_dir.mkdir(exist_ok=True)
    for entry in corpus.entries:
        (queue_dir / f"id_{entry.id:06d}").write_bytes(entry.data)
        _write_meta(meta_dir, entry)
    (corpus_dir / "overall.cov").write_text(
        "".join(f"{e}\n" for e in sorted(corpus.covered)), encoding="ascii"
    )


class Campaign:
    """One fuzzing campaign over a synthetic or external target. ``run()``
    is the one place that tells the two apart: it binds the executor
    ``_run``, the round evaluator ``_evaluate``, the ``_clock`` and the
    execution ``_cap``. Every execution is charged by ``_charge`` or
    ``_charge_bulk``, and every one but a mutated child of a synthetic
    round is run by ``_run``."""

    def __init__(self, cfg: CampaignConfig):
        self.cfg = cfg
        self.rng = Rng(cfg.rng_seed)
        self.stats: Optional[CampaignStats] = None  # made by each run()
        self.corpus_dir = FsPath(cfg.corpus_dir)
        self.crash_dir = self.corpus_dir / "crashes"
        self._stats_writer: Optional[_StatsWriter] = None
        self._crash_base = 0  # the highest crash number saved before this run
        self.compiled: Optional[CompiledTarget] = None
        if cfg.target_spec is not None:
            self.compiled = CompiledTarget(load_spec(cfg.target_spec))
        # Bound by each run(); only ``_exec`` and the external round call the
        # executor ``_run``, and only the external round passes it ``then``.
        self._run: Optional[Callable[..., ExecResult]] = None
        self._evaluate: Optional[Callable[[bytes, Optional[MutationMask], int],
                                          Iterator[Chunk]]] = None
        self._clock: Optional[Callable[[], float]] = None  # virtual or wall seconds
        self._cap = 0  # the execution count at which the budget runs out
        self.corpus: Optional[Corpus] = None

    # -- execution ----------------------------------------------------------

    def _exec(self, data: bytes, phase: str = "") -> ExecResult:
        """Run ``data`` in the dry run or as a probe and charge it."""
        return self._charge(data, self._run(data), phase)

    def _charge(self, data: bytes, result: ExecResult, phase: str) -> ExecResult:
        """Charge one execution of ``data``, which gave ``result``, to the
        budget, the stats and the counter named ``phase`` if any, and write
        the interval row. A crash is saved and its path merged into the
        corpus's coverage, so retention never keeps a crashing input."""
        st = self.stats
        st.executions += 1
        if phase:
            setattr(st, phase, getattr(st, phase) + 1)
        if result.valid is True:
            st.valid_count += 1
        elif result.valid is False:
            st.invalid_count += 1
        if result.exec_status is ExecStatus.CRASH:
            st.crashes += 1
            self._save_crash(data)
            self.corpus.merge(result.path)
        if st.executions % self.cfg.stats_interval == 0:
            self._emit_row()
        return result

    def _charge_bulk(self, valid: Sequence[int], start: int, stop: int) -> None:
        """Charge mutated children ``start`` to ``stop - 1`` of a chunk, as
        ``_charge`` would one at a time, in steps that end on each
        ``stats_interval`` boundary, whose row the step writes; ``valid``
        is the chunk's running count of valid ones."""
        st, interval = self.stats, self.cfg.stats_interval
        while start < stop:
            end = min(stop, start + interval - st.executions % interval)
            n, n_valid = end - start, valid[end] - valid[start]
            st.executions += n
            st.mutation_execs += n
            st.valid_count += n_valid
            st.invalid_count += n - n_valid
            if st.executions % interval == 0:
                self._emit_row()
            start = end

    def _emit_row(self) -> None:
        self.stats.seeds = len(self.corpus)
        self.stats.edges_covered = self.corpus.edges_covered
        self._stats_writer.row(self.stats)

    def _budget_left(self) -> bool:
        max_seconds = self.cfg.budget.max_seconds
        return self.stats.executions < self._cap and not (
            max_seconds is not None and self._clock() >= max_seconds)

    # -- byte analysis ------------------------------------------------------

    def _analyze_seed(self, entry: SeedEntry) -> None:
        """One-time fitness/mask computation; probes charge the budget."""

        def probe(mutant: bytes) -> Path:
            path = self._exec(mutant, phase=_PROBE).path
            self.corpus.merge(path)
            return path

        fm = analyze(entry.data, entry.path, probe, self.cfg.analysis)
        mask = mask_from_fitness(fm, self.cfg.analysis)
        entry.analysis = SeedAnalysis(fm, mask)

    # -- campaign -----------------------------------------------------------

    def _dry_run(self, seeds: list[bytes], saved: dict[bytes, Optional[FitnessMap]],
                 covered: Path) -> None:
        """Execute ``seeds`` into a new corpus, then merge the edges an
        earlier campaign ``covered`` and reattach each kept seed's saved
        fitness with its mask built under the running floor. The merge comes
        after the seeds run, so each queue seed is kept with its rank."""
        self.corpus = Corpus()
        try:
            dry_run(seeds, lambda d: self._exec(d).path, self.corpus)
        except CampaignError:
            if self.stats.crashes == len(seeds):
                raise CampaignError(
                    f"every initial seed crashed; the inputs are saved in {self.crash_dir}"
                ) from None
            raise
        self.stats.dry_run_execs = self.stats.executions
        self.corpus.merge(covered)
        for entry in self.corpus.entries:
            fm = saved.get(entry.data)
            if fm is not None:
                entry.analysis = SeedAnalysis(fm, mask_from_fitness(fm, self.cfg.analysis))

    def _save_crash(self, data: bytes) -> None:
        self.crash_dir.mkdir(exist_ok=True)
        name = f"crash_{self._crash_base + self.stats.crashes:06d}"
        with open(self.crash_dir / name, "xb") as fh:
            fh.write(data)

    def _fuzz_round(self, entry: SeedEntry) -> int:
        """Run one energy round on ``entry``; returns the new-edge total.

        The round evaluator yields the round's children in chunks, and the
        round runs only their firsts: the first child in the round to reach
        each outcome, which is offered to the corpus. The children between
        firsts are charged in bulk. This is exact: a later child with an
        outcome already offered this round has the same path, so it adds no
        edge, and cannot crash. The round makes no child past the energy or
        the execution cap, and a round cut short by the budget or an
        interrupt is the campaign's last, so children made and never run
        change nothing.
        """
        cfg = self.cfg
        mask = None
        if cfg.mask_enabled:
            if entry.analysis is None:
                self._analyze_seed(entry)
            mask = entry.analysis.mask
        n = min(cfg.scheduler.energy, self._cap - self.stats.executions)
        n_all = 0
        for chunk in self._evaluate(entry.data, mask, n):
            done = 0
            for i, child, run in chunk.firsts:
                self._charge_bulk(chunk.valid, done, i)
                if not self._budget_left():
                    return n_all
                result = self._charge(child, run(), _MUTATION)
                kept = self.corpus.retain_if_new(child, result.path)
                if kept is not None:
                    n_all += kept.rank_key
                done = i + 1
            self._charge_bulk(chunk.valid, done, chunk.size)
        return n_all

    def _child_by_child(self, seed: bytes, mask: Optional[MutationMask],
                        n: int) -> Iterator[Chunk]:
        """The external round: one chunk in which every child is a first,
        made when the round takes it. Taking child i makes child i+1, which
        is passed to child i's run as ``then``; execution draws nothing
        from the RNG, so every child and result is that of one child at a
        time."""
        length = len(seed)
        children = (buffer[start:start + length]
                    for buffer, k in mutate_chunks(seed, mask, self.rng, n)
                    for start in range(0, k * length, length))
        yield Chunk(n, ((i, child, functools.partial(self._run, child, then))
                        for i, (child, then) in enumerate(pairwise(chain(children, [None])))),
                    None)

    def run(self) -> CampaignStats:
        seeds, saved, covered = _load_seeds(self.corpus_dir)
        stats = self.stats = CampaignStats()
        self._crash_base = _last_crash_number(self.crash_dir)
        self._stats_writer = _StatsWriter(self.corpus_dir / "stats.csv", lambda: self._clock())
        budget = self.cfg.budget
        self._cap = sys.maxsize if budget.max_execs is None else budget.max_execs
        external = None
        dry_run_done = False
        try:
            if self.compiled is not None:
                self._run = self.compiled.run
                self._evaluate = lambda seed, mask, n: self.compiled.round(seed, mask, self.rng, n)
                self._clock = lambda: _virtual_seconds(stats.executions)
                if budget.max_seconds is not None:
                    # The time budget as a count, so every run of a config
                    # stops on the same execution.
                    self._cap = min(self._cap, _virtual_stop(budget.max_seconds))
            else:
                start = time.monotonic()
                self._clock = lambda: time.monotonic() - start
                external = ExternalTarget(self.cfg.command, self.cfg.exec_timeout)
                # The module global, looked up now, so a wrapper installed
                # before the campaign runs sees every execution.
                self._run = functools.partial(execute_external, external)
                self._evaluate = self._child_by_child
            self._dry_run(seeds, saved, covered)
            dry_run_done = True
            while self._budget_left():
                entry = self.corpus.select_seed(self.cfg.scheduler.policy)
                n_all = self._fuzz_round(entry)
                self.corpus.update_rank(entry, n_all)
        except KeyboardInterrupt:
            pass
        finally:
            self._run = self._evaluate = None
            try:
                if external is not None:
                    external.close()
            finally:
                # A dry run that failed or was interrupted has not yet
                # reattached the saved fitness, so it persists nothing.
                if dry_run_done:
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

    def render(self) -> str:
        lines = [
            f"path size:   {self.path_size}",
            f"new edges:   {self.new_edges}",
            f"valid:       {'n/a' if self.valid is None else self.valid}",
            f"exec status: {self.exec_status.value}",
        ]
        if self.edges is not None:
            lines.append("edges:       " + " ".join(str(e) for e in self.edges))
        return "\n".join(lines)


def replay(
    input_path: str,
    target_spec: Optional[str] = None,
    command: Optional[Sequence[str]] = None,
    corpus_dir: Optional[str] = None,
    show_path: bool = False,
    exec_timeout: float = CampaignConfig.exec_timeout,
) -> ReplayReport:
    """Execute one stored input and report path size, novelty and verdict."""
    p = FsPath(input_path)
    if not p.is_file():
        raise FileNotFoundError(f"no input file {input_path}")
    data = p.read_bytes()

    if (target_spec is None) == (command is None):
        raise ValueError("exactly one of target_spec or command must be set")
    if target_spec is not None:
        result = CompiledTarget(load_spec(target_spec)).run(data)
    else:
        with ExternalTarget(command, exec_timeout) as external:
            result = execute_external(external, data)

    known = Path()
    if corpus_dir is not None:
        known = _read_coverage(FsPath(corpus_dir) / "overall.cov")

    return ReplayReport(
        path_size=len(result.path),
        new_edges=len(result.path - known),
        valid=result.valid,
        exec_status=result.exec_status,
        edges=sorted(result.path) if show_path else None,
    )
