"""Seed corpus: dry run, selection, retention, rank updates.

The corpus keeps its seeds in retention order, so a seed's id is its
index. A seed's rank key is the number of new edges its path contributed
when it was last scored. ``select_seed`` is the one place that orders
seeds: it takes the top-ranked seed, the lowest id among equals. After a
seed's mutation round, its rank is replaced by the number of new edges the
whole round discovered, so seeds that stop producing are passed over.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .byte_analysis import FitnessMap, MutationMask
from .coverage import Path


class CampaignError(RuntimeError):
    """The campaign cannot proceed (e.g. no seed yields coverage)."""


class Policy(enum.Enum):
    TRUZZ = "truzz"   # highest rank key first
    FIFO = "fifo"     # cyclic by insertion order (vanilla baseline)


@dataclass
class SchedulerConfig:
    energy: int = 1024
    policy: Policy = Policy.TRUZZ

    def __post_init__(self):
        if isinstance(self.policy, str):
            self.policy = Policy(self.policy)
        if not (isinstance(self.energy, int) and self.energy >= 1):
            raise ValueError(f"energy must be an integer >= 1, got {self.energy!r}")


@dataclass
class SeedAnalysis:
    fitness: FitnessMap
    mask: MutationMask


@dataclass(eq=False)
class SeedEntry:
    id: int                          # index in Corpus.entries; entries are never removed
    data: bytes
    path: Path                       # fixed at retention time
    rank_key: int
    analysis: Optional[SeedAnalysis] = None
    times_selected: int = 0


class Corpus:
    """Seed entries, in retention order, plus the campaign's overall
    covered-edge set, which only grows."""

    def __init__(self):
        self.entries: list[SeedEntry] = []
        self.covered: set[int] = set()
        self._cursor = 0  # round-robin position

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def edges_covered(self) -> int:
        return len(self.covered)

    # -- retention ----------------------------------------------------------

    def merge(self, path: Path) -> int:
        """Fold a path into overall coverage; returns the new-edge count."""
        new = path - self.covered
        self.covered |= new
        return len(new)

    def add_entry(self, data: bytes, path: Path, rank_key: int) -> SeedEntry:
        entry = SeedEntry(id=len(self.entries), data=data, path=path, rank_key=rank_key)
        self.entries.append(entry)
        return entry

    def retain_if_new(self, data: bytes, path: Path) -> Optional[SeedEntry]:
        """Keep ``data`` as a seed iff ``path`` has edges not covered yet,
        ranked by their count; overall coverage takes those edges."""
        n_new = self.merge(path)
        return self.add_entry(data, path, n_new) if n_new else None

    # -- selection ----------------------------------------------------------

    def select_seed(self, policy: Policy) -> SeedEntry:
        if not self.entries:
            raise CampaignError("corpus is empty")
        entry = max(self.entries, key=lambda e: (e.rank_key, -e.id))
        # FIFO, and TRUZZ's starvation guard when every rank is zero.
        if policy is Policy.FIFO or entry.rank_key == 0:
            entry = self.entries[self._cursor % len(self.entries)]
            self._cursor += 1
        entry.times_selected += 1
        return entry

    # -- ranking ------------------------------------------------------------

    def update_rank(self, entry: SeedEntry, n_all: int) -> None:
        """Replace the seed's rank with the round's new-edge total."""
        if not (0 <= entry.id < len(self.entries) and self.entries[entry.id] is entry):
            raise CampaignError(f"seed {entry.id} not in corpus")
        entry.rank_key = n_all


def dry_run(
    initial_seeds: Sequence[bytes],
    run: Callable[[bytes], Path],
    corpus: Optional[Corpus] = None,
) -> Corpus:
    """Execute the initial seeds in order and rank the keepers.

    ``run`` returns an input's covered path. A seed is retained with
    rank = its new-edge count against the coverage accumulated so far;
    duplicate-coverage seeds are discarded. Seeds are retained into
    ``corpus`` (a new one by default). ``run`` may merge a path into it
    before returning that path, as a campaign does for a crashing seed;
    the seed then adds no edge and is not kept. Raises CampaignError when
    no seed contributes any coverage.
    """
    if not initial_seeds:
        raise CampaignError("no initial seeds")
    if corpus is None:
        corpus = Corpus()
    for data in initial_seeds:
        corpus.retain_if_new(data, run(data))
    if not corpus.entries:
        raise CampaignError("every initial seed yielded zero new edges")
    return corpus
