"""Ranked seed corpus: dry run, selection, retention, rank updates.

A seed's rank key is the number of new edges its path contributed when it
was last scored. Selection takes the top-ranked seed; after a seed's
mutation round, its rank is replaced by the number of new edges the whole
round discovered, so seeds that stop producing sink down the order.
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
        if self.energy < 1:
            raise ValueError(f"energy must be >= 1, got {self.energy}")


@dataclass
class SeedAnalysis:
    fitness: FitnessMap
    mask: MutationMask


@dataclass
class SeedEntry:
    id: int
    data: bytes
    path: Path                       # fixed at retention time
    rank_key: int
    insertion_order: int
    analysis: Optional[SeedAnalysis] = None
    times_selected: int = 0


class Corpus:
    """Seed entries plus the campaign's overall covered-edge set, which
    only grows."""

    def __init__(self):
        self.entries: list[SeedEntry] = []
        self.covered: set[int] = set()
        self._next_id = 0
        self._fifo_cursor = 0
        self._zero_cursor = 0

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
        entry = SeedEntry(
            id=self._next_id,
            data=data,
            path=path,
            rank_key=rank_key,
            insertion_order=self._next_id,
        )
        self._next_id += 1
        self.entries.append(entry)
        return entry

    def retain_if_new(self, data: bytes, path: Path) -> Optional[SeedEntry]:
        """Keep ``data`` as a seed iff ``path`` has edges not covered yet,
        ranked by their count; overall coverage takes those edges.
        """
        n_new = self.merge(path)
        return self.add_entry(data, path, n_new) if n_new else None

    # -- selection ----------------------------------------------------------

    def select_seed(self, policy: Policy) -> SeedEntry:
        if not self.entries:
            raise CampaignError("corpus is empty")
        if policy is Policy.FIFO:
            ordered = sorted(self.entries, key=lambda e: e.insertion_order)
            entry = ordered[self._fifo_cursor % len(ordered)]
            self._fifo_cursor += 1
        else:
            entry = max(
                self.entries, key=lambda e: (e.rank_key, -e.insertion_order)
            )
            if entry.rank_key == 0:
                # Starvation guard: round-robin when every rank is zero.
                ordered = sorted(self.entries, key=lambda e: e.insertion_order)
                entry = ordered[self._zero_cursor % len(ordered)]
                self._zero_cursor += 1
        entry.times_selected += 1
        return entry

    # -- ranking ------------------------------------------------------------

    def update_rank(self, entry: SeedEntry, n_all: int) -> None:
        """Replace the seed's rank with the round's new-edge total, re-sort."""
        if entry not in self.entries:
            raise CampaignError(f"seed {entry.id} not in corpus")
        entry.rank_key = n_all
        self.sort()

    def sort(self) -> None:
        self.entries.sort(key=lambda e: (-e.rank_key, e.insertion_order))

    def is_sorted(self) -> bool:
        keys = [(-e.rank_key, e.insertion_order) for e in self.entries]
        return keys == sorted(keys)


def dry_run(
    initial_seeds: Sequence[bytes],
    run: Callable[[bytes], Path],
    corpus: Optional[Corpus] = None,
) -> Corpus:
    """Execute the initial seeds in order and rank the keepers.

    ``run`` returns an input's covered path. A seed is retained with
    rank = its new-edge count against the coverage accumulated so far;
    duplicate-coverage seeds are discarded. Seeds are retained into
    ``corpus`` (a new one by default), which ``run`` may also merge paths
    into. Raises CampaignError when no seed contributes any coverage.
    """
    if not initial_seeds:
        raise CampaignError("no initial seeds")
    if corpus is None:
        corpus = Corpus()
    for data in initial_seeds:
        corpus.retain_if_new(data, run(data))
    if not corpus.entries:
        raise CampaignError("every initial seed yielded zero new edges")
    corpus.sort()
    return corpus
