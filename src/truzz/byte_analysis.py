"""Per-byte validation fitness via interval halving, and mutation masks.

Mutating bytes that feed a validation check sends execution down a short
error-handling path. The fitness of a byte interval scores how sharply the
path shrank (and diverged) when that interval was probe-mutated; high
fitness means "probably validation-related". The interval-halving search
assigns fitness to every byte with O(log N) probes per validation region,
and the mask converts fitness into a per-byte mutation probability with a
floor so error paths still get exercised occasionally.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

from .coverage import Path


class AnalysisError(RuntimeError):
    """Executor failed while probing an interval."""

    def __init__(self, interval: tuple[int, int], cause: BaseException):
        self.interval = interval
        super().__init__(f"probe of interval {interval} failed: {cause}")


@dataclass(frozen=True)
class AnalysisConfig:
    threshold: float = 0.5      # fitness at or above this keeps halving
    min_interval: int = 1       # smallest interval length worth halving, in bytes
    prob_floor: float = 0.05    # lower bound on per-byte mutation probability

    def __post_init__(self):
        if not 0.0 <= self.threshold < 1.0:
            raise ValueError(f"threshold must be in [0, 1), got {self.threshold}")
        if self.min_interval < 1:
            raise ValueError(f"min_interval must be >= 1, got {self.min_interval}")
        if not 0.0 < self.prob_floor <= 1.0:
            raise ValueError(f"prob_floor must be in (0, 1], got {self.prob_floor}")


@dataclass
class FitnessMap:
    """Per-byte fitness for one seed, plus the executions spent probing."""

    values: list[float]
    probe_count: int


@dataclass
class MutationMask:
    """Per-byte probability of permitting a mutation, each in [0, 1]."""

    probability: list[float]
    argmax: int = field(init=False)

    def __post_init__(self):
        for i, p in enumerate(self.probability):
            if not 0.0 <= p <= 1.0:  # written so that NaN fails too
                raise ValueError(f"mask probability of byte {i} must be in [0, 1], got {p}")
        self.argmax = max(
            range(len(self.probability)), key=self.probability.__getitem__
        )

    @cached_property
    def doubles(self) -> array:
        """``probability`` as the C doubles the mutation kernel reads, made
        on first use; a mask's probabilities are not changed once made."""
        return array("d", self.probability)


def path_fitness(seed_path: Path, mutant_path: Path) -> float:
    """Score a path transition in [0, 1).

    Non-zero only when the mutant's path is strictly shorter than the
    seed's; combines relative shortening with edge divergence:
    1 - (|mutant| + |seed & mutant|) / (2 * |seed|).
    """
    n_seed = len(seed_path)
    if n_seed == 0:
        raise ValueError("seed path must be non-empty")
    n_mut = len(mutant_path)
    if n_seed <= n_mut:
        return 0.0
    n_shared = len(seed_path & mutant_path)
    return 1.0 - (n_mut + n_shared) / (2.0 * n_seed)


def probe_mutate(seed: bytes, lo: int, hi: int) -> bytes:
    """XOR-invert bytes in the inclusive range [lo, hi].

    Deterministic and involutive, and guaranteed to flip any EQ-style
    predicate reading the touched bytes.
    """
    if not 0 <= lo <= hi < len(seed):
        raise IndexError(f"interval [{lo}, {hi}] out of range for length {len(seed)}")
    out = bytearray(seed)
    for i in range(lo, hi + 1):
        out[i] ^= 0xFF
    return bytes(out)


def analyze(
    seed: bytes,
    seed_path: Path,
    run: Callable[[bytes], Path],
    cfg: AnalysisConfig = AnalysisConfig(),
) -> FitnessMap:
    """Assign a fitness to every byte of ``seed`` by interval halving.

    The worklist starts with the seed's two halves. Each interval is
    probe-mutated and executed once; if its fitness falls below the
    threshold or the interval is already short, the fitness is written to
    every byte in it, otherwise both halves are enqueued. ``run`` maps an
    input to its covered path and must be deterministic while this runs.
    """
    if not seed_path:
        raise ValueError("seed path must be non-empty")
    n = len(seed)
    if n == 0:
        raise ValueError("seed must be non-empty")

    values = [0.0] * n
    probes = 0

    def probe(lo: int, hi: int) -> float:
        nonlocal probes
        mutant = probe_mutate(seed, lo, hi)
        try:
            mutant_path = run(mutant)
        except Exception as exc:
            raise AnalysisError((lo, hi), exc) from exc
        probes += 1
        return path_fitness(seed_path, mutant_path)

    if n == 1:
        # Halving is undefined for a single byte; probe it directly.
        values[0] = probe(0, 0)
        return FitnessMap(values, probes)

    size = n - 1
    work: deque[tuple[int, int]] = deque()
    work.append((0, size // 2))
    work.append((size // 2 + 1, size))
    while work:
        lo, hi = work.popleft()
        f = probe(lo, hi)
        if f < cfg.threshold or hi - lo < cfg.min_interval:
            for i in range(lo, hi + 1):
                values[i] = f
        else:
            mid = (lo + hi) // 2
            work.append((lo, mid))
            work.append((mid + 1, hi))
    return FitnessMap(values, probes)


def mask_from_fitness(
    fm: FitnessMap | Sequence[float], cfg: AnalysisConfig = AnalysisConfig()
) -> MutationMask:
    """Per-byte mutation probability: max(1 - fitness, floor)."""
    values = fm.values if isinstance(fm, FitnessMap) else fm
    floor = cfg.prob_floor
    return MutationMask([max(1.0 - f, floor) for f in values])
