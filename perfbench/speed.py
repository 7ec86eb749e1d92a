"""The host's speed while a campaign runs, from a fixed reference loop.

On a shared host the speed of a core swings by up to 2x over seconds to
minutes, as other tenants load its neighbours; an exec/s figure taken at one
moment then says more about the host than about the program. A ``SpeedProbe``
samples the host while the campaign runs: a ``SIGALRM`` timer interrupts the
campaign every ``INTERVAL_S`` seconds and the handler times one pass of
``reference_work``, a fixed pure-Python loop of the kind the fuzzer runs
(seeded ``random.Random`` draws, bytearray edits, dict updates). The time
spent in the handler is taken out of the campaign's wall time.

``scale()`` is the mean over the samples of ``REFERENCE_S / duration``: how
many reference-host seconds one second of the campaign was worth. Dividing
the campaign's executions by ``wall * scale()`` gives its exec/s on a host
where one pass of the reference loop takes ``REFERENCE_S``, a figure that
does not move with the host's speed. The mean of the speed ratios, not the
median of the durations, is the right average: the work the campaign did is
the integral of the host's speed over its wall time, and the samples are
spread evenly over that time.

The correction is only as good as the reference loop's likeness to the
campaign: it follows the interpreter's speed, and follows the kernel work of
the external executor (fork, exec, files) less closely.
"""

from __future__ import annotations

import random
import signal
from time import perf_counter

# The median time of one pass of reference_work on a 2-core Intel Xeon
# host running Python 3.11. It only sets the unit: calibrated figures are
# in seconds of a host on which a pass takes this long.
REFERENCE_S = 0.00075
INTERVAL_S = 0.05
_LOOPS = 600


def reference_work() -> int:
    rng = random.Random(20220112)
    buf = bytearray(range(256)) * 2
    seen: dict[int, int] = {}
    acc = 0
    for i in range(_LOOPS):
        pos = rng.randrange(508)
        if rng.random() < 0.5:
            buf[pos] = (buf[pos] + i) & 0xFF
        key = buf[pos] | buf[pos + 1] << 8
        seen[key] = seen.get(key, 0) + 1
        acc += seen[key]
    return acc


class SpeedProbe:
    """Use as a context manager around a campaign; read ``overhead`` (the
    seconds its handler took, to take out of the campaign's wall time) and
    ``ratios`` (one ``REFERENCE_S / duration`` per sample) afterwards."""

    def __init__(self):
        self.ratios: list[float] = []
        self.overhead = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        reference_work()
        t1 = perf_counter()
        self.ratios.append(REFERENCE_S / (t1 - t0))
        self.overhead += perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        # One sample up front, outside the timed span, so a campaign shorter
        # than the interval still has one.
        self._sample(None, None)
        self.overhead = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scale(ratios: list[float]) -> float:
    return sum(ratios) / len(ratios)
