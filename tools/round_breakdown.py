"""Where a synthetic execution's time goes: the round kernel's C call, or
the rest of the campaign.

Runs the campaign set of perfbench's synth-truzz workload (four_byte_magic
5k, magic64 5k, record512 10k and chain128 100k executions; TRUZZ ranking,
mask on) ``--repeats`` times per rng seed in one process. Each
``Campaign.run()`` and each ``truzz_round`` call is timed with
``time.perf_counter``, and each seed prints one line: microseconds per
execution, the part of it spent in the C call, and the rest (dry run,
probes, event handling, persistence). Times are wall clock on this host,
not calibrated as perfbench's ``execs_per_s`` is.

    python3 tools/round_breakdown.py [--seeds 7 8 9] [--repeats 3] [--max-execs N]

It imports ``truzz`` from the ``src`` directory beside it, so it measures
the tree it is in. ``--max-execs`` caps each campaign's budget, for a
quick check.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from truzz import mutation  # noqa: E402
from truzz.engine import Budget, Campaign, CampaignConfig  # noqa: E402
from truzz.scheduler import Policy, SchedulerConfig  # noqa: E402
from truzz.targets import write_bundled  # noqa: E402

# perfbench/run.py's SYNTH_SET: each target and its execution budget.
SYNTH_SET = (("four_byte_magic", 5_000), ("magic64", 5_000), ("record512", 10_000),
             ("chain128", 100_000))


def timed_kernel() -> list[float]:
    """Make every round call truzz_round through a wrapper that adds its
    time to the returned one-item list. SystemExit where the kernel cannot
    be built or loaded, as then there is no call to time."""
    kernel = mutation._kernel()
    if kernel is None:
        raise SystemExit("mutate.c cannot be built or loaded on this host")
    spent = [0.0]

    def timed(*args):
        start = perf_counter()
        try:
            return kernel(*args)
        finally:
            spent[0] += perf_counter() - start

    mutation._kernel = lambda: timed
    return spent


def breakdown(rng_seed: int, repeats: int, max_execs: int, spent: list[float],
              work: Path) -> tuple[int, float, float]:
    """Executions, wall seconds in ``Campaign.run()`` and seconds in the C
    call, summed over ``repeats`` runs of the set at ``rng_seed``."""
    executions, wall, in_kernel = 0, 0.0, 0.0
    for rep in range(repeats):
        for name, budget in SYNTH_SET:
            corpus = work / f"{rng_seed}-{rep}-{name}"
            spec_path, seed_path = write_bundled(name, corpus / "target")
            (corpus / "seeds_in").mkdir()
            (corpus / "seeds_in" / "seed").write_bytes(Path(seed_path).read_bytes())
            campaign = Campaign(CampaignConfig(
                corpus_dir=str(corpus),
                target_spec=spec_path,
                budget=Budget(max_execs=min(budget, max_execs)),
                scheduler=SchedulerConfig(policy=Policy.TRUZZ),
                mask_enabled=True,
                rng_seed=rng_seed,
            ))
            before = spent[0]
            start = perf_counter()
            stats = campaign.run()
            wall += perf_counter() - start
            in_kernel += spent[0] - before
            executions += stats.executions
    return executions, wall, in_kernel


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 8, 9])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--max-execs", type=int, default=sys.maxsize)
    args = parser.parse_args(argv)
    spent = timed_kernel()
    with tempfile.TemporaryDirectory(prefix="round-breakdown-") as work:
        for rng_seed in args.seeds:
            executions, wall, in_kernel = breakdown(rng_seed, args.repeats, args.max_execs,
                                                    spent, Path(work))
            per_exec, per_call = 1e6 * wall / executions, 1e6 * in_kernel / executions
            print(f"rng seed {rng_seed}: {executions} execs, {per_exec:.3f} us per exec, "
                  f"{per_call:.3f} us per exec in the C call, "
                  f"{per_exec - per_call:.3f} us elsewhere")
    return 0


if __name__ == "__main__":
    sys.exit(main())
