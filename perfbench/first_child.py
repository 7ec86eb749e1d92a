"""Set up one campaign in a fresh process and stop where its first mutated
child is made; print ``time.perf_counter()`` at that point.

The parent reads the clock just before starting this process. On Linux
``perf_counter`` is the system-wide monotonic clock, so the difference is
the set-up time: interpreter start, ``import truzz``, loading the target,
the dry run and, under the mask, the first seed's byte analysis.

The campaign's budget is one execution per initial seed plus one, so it
ends with at most one mutated child (none when the analysis probes have
used up the budget) and the corpus write that closes every campaign. Only
the budget's documented meaning is relied on, so the probe keeps working
when the fuzz loop is rewritten.

Usage: python3 first_child.py CONFIG_JSON, where the JSON holds ``src``,
``corpus_dir``, ``target_spec`` or ``command``, ``policy``, ``mask`` and
``rng_seed``. The corpus directory must hold ``seeds_in/``.
"""

import json
import os
import sys
import time

cfg = json.loads(sys.argv[1])
sys.path.insert(0, cfg["src"])

from truzz.engine import Budget, Campaign, CampaignConfig  # noqa: E402
from truzz.scheduler import Policy, SchedulerConfig  # noqa: E402

n_seeds = len(os.listdir(os.path.join(cfg["corpus_dir"], "seeds_in")))
campaign = Campaign(
    CampaignConfig(
        corpus_dir=cfg["corpus_dir"],
        target_spec=cfg.get("target_spec"),
        command=cfg.get("command"),
        budget=Budget(max_execs=n_seeds + 1),
        scheduler=SchedulerConfig(policy=Policy(cfg["policy"])),
        mask_enabled=cfg["mask"],
        rng_seed=cfg["rng_seed"],
    )
)
stats = campaign.run()
done = time.perf_counter()
if stats.mutation_execs > 1:
    sys.exit(f"expected at most one mutated child, got {stats.mutation_execs}")
print(repr(done))
