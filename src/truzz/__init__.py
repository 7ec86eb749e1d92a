"""Coverage-guided greybox fuzzing with validation-byte protection and
new-edge seed prioritization.

The framework watches path transitions: mutating a byte that feeds a
validation check collapses the execution path into a short error handler,
which is both detectable (per-byte fitness via interval halving) and
actionable (a mutation mask that protects those bytes, plus a seed ranking
that prefers inputs opening large new code regions).

The names below are the short-hand entry points; everything else is
imported from its submodule.
"""

from .byte_analysis import AnalysisConfig, analyze, mask_from_fitness
from .engine import Budget, CampaignConfig, run_campaign
from .report import a12, compare_campaigns
from .scheduler import Policy, SchedulerConfig, dry_run
from .target import CompiledTarget

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "Budget",
    "CampaignConfig",
    "CompiledTarget",
    "Policy",
    "SchedulerConfig",
    "a12",
    "analyze",
    "compare_campaigns",
    "dry_run",
    "mask_from_fitness",
    "run_campaign",
]
