"""Command-line surface: fuzz, analyze, replay, and report subcommands."""

from __future__ import annotations

import argparse
import shlex
import sys
from pathlib import Path as FsPath

from .byte_analysis import AnalysisConfig, AnalysisError, analyze, mask_from_fitness
from .engine import Budget, CampaignConfig, replay, run_campaign
from .report import STATS_COLUMNS, StatsSchemaError, a12, collect_final_metric, compare_campaigns
from .scheduler import CampaignError, Policy, SchedulerConfig
from .target import CompiledTarget, ExternalTargetError, TargetSpecError, load_spec


def _add_target_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", help="synthetic target spec file (.tspec)")
    group.add_argument(
        "--cmd",
        help="external target command line containing one @@ placeholder",
    )


def _add_analysis_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threshold", type=float, default=AnalysisConfig.threshold)
    p.add_argument("--min-interval", type=int, default=AnalysisConfig.min_interval)
    p.add_argument("--lp", type=float, default=AnalysisConfig.prob_floor,
                   help="mutation probability floor")


def _analysis_config(args: argparse.Namespace) -> AnalysisConfig:
    return AnalysisConfig(
        threshold=args.threshold,
        min_interval=args.min_interval,
        prob_floor=args.lp,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="truzz",
        description="Coverage-guided fuzzer with validation-byte protection "
        "and new-edge seed prioritization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="run a campaign")
    _add_target_args(fuzz)
    fuzz.add_argument("--corpus", required=True, help="corpus directory")
    fuzz.add_argument("--budget-execs", type=int, default=None)
    fuzz.add_argument("--budget-secs", type=float, default=None)
    fuzz.add_argument("--energy", type=int, default=SchedulerConfig.energy)
    fuzz.add_argument("--policy", choices=[p.value for p in Policy],
                      default=SchedulerConfig.policy.value)
    fuzz.add_argument("--mask", choices=["on", "off"],
                      default="on" if CampaignConfig.mask_enabled else "off")
    _add_analysis_args(fuzz)
    fuzz.add_argument("--rng-seed", type=int, default=CampaignConfig.rng_seed)
    fuzz.add_argument("--stats-interval", type=int, default=CampaignConfig.stats_interval)

    ana = sub.add_parser("analyze", help="fitness/probability arrays for one seed")
    ana.add_argument("--target", required=True)
    _add_analysis_args(ana)
    ana.add_argument("seed", help="seed file")

    rep = sub.add_parser("replay", help="re-execute one input and report")
    _add_target_args(rep)
    rep.add_argument("--corpus", default=None, help="corpus dir for novelty check")
    rep.add_argument("--show-path", action="store_true")
    rep.add_argument("input", help="input file")

    report = sub.add_parser("report", help="post-campaign analysis")
    report_sub = report.add_subparsers(dest="report_command", required=True)

    comp = report_sub.add_parser("compare", help="compare two stats CSVs")
    comp.add_argument("stats_a")
    comp.add_argument("stats_b")

    a12p = report_sub.add_parser(
        "a12", help="effect size between two directories of repeated runs"
    )
    a12p.add_argument("--metric", choices=STATS_COLUMNS, default="edges_covered")
    a12p.add_argument("dir_a")
    a12p.add_argument("dir_b")

    return parser


def _cmd_fuzz(args: argparse.Namespace) -> int:
    try:
        budget_kw = {}
        if args.budget_execs is not None or args.budget_secs is not None:
            budget_kw["budget"] = Budget(args.budget_execs, args.budget_secs)
        cfg = CampaignConfig(
            corpus_dir=args.corpus,
            target_spec=args.target,
            command=shlex.split(args.cmd) if args.cmd else None,
            **budget_kw,
            scheduler=SchedulerConfig(energy=args.energy, policy=Policy(args.policy)),
            analysis=_analysis_config(args),
            mask_enabled=args.mask == "on",
            rng_seed=args.rng_seed,
            stats_interval=args.stats_interval,
        )
    except ValueError as exc:
        # A malformed setting is reported before the corpus is touched.
        sys.exit(f"truzz fuzz: {exc}")
    stats = run_campaign(cfg)
    print(
        f"executions={stats.executions} seeds={stats.seeds} "
        f"edges_covered={stats.edges_covered} valid={stats.valid_count} "
        f"invalid={stats.invalid_count} crashes={stats.crashes}"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        cfg = _analysis_config(args)
    except ValueError as exc:
        sys.exit(f"truzz analyze: {exc}")
    spec = load_spec(args.target)
    seed = FsPath(args.seed).read_bytes()
    if not seed:
        sys.exit(f"truzz analyze: seed {args.seed} is empty")
    compiled = CompiledTarget(spec)
    seed_path = compiled.execute(seed).path
    if not seed_path:
        sys.exit(f"truzz analyze: seed {args.seed} covers no edges")
    fm = analyze(seed, seed_path, lambda d: compiled.execute(d).path, cfg)
    mask = mask_from_fitness(fm, cfg)
    print("fitness:     " + " ".join(f"{v:.4f}" for v in fm.values))
    print("probability: " + " ".join(f"{v:.4f}" for v in mask.probability))
    print(f"probe_count: {fm.probe_count}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    rep = replay(
        args.input,
        target_spec=args.target,
        command=shlex.split(args.cmd) if args.cmd else None,
        corpus_dir=args.corpus,
        show_path=args.show_path,
    )
    print(rep.render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.report_command == "compare":
        print(compare_campaigns(args.stats_a, args.stats_b).render())
        return 0
    sample_a = collect_final_metric(args.dir_a, args.metric)
    sample_b = collect_final_metric(args.dir_b, args.metric)
    result = a12(sample_a, sample_b)
    print(f"a12={result.score:.4f} magnitude={result.magnitude.value}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "fuzz": _cmd_fuzz,
        "analyze": _cmd_analyze,
        "replay": _cmd_replay,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (TargetSpecError, CampaignError, ExternalTargetError, AnalysisError,
            StatsSchemaError, FileNotFoundError) as exc:
        # A named failure, or a missing input file, is one line.
        sys.exit(f"truzz {args.command}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
