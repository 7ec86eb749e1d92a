"""Correctness checks on a finished campaign's outputs, and ground truth
for scoring byte analysis, both computed from outside the package.

Every check returns a list of mismatch descriptions; an empty list means
the campaign's outputs are consistent. Each mismatch counts as one failed
operation in the benchmark's result.
"""

from __future__ import annotations

from pathlib import Path

from errors import MissingEntryPointError
from truzz import engine, target
from truzz.report import read_stats


def reference_run(spec, data: bytes) -> tuple[frozenset, bool]:
    """Walk ``spec``'s stages independently of truzz: (path, valid).

    Kept apart from the package's own interpreters so that it stays an
    oracle when those are merged or rewritten.
    """
    n = spec.input_length
    data = bytes(data[:n]).ljust(n, b"\x00")
    edges: set[int] = set()
    valid = True
    for stage in spec.stages:
        check = stage.check
        if check is None or _passes(check, data):
            edges.update(_edges(stage.pass_region))
            continue
        if check.kind.value == "VALIDATION":
            valid = False
        if stage.fail_region is not None:
            edges.update(_edges(stage.fail_region))
            if stage.fail_region.terminal:
                break
    return frozenset(edges), valid


def _passes(check, data: bytes) -> bool:
    predicate = check.predicate.value
    if predicate == "EQ":
        return data[check.start : check.end + 1] == check.constant
    if predicate == "LT":
        return data[check.start] < check.lo
    return check.lo <= data[check.start] <= check.hi


def _edges(region) -> range:
    return range(region.edge_base, region.edge_base + region.edge_count)


def spec_edges(spec) -> set[int]:
    """Every edge id that lies in a pass or fail region of ``spec``."""
    out: set[int] = set()
    for stage in spec.stages:
        out.update(_edges(stage.pass_region))
        if stage.fail_region is not None:
            out.update(_edges(stage.fail_region))
    return out


def read_meta(path: Path) -> dict[str, str]:
    fields = {}
    for line in path.read_text(encoding="ascii").splitlines():
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    return fields


def check_campaign(corpus_dir, stats, budget: int, spec, command=None) -> list[str]:
    """Check one campaign's corpus directory against its returned stats.

    ``spec`` is the synthetic target, or for an external ``command`` the
    spec whose layout the external harness follows.
    """
    corpus_dir = Path(corpus_dir)
    problems: list[str] = []
    if command is None and not hasattr(target, "execute_synthetic"):
        raise MissingEntryPointError("truzz.target:execute_synthetic, the reference interpreter "
                                     "queue entries are replayed through, is not defined")

    final = read_stats(corpus_dir / "stats.csv")[-1]
    got = (final.elapsed_s, final.executions, final.seeds, final.edges_covered,
           final.valid, final.invalid, final.crashes)
    want = (float(f"{stats.elapsed:.6f}"), stats.executions, stats.seeds,
            stats.edges_covered, stats.valid_count, stats.invalid_count, stats.crashes)
    if got != want:
        problems.append(f"stats.csv final row {got} != returned stats {want}")

    phases = stats.dry_run_execs + stats.probe_execs + stats.mutation_execs
    if phases != stats.executions:
        problems.append(f"phase executions {phases} != executions {stats.executions}")

    metas = sorted((corpus_dir / "meta").glob("id_*.meta"))
    queue = sorted((corpus_dir / "queue").glob("id_*"))
    if [m.name[: -len(".meta")] for m in metas] != [q.name for q in queue]:
        problems.append("queue and meta entries differ")
    if len(queue) != stats.seeds:
        problems.append(f"{len(queue)} queue entries != {stats.seeds} seeds")

    # Mutation stops exactly at the budget; the analysis of a seed selected
    # just before it may overshoot by that analysis's probes.
    max_probes = 0
    compiled = None if command else target.CompiledTarget(spec)
    for meta_path, seed_path in zip(metas, queue):
        meta = read_meta(meta_path)
        max_probes = max(max_probes, int(meta.get("probe_count", "0")))
        size = int(meta["path_size"])
        if command:
            try:
                replayed = engine.replay(str(seed_path), command=command).path_size
            except target.ExternalTargetError as exc:
                problems.append(f"{seed_path.name}: replay failed: {exc}")
                continue
            if replayed != size or replayed == 0:
                problems.append(f"{seed_path.name}: replay path size {replayed}, meta {size}")
            continue
        data = seed_path.read_bytes()
        result = compiled.execute(data)
        ref = target.execute_synthetic(spec, data)
        for path, valid in (reference_run(spec, data), (ref.path, ref.valid)):
            if (result.path, result.valid) != (path, valid):
                problems.append(f"{seed_path.name}: compiled run disagrees with reference")
        if len(result.path) != size:
            problems.append(f"{seed_path.name}: path size {len(result.path)}, meta {size}")
    if not budget <= stats.executions <= budget + max_probes:
        problems.append(f"executions {stats.executions} outside budget {budget} (+{max_probes} probes)")

    covered = {
        int(line)
        for line in (corpus_dir / "overall.cov").read_text(encoding="ascii").split()
    }
    if len(covered) != stats.edges_covered:
        problems.append(f"overall.cov has {len(covered)} edges, stats {stats.edges_covered}")
    stray = covered - spec_edges(spec)
    if stray:
        problems.append(f"overall.cov edges outside the spec's regions: {sorted(stray)[:5]}")
    return problems


def analysis_truth(spec, path) -> set[int]:
    """Bytes read by VALIDATION checks that an execution of ``path`` reaches.

    A check counts as reached when its pass or fail region intersects the
    path.
    """
    truth: set[int] = set()
    for stage in spec.stages:
        check = stage.check
        if check is None or check.kind.value != "VALIDATION":
            continue
        regions = [stage.pass_region]
        if stage.fail_region is not None:
            regions.append(stage.fail_region)
        if any(not path.isdisjoint(_edges(r)) for r in regions):
            truth.update(range(check.start, check.end + 1))
    return truth


def score_analysis(entries, spec, threshold: float) -> dict[str, float]:
    """Pooled confusion counts of flagged bytes against VALIDATION bytes.

    A byte is flagged when its fitness is at least ``threshold``.
    """
    tp = fp = fn = 0
    prob_sum = 0.0
    prob_n = 0
    for entry in entries:
        analysis = entry.analysis
        if analysis is None:
            continue
        flagged = {i for i, f in enumerate(analysis.fitness.values) if f >= threshold}
        truth = analysis_truth(spec, entry.path)
        tp += len(flagged & truth)
        fp += len(flagged - truth)
        fn += len(truth - flagged)
        prob_sum += sum(analysis.mask.probability)
        prob_n += len(analysis.mask.probability)
    return {"tp": tp, "fp": fp, "fn": fn, "prob_sum": prob_sum, "prob_n": prob_n}
