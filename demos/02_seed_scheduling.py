#!/usr/bin/env python3
"""Walkthrough: ranking seeds by the new edges they contribute.

A dry run executes every initial seed and keeps only those that add edges
over the coverage accumulated so far; each keeper's rank is its new-edge
count. During fuzzing the top-ranked seed is selected, and after its round
the rank is replaced by the number of edges the round actually discovered,
so stale seeds sink and productive ones stay on top.
"""

from truzz import CompiledTarget, Policy, dry_run
from truzz.targets import load_bundled


def main():
    spec, good_seed = load_bundled("pipeline")
    compiled = CompiledTarget(spec)

    # Three initial seeds with very different coverage profiles:
    seeds = [
        bytes(4),                      # fails the gate: small error path
        good_seed,                     # passes everything: 120 edges
        good_seed[:1] + b"\xf0\x00\x00",  # passes gate, takes the other branch
    ]

    corpus = dry_run(seeds, lambda data: compiled.run(data).path)
    print("dry run results (rank = new edges at retention time):")
    for entry in corpus.entries:
        print(
            f"  seed {entry.id}: {entry.data.hex()}  "
            f"path={len(entry.path):3d} edges  rank={entry.rank_key}"
        )
    print(f"overall coverage: {corpus.edges_covered} edges")
    print()

    top = corpus.select_seed(Policy.TRUZZ)
    print(f"selected for fuzzing: seed {top.id} (highest rank, {top.rank_key})")

    # Pretend its round found only 2 new edges: the rank is *replaced*.
    corpus.update_rank(top, 2)
    print(f"after an unproductive round its rank drops to {top.rank_key}")
    nxt = corpus.select_seed(Policy.TRUZZ)
    print(f"next selection moves on to seed {nxt.id} (rank {nxt.rank_key})")


if __name__ == "__main__":
    main()
