#!/usr/bin/env python3
"""Walkthrough: finding validation-related bytes by watching path transitions.

The bundled ``four_byte_magic`` target reads a 4-byte input and compares the
last byte against a magic constant. Mutating that byte traps execution in a
short error handler; mutating any other byte leaves the path intact. The
interval-halving analysis turns that observable difference into a per-byte
fitness score and a mutation mask.
"""

from truzz import AnalysisConfig, CompiledTarget, analyze, mask_from_fitness
from truzz.targets import bundled_seed, load_bundled


def main():
    spec, seed = load_bundled("four_byte_magic")
    compiled = CompiledTarget(spec)
    run = lambda data: compiled.run(data).path

    seed_path = run(seed)
    print(f"seed bytes:     {seed.hex()}  ({seed!r})")
    print(f"seed path size: {len(seed_path)} edges, valid input")
    print()

    # What happens when we flip each byte individually?
    for i in range(len(seed)):
        mutant = bytes(b ^ 0xFF if j == i else b for j, b in enumerate(seed))
        n = len(run(mutant))
        verdict = (
            f"collapses to {n} edges -- validation byte!"
            if n < len(seed_path)
            else f"stays at {n} edges, no effect"
        )
        print(f"flip byte {i}: path {verdict}")
    print()

    cfg = AnalysisConfig()  # threshold 0.5, probability floor 0.05
    fitness = analyze(seed, seed_path, run, cfg)
    mask = mask_from_fitness(fitness, cfg)

    print(f"probes spent:   {fitness.probe_count}")
    print("byte  fitness  mutation probability")
    for i, (f, p) in enumerate(zip(fitness.values, mask.probability)):
        tag = "  <- protected" if f >= cfg.threshold else ""
        print(f"  {i}   {f:.4f}   {p:.4f}{tag}")
    print()
    print(
        "The mask keeps byte 3 almost untouched during mutation, so most\n"
        "children still pass the magic check and exercise deep code."
    )


if __name__ == "__main__":
    main()
