"""Scaffolding shared by the test suite, each piece defined once.

pytest does not collect this module; test modules import it. It holds the
reference implementations ("oracles") that the acceptance gate and the
unit tests both check the package against, the corpus and campaign
builders, and the external target scripts.
"""

import os
import sys
import textwrap
from unittest import mock

import truzz.mutation
import truzz.target
from truzz.byte_analysis import path_fitness, probe_mutate
from truzz.engine import CampaignConfig
from truzz.mutation import Rng, draw_op_count, mutate, mutate_chunks
from truzz.scheduler import dry_run
from truzz.target import CompiledTarget, load_spec
from truzz.targets import bundled_seed, write_bundled

# -- oracles -----------------------------------------------------------------


def paths(n_seed, n_mutant, n_shared):
    """Synthesize disjointly-numbered paths with the requested cardinalities."""
    seed = frozenset(range(n_seed))
    mutant = frozenset(range(n_shared)) | frozenset(
        range(10_000, 10_000 + n_mutant - n_shared)
    )
    assert len(mutant) == n_mutant and len(seed & mutant) == n_shared
    return seed, mutant


def reference_probe_count(seed, seed_path, run, cfg):
    """Probes an independent recursive walk of the interval-halving
    analysis makes on ``seed``."""
    calls = 0

    def walk(lo, hi):
        nonlocal calls
        calls += 1
        f = path_fitness(seed_path, run(probe_mutate(seed, lo, hi)))
        if f < cfg.threshold or hi - lo < cfg.min_interval:
            return
        mid = (lo + hi) // 2
        walk(lo, mid)
        walk(mid + 1, hi)

    size = len(seed) - 1
    walk(0, size // 2)
    walk(size // 2 + 1, size)
    return calls


def greedy_ranks(table):
    """The dry run's greedy set-difference oracle over ``table``'s inputs in
    order: ``(id, data, rank)`` of each input with new edges, ranked by how
    many, and every edge covered."""
    covered, kept = set(), []
    for data, edges in table.items():
        new = edges - covered
        if new:
            kept.append((len(kept), data, len(new)))
        covered |= edges
    return kept, covered


class TruzzPicks:
    """The TRUZZ selection oracle over ``ranks``, indexed by seed id: the
    highest rank, lowest id first; the next id in turn when every rank is
    zero. Assign to ``ranks[i]`` to replace a rank."""

    def __init__(self, ranks):
        self.ranks = list(ranks)
        self._cursor = 0

    def pick(self):
        if max(self.ranks):
            return self.ranks.index(max(self.ranks))
        i = self._cursor % len(self.ranks)
        self._cursor += 1
        return i


def valid_ratio_misreads():
    """Which of the paper's valid-input ratio figures its own counts fail to
    reproduce to within 0.01: 55415 of 1448513 baseline inputs (3.82%),
    526923 of 1448103 with byte protection (36.38%), and the gap between
    them (32.56 percentage points). Empty when the arithmetic holds."""
    baseline = 100 * 55415 / 1448513
    protected = 100 * 526923 / 1448103
    figures = {
        "baseline": (baseline, 3.82),
        "protected": (protected, 36.38),
        "gap": (protected - baseline, 32.56),
    }
    return [name for name, (computed, reported) in figures.items()
            if not abs(computed - reported) < 0.01]


def brute_a12(xs, ys):
    """Quadratic reference implementation of the rank statistic."""
    wins = sum(1 for x in xs for y in ys if x > y)
    ties = sum(1 for x in xs for y in ys if x == y)
    return (wins + 0.5 * ties) / (len(xs) * len(ys))


def vanilla_fifo(spec_path, seeds, budget, energy, rng_seed):
    """A hand-written vanilla greybox loop: FIFO seed order, no mask, one
    child per execution. Returns its corpus."""
    compiled = CompiledTarget(load_spec(spec_path))
    rng = Rng(rng_seed)
    execs = 0

    def run(data):
        nonlocal execs
        execs += 1
        return compiled.run(data).path

    ref = dry_run(seeds, run)
    cursor = 0
    while execs < budget:
        ordered = sorted(ref.entries, key=lambda e: e.id)
        entry = ordered[cursor % len(ordered)]
        cursor += 1
        for _ in range(energy):
            if execs >= budget:
                break
            child = mutate(entry.data, None, rng, draw_op_count(rng))
            ref.retain_if_new(child, run(child))
    return ref


# -- runners -----------------------------------------------------------------


def path_runner(table):
    """Map input bytes -> fixed paths, mimicking a deterministic target."""
    return lambda data: frozenset(table[data])


def spec_runner(spec):
    """Map input bytes -> the path a synthetic target built from ``spec``
    covers on them."""
    compiled = CompiledTarget(spec)
    return lambda data: compiled.run(data).path


# -- rounds ------------------------------------------------------------------


def round_children(seed, mask, rng, n):
    """The ``n`` children ``mutate_chunks`` makes, flattened into a list."""
    length = len(seed)
    return [buffer[start:start + length]
            for buffer, k in mutate_chunks(seed, mask, rng, n)
            for start in range(0, k * length, length)]


def round_record(compiled, seed, mask, rng, n):
    """``compiled.round(seed, mask, rng, n)`` over all its chunks: the code
    of each child's ExecResult in ``compiled``'s cache, the running count
    of valid children from 0, and each first child by its index in the
    round. Each chunk's children are taken before the next chunk."""
    results, valid, firsts = [], [0], {}
    for chunk in compiled.round(seed, mask, rng, n):
        start = len(results)
        results += map(chunk.result, range(chunk.size))
        valid += (valid[start] + chunk.valid[i] - chunk.valid[0]
                  for i in range(1, chunk.size + 1))
        firsts.update((start + i, chunk.child(i)) for i in chunk.firsts)
    code_of = {id(result): code for code, result in compiled._cache.items()}
    return [code_of[id(result)] for result in results], valid, firsts


def composed_round_record(compiled, seed, mask, rng, n):
    """``round_record`` with neither loader of ``mutate.c`` finding it:
    ``mutate`` makes every child and Python scores it."""
    with mock.patch.object(truzz.mutation, "_kernel", lambda: None), \
            mock.patch.object(truzz.target, "_synthetic_round", lambda: None):
        return round_record(compiled, seed, mask, rng, n)


def without_mutate_c(monkeypatch):
    """Make both loaders of ``mutate.c`` find nothing, as on a host with no
    compiler: ``mutate`` makes every child and Python scores it."""
    monkeypatch.setattr(truzz.mutation, "_kernel", lambda: None)
    monkeypatch.setattr(truzz.target, "_synthetic_round", lambda: None)


def many_checks_spec(n):
    """A spec of ``n`` one-byte checks on a 64-byte input, which an input
    of 64 zero bytes passes: check j is a VALIDATION one for odd j, and
    terminal too where j % 3 == 1."""
    stages = []
    for j in range(n):
        kind = "VALIDATION" if j % 2 else "NON_VALIDATION"
        terminal = "true" if j % 3 == 1 else "false"
        stages.append(
            f"[stage.s{j}]\ncheck.bytes = {j}\ncheck.predicate = LT 0x40\n"
            f"check.kind = {kind}\npass.base = {10 * j}\npass.edges = 2\n"
            f"fail.base = {10 * j + 5}\nfail.edges = 1\n"
            + (f"fail.terminal = {terminal}\n" if kind == "VALIDATION" else "")
        )
    return "input_length = 64\n" + "".join(stages)


# -- external target scripts -------------------------------------------------

# Covers edges 3 and 7, and 11 on an input starting with '!'; killed before
# its dump on 'EARLY...' and after it on 'CRASH...'.
DUMP_TARGET = textwrap.dedent(
    """
    import os, sys
    data = open(sys.argv[1], 'rb').read()
    if data.startswith(b'EARLY'):
        os.kill(os.getpid(), 9)
    with open(os.environ['TRUZZ_COV_FILE'], 'w') as fh:
        fh.write('3\\n7\\n')
        if data.startswith(b'!'):
            fh.write('11\\n')
    if data.startswith(b'CRASH'):
        os.kill(os.getpid(), 9)
    """
)


# Dumps its input, verbatim, as its coverage.
ECHO_TARGET = textwrap.dedent(
    """
    import os, shutil, sys
    shutil.copyfile(sys.argv[1], os.environ['TRUZZ_COV_FILE'])
    """
)


# Dumps the descriptors it was started with.
FD_TARGET = textwrap.dedent(
    """
    import os
    # The lowest free descriptor; listdir's directory handle takes it.
    own = os.open(os.devnull, os.O_RDONLY)
    os.close(own)
    fds = [name for name in os.listdir('/proc/self/fd') if int(name) != own]
    with open(os.environ['TRUZZ_COV_FILE'], 'w') as fh:
        fh.write('\\n'.join(fds) + '\\n')
    """
)


# Covers edge 0, edge 1 if it sees the variable that enters a fork server,
# and edge 2 if it sees LD_PRELOAD.
ENV_TARGET = textwrap.dedent(
    """
    import os
    with open(os.environ['TRUZZ_COV_FILE'], 'w') as fh:
        fh.write('0\\n')
        if 'TRUZZ_FORK_SERVER' in os.environ:
            fh.write('1\\n')
        if 'LD_PRELOAD' in os.environ:
            fh.write('2\\n')
    """
)


# A C target, for building statically, run as ``prog MARKER @@``: the run
# that creates the file MARKER dumps edge 9; every later run kills itself
# before its dump.
ONCE_TARGET_C = r"""
#include <fcntl.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <unistd.h>

int main(int argc, char **argv) {
    if (argc < 2 || open(argv[1], O_WRONLY | O_CREAT | O_EXCL, 0600) < 0) raise(SIGKILL);
    FILE *fh = fopen(getenv("TRUZZ_COV_FILE"), "w");
    fputs("9\n", fh);
    return fclose(fh) != 0;
}
"""


# Covers edges 1 and 2, and 5 on an odd first byte; crashes on a second
# byte of 0xff.
CRASHY_TARGET = textwrap.dedent(
    """
    import os, sys
    data = open(sys.argv[1], 'rb').read()
    with open(os.environ['TRUZZ_COV_FILE'], 'w') as fh:
        fh.write('1\\n2\\n')
        if data and data[0] % 2:
            fh.write('5\\n')
    if len(data) > 1 and data[1] == 0xff:
        os.kill(os.getpid(), 9)
    """
)


# CRASHY_TARGET's coverage without its crash, from a target that appends its pid
# to ``pids`` beside it and exits normally without a dump on any input but the seed
# while a ``no-dump`` file is there.
PID_TARGET = textwrap.dedent(
    """
    import os, sys
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, 'pids'), 'a') as fh:
        fh.write(f'{os.getpid()}\\n')
    data = open(sys.argv[1], 'rb').read()
    if data != bytes(8) and os.path.exists(os.path.join(here, 'no-dump')):
        sys.exit(0)
    with open(os.environ['TRUZZ_COV_FILE'], 'w') as fh:
        fh.write('1\\n2\\n')
        if data and data[0] % 2:
            fh.write('5\\n')
    """
)


# -- corpora and campaigns ---------------------------------------------------


def write_seeds(corpus, seeds):
    """Make ``corpus`` with ``seeds`` in its seeds_in/ as seed_00, seed_01,
    ...; return it."""
    seeds_in = corpus / "seeds_in"
    seeds_in.mkdir(parents=True)
    for i, data in enumerate(seeds):
        (seeds_in / f"seed_{i:02d}").write_bytes(data)
    return corpus


def make_corpus(tmp_path, name, label="c", seeds=None):
    """Write bundled target ``name``'s spec under ``tmp_path/target`` and a
    corpus ``tmp_path/label`` seeded with ``seeds``, by default the bundled
    seed; return the spec's path and the corpus."""
    spec_path, _ = write_bundled(name, tmp_path / "target")
    return spec_path, write_seeds(tmp_path / label, seeds or [bundled_seed(name)])


def many_checks(tmp_path, n, label):
    """``many_checks_spec(n)`` written to a file, and a corpus
    ``tmp_path/label`` seeded with an input that passes every check;
    return the spec's path and the corpus."""
    spec_path = tmp_path / "checks.tspec"
    spec_path.write_text(many_checks_spec(n))
    return str(spec_path), write_seeds(tmp_path / label, [bytes(64)])


def external_config(tmp_path, label="c", seeds=(bytes(8),), script=CRASHY_TARGET, **kw):
    """A campaign on ``script``, written to ``tmp_path/target.py`` and run
    by this interpreter, over a corpus ``tmp_path/label`` seeded with
    ``seeds``."""
    script_path = tmp_path / "target.py"
    script_path.write_text(script)
    return CampaignConfig(
        corpus_dir=str(write_seeds(tmp_path / label, seeds)),
        command=[sys.executable, str(script_path), "@@"],
        **kw,
    )


def exited(pid):
    """Whether process ``pid`` has exited: it is gone, or a zombie whose
    parent has yet to reap it, as a fork server that died is until its
    ``ExternalTarget`` is closed."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


def open_fd_count():
    """Descriptors open in this process, the listing's own included."""
    return len(os.listdir("/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"))
