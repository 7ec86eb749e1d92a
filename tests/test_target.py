import errno
import math
import os
import pathlib
import re
import select
import signal
import stat
import subprocess
import sys
import tempfile
import textwrap
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from harness import (
    DUMP_TARGET,
    ECHO_TARGET,
    ENV_TARGET,
    FD_TARGET,
    ONCE_TARGET_C,
    exited,
    many_checks_spec,
    open_fd_count,
    round_children,
)

import truzz.native
import truzz.target
from truzz.coverage import MAP_SIZE
from truzz.mutation import Rng, draw_op_count, mutate
from truzz.target import (
    CODE_SHIFT,
    MAX_TIMEOUT,
    ByteRangeError,
    Check,
    CheckKind,
    CompiledTarget,
    CoverageDumpError,
    ExecStatus,
    ExternalTarget,
    ForkServerError,
    MalformedSpecError,
    PredicateKind,
    Region,
    RegionOverlapError,
    SpawnError,
    Stage,
    TargetSpec,
    _compile_check,
    execute_external,
    fit_input,
    parse_spec,
)
from truzz.targets import bundled_names, load_bundled

TWO_STAGE = textwrap.dedent(
    """
    input_length = 5

    [stage.gate]
    check.bytes = 0
    check.predicate = EQ 61
    check.kind = VALIDATION
    pass.base = 0
    pass.edges = 4
    fail.base = 100
    fail.edges = 2
    fail.terminal = true

    [stage.branch]
    check.bytes = 1
    check.predicate = LT 128
    check.kind = NON_VALIDATION
    pass.base = 10
    pass.edges = 3
    fail.base = 20
    fail.edges = 3
    """
)


class TestParseSpec:
    def test_two_stage_spec(self):
        spec = parse_spec(TWO_STAGE)
        assert len(spec.stages) == 2
        gate, branch = spec.stages
        assert gate.check.kind is CheckKind.VALIDATION
        assert gate.check.predicate is PredicateKind.EQ
        assert gate.fail_region.terminal
        assert branch.check.kind is CheckKind.NON_VALIDATION
        assert branch.check.predicate is PredicateKind.LT

    def test_zero_stage_spec(self):
        spec = parse_spec("input_length = 8\n")
        result = CompiledTarget(spec).run(b"\x00" * 8)
        assert result.path == frozenset()
        assert result.valid is True

    def test_overlapping_regions_rejected(self):
        bad = TWO_STAGE.replace("pass.base = 10", "pass.base = 2")
        with pytest.raises(RegionOverlapError, match="branch"):
            parse_spec(bad)

    def test_region_past_map_end_rejected(self):
        # The branch stage's fail region has 3 edges.
        at_end = TWO_STAGE.replace("fail.base = 20", f"fail.base = {MAP_SIZE - 3}")
        assert parse_spec(at_end).stages[1].fail_region.edge_base == MAP_SIZE - 3
        past_end = TWO_STAGE.replace("fail.base = 20", f"fail.base = {MAP_SIZE - 2}")
        with pytest.raises(RegionOverlapError, match="branch"):
            parse_spec(past_end)

    def test_byte_index_out_of_range(self):
        bad = TWO_STAGE.replace("check.bytes = 1", "check.bytes = 9")
        with pytest.raises(ByteRangeError, match="branch"):
            parse_spec(bad)

    def test_unknown_key_rejected(self):
        bad = TWO_STAGE + "\nweird.key = 1\n"
        with pytest.raises(MalformedSpecError):
            parse_spec(bad)

    def test_eq_constant_length_must_match_range(self):
        bad = TWO_STAGE.replace("EQ 61", "EQ 61 62")
        with pytest.raises(MalformedSpecError, match="gate"):
            parse_spec(bad)

    def test_terminal_fail_requires_validation_kind(self):
        bad = TWO_STAGE + "fail.terminal = true\n"
        with pytest.raises(MalformedSpecError, match="branch"):
            parse_spec(bad)

    def test_missing_input_length(self):
        with pytest.raises(MalformedSpecError, match="input_length"):
            parse_spec("[stage.a]\npass.base = 0\npass.edges = 1\n")

    def test_zero_input_length_rejected(self):
        with pytest.raises(MalformedSpecError, match="input_length"):
            parse_spec("input_length = 0\n")


class TestSyntheticExecution:
    def test_passing_input_covers_full_pipeline(self):
        spec, seed = load_bundled("pipeline")
        result = CompiledTarget(spec).run(seed)
        assert len(result.path) == 120
        assert result.valid is True

    def test_failing_gate_traps_in_error_handler(self):
        spec, seed = load_bundled("pipeline")
        result = CompiledTarget(spec).run(bytes([0x00]) + seed[1:])
        assert result.path == frozenset(range(1000, 1010))
        assert result.valid is False

    def test_non_validation_branch_keeps_input_valid(self):
        spec, seed = load_bundled("pipeline")
        result = CompiledTarget(spec).run(bytes([seed[0], 0xF0]) + seed[2:])
        assert len(result.path) == 100
        assert result.valid is True

    def test_deterministic(self):
        spec, seed = load_bundled("magic64")
        r1 = CompiledTarget(spec).run(seed)
        r2 = CompiledTarget(spec).run(seed)
        assert r1.path == r2.path and r1.valid == r2.valid

    def test_input_truncated_and_padded(self):
        spec, seed = load_bundled("pipeline")
        long_result = CompiledTarget(spec).run(seed + b"\xff" * 10)
        short_result = CompiledTarget(spec).run(seed[:2])
        assert long_result.path == CompiledTarget(spec).run(seed).path
        assert short_result.path == CompiledTarget(spec).run(seed[:2] + b"\x00\x00").path

    def test_invalid_implies_terminal_fail_region_in_path(self):
        spec, seed = load_bundled("header128")
        result = CompiledTarget(spec).run(b"\x00" * 128)
        assert result.valid is False
        terminal_fails = [
            set(s.fail_region.edges)
            for s in spec.stages
            if s.fail_region is not None and s.fail_region.terminal
        ]
        assert any(edges <= result.path for edges in terminal_fails)


def oracle_passes(check, data):
    """Reference statement of a check: EQ compares the whole range with the
    constant; LT and IN_RANGE test only the range's first byte."""
    if check.predicate is PredicateKind.EQ:
        return data[check.start : check.end + 1] == check.constant
    first = data[check.start]
    if check.predicate is PredicateKind.LT:
        return first < check.lo
    return check.lo <= first <= check.hi


def oracle_execute(spec, data):
    """Straight-line reference interpreter, built from no package code."""
    n = spec.input_length
    data = bytes(data[:n]).ljust(n, b"\0")
    edges, valid = set(), True
    for stage in spec.stages:
        if stage.check is None or oracle_passes(stage.check, data):
            edges |= set(stage.pass_region.edges)
            continue
        if stage.check.kind is CheckKind.VALIDATION:
            valid = False
        if stage.fail_region is not None:
            edges |= set(stage.fail_region.edges)
            if stage.fail_region.terminal:
                break
    return frozenset(edges), valid


def spec_and_seed(name):
    """A bundled target and its seed, or TWO_STAGE and an input that passes
    its gate."""
    if name == "TWO_STAGE":
        return parse_spec(TWO_STAGE), b"a\0\0\0\0"
    return load_bundled(name)


@settings(max_examples=200)
@given(
    st.sampled_from(["TWO_STAGE", *sorted(bundled_names())]),
    st.binary(min_size=0, max_size=520),
    st.dictionaries(st.integers(0, 511), st.integers(0, 255), max_size=8),
)
def test_execution_matches_reference_interpreter(name, data, edits):
    # Random bytes fail early checks; a seed with a few bytes changed
    # passes most checks and fails some.
    spec, seed = spec_and_seed(name)
    mutant = bytearray(seed)
    for i, value in edits.items():
        if i < len(mutant):
            mutant[i] = value
    compiled = CompiledTarget(spec)
    for candidate in (data, bytes(mutant)):
        result = compiled.run(candidate)
        assert (result.path, result.valid) == oracle_execute(spec, candidate)


def reached_outcomes(spec, data):
    """The outcome of each check execution reaches, in stage order."""
    outcomes = []
    for stage in spec.stages:
        if stage.check is None:
            continue
        ok = oracle_passes(stage.check, data)
        outcomes.append(ok)
        if not ok and stage.fail_region is not None and stage.fail_region.terminal:
            break
    return tuple(outcomes)


@pytest.mark.parametrize("name", sorted(bundled_names()))
def test_compiled_runner_agrees_on_mutants_of_the_seed(name):
    # Mutants of a passing seed pass and fail every check, unlike random bytes.
    spec, seed = load_bundled(name)
    compiled = CompiledTarget(spec)
    rng = Rng(len(seed))
    for _ in range(3_000):
        data = mutate(seed, None, rng, draw_op_count(rng))
        result = compiled.run(data)
        assert compiled._cache[outcome_code(reached_outcomes(spec, data))] is result
        assert (result.path, result.valid) == oracle_execute(spec, data)
        assert result.exec_status is ExecStatus.NORMAL
    assert len(compiled._cache) > 1


@st.composite
def check_and_input(draw):
    """A check and an input long enough for it. LT and IN_RANGE thresholds
    outside 0..255 are legal in a spec and must compile too. EQ constants
    of 1 to 4 bytes and their inputs share a three-byte alphabet, so a
    range often equals its constant."""
    if draw(st.booleans()):
        predicate = draw(st.sampled_from([PredicateKind.LT, PredicateKind.IN_RANGE]))
        lo, hi = draw(st.integers(-3, 260)), draw(st.integers(-3, 260))
        check = Check(0, 0, predicate, CheckKind.VALIDATION, lo=lo, hi=hi)
        return check, draw(st.binary(min_size=1, max_size=1))

    def few_bytes(lo, hi):
        return st.lists(st.sampled_from([0x00, 0x01, 0xFF]), min_size=lo, max_size=hi).map(bytes)

    start = draw(st.integers(0, 2))
    constant = draw(few_bytes(1, 4))
    end = start + len(constant) - 1
    check = Check(start, end, PredicateKind.EQ, CheckKind.VALIDATION, constant=constant)
    return check, draw(few_bytes(end + 1, end + 3))


@settings(max_examples=300)
@given(check_and_input())
def test_compiled_byte_check_agrees_with_passes(check_with_input):
    check, data = check_with_input
    start, stop, lo_b, hi_b = _compile_check(check)
    assert (lo_b <= data[start:stop] <= hi_b) == oracle_passes(check, data)


def scores(compiled, children):
    """The codes and running valid counts ``compiled.score`` gives
    ``children``, all of one length, passed in one buffer: by the C scorer
    where ``mutate.c`` loads and the checks fit its table, and by Python."""
    args = b"".join(children), len(children[0]), len(children)
    with mock.patch.object(truzz.target, "_score_round", lambda: None):
        by_python = compiled.score(*args)
    return compiled.score(*args), by_python


def outcome_code(outcome, shift=CODE_SHIFT):
    return sum(ok << j for j, ok in enumerate(outcome)) | len(outcome) << shift


@pytest.mark.parametrize("name", [*sorted(bundled_names()), "checks-30"])
def test_round_codes_map_to_the_results_run_returns(name):
    """Each of 3000 kernel mutants, of the seed and of seeds shorter and
    longer than the input, is scored by both scorers to the code of the
    checks it reaches, which maps to the oracle's result and is the very
    ExecResult ``run`` returns for it, and the running valid count is
    ``run``'s. A spec of 30 checks has its reached count at bit 30."""
    if name == "checks-30":
        spec, seed = parse_spec(many_checks_spec(30)), bytes(64)
    else:
        spec, seed = load_bundled(name)
    compiled = CompiledTarget(spec)
    shift = max(CODE_SHIFT, len(compiled._ops))
    assert (compiled._table is None) == (name == "checks-30")
    rng = Rng(len(seed))
    for data in (seed, seed[: len(seed) // 2], seed + b"\x7f" * 5):
        children = round_children(data, None, rng, 1_000)
        for codes, valid in scores(compiled, children):
            assert len(codes) == len(children) and valid[0] == 0
            for i, child in enumerate(children):
                result = compiled.run(child)
                outcome = reached_outcomes(spec, fit_input(child, spec.input_length))
                assert codes[i] == outcome_code(outcome, shift)
                assert compiled.result_of(codes[i]) is result
                assert (result.path, result.valid) == oracle_execute(spec, child)
                assert valid[i + 1] == valid[i] + result.valid
    assert len(compiled._cache) > 1


@settings(max_examples=300)
@given(check_and_input())
def test_scored_check_agrees_with_passes(check_with_input):
    """Both scorers compare bytes as ``_compile_check``'s slices do,
    thresholds outside 0..255 and multi-byte EQ constants included, alone
    and as the last of 30 checks, after 29 that every input passes."""
    check, data = check_with_input
    passed = oracle_passes(check, data)
    always = Check(0, 0, PredicateKind.IN_RANGE, CheckKind.NON_VALIDATION, lo=0, hi=255)
    stages = [Stage(f"s{j}", always, Region(2 * j + 2, 1), Region(2 * j + 3, 1))
              for j in range(29)]
    for before in ([], stages):
        stage = Stage("s", check, Region(0, 1), Region(1, 1))
        compiled = CompiledTarget(TargetSpec(len(data), (*before, stage)))
        outcome = (True,) * len(before) + (passed,)
        for codes, valid in scores(compiled, [data]):
            assert codes[0] == outcome_code(outcome, max(CODE_SHIFT, len(outcome)))
            assert valid[1] == passed


@st.composite
def generated_specs(draw):
    """A spec of 0 to 30 stages in any order, each with no check or a
    one-byte LT check of any threshold, VALIDATION or not, with no fail
    region, a fail region or, VALIDATION only, a terminal one. So check-less
    stages come before the first check, between checks, after a terminal
    one and at the tail. Regions of 1 to 3 edges start 4 apart."""
    input_length = draw(st.integers(1, 8))
    bases = iter(range(0, MAP_SIZE, 4))
    stages = []
    for j in range(draw(st.integers(0, 30))):
        pass_region = Region(next(bases), draw(st.integers(1, 3)))
        if draw(st.booleans()):
            stages.append(Stage(f"s{j}", None, pass_region))
            continue
        kind = draw(st.sampled_from(CheckKind))
        at = draw(st.integers(0, input_length - 1))
        check = Check(at, at, PredicateKind.LT, kind, lo=draw(st.integers(0, 256)))
        fails = ["none", "fail"] + ["terminal"] * (kind is CheckKind.VALIDATION)
        fail = draw(st.sampled_from(fails))
        fail_region = None if fail == "none" else Region(
            next(bases), draw(st.integers(1, 3)), terminal=fail == "terminal")
        stages.append(Stage(f"s{j}", check, pass_region, fail_region))
    return TargetSpec(input_length, tuple(stages))


@settings(max_examples=300, deadline=None)
@given(generated_specs(), st.data())
def test_generated_specs_run_and_score_as_the_reference_interpreter(spec, data):
    """On children shorter than, as long as and longer than the input,
    ``run`` gives the oracle's result, and each scorer's code for a child
    maps to the very ExecResult ``run`` returns for it."""
    length = data.draw(st.integers(1, spec.input_length + 4))
    children = data.draw(st.lists(st.binary(min_size=length, max_size=length),
                                  min_size=1, max_size=6))
    compiled = CompiledTarget(spec)
    results = [compiled.run(child) for child in children]
    for child, result in zip(children, results):
        assert (result.path, result.valid) == oracle_execute(spec, child)
    for codes, valid in scores(compiled, children):
        for i, result in enumerate(results):
            assert compiled.result_of(codes[i]) is result
            assert valid[i + 1] == valid[i] + result.valid


def test_run_pads_an_input_only_as_far_as_the_checks_read():
    """A short input of a spec whose input is 100 MB long is padded to the
    one byte its check reads, not to the input length."""
    check = Check(0, 0, PredicateKind.LT, CheckKind.VALIDATION, lo=0x40)
    spec = TargetSpec(100_000_000, (Stage("s", check, Region(0, 1), Region(1, 1)),))
    compiled = CompiledTarget(spec)
    tracemalloc.start()
    try:
        results = [compiled.run(data) for data in (b"", b"\xff" * 64)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert [(r.path, r.valid) for r in results] == [({0}, True), ({1}, False)]


def run_external(command, data, timeout=5.0):
    """One input through an ExternalTarget made and closed for it."""
    with ExternalTarget(command, timeout) as target:
        return execute_external(target, data)


class TestExternalExecution:
    @pytest.fixture()
    def target_script(self, tmp_path):
        script = tmp_path / "target.py"
        script.write_text(DUMP_TARGET)
        return [sys.executable, str(script), "@@"]

    @pytest.fixture(params=["fork-server", "pidfd", "waitpid-poll", "pidfd-refused"])
    def wait_path(self, request, monkeypatch):
        """Each wait test runs under fork servers, and with a process
        spawned per run on each of that launch's waits: the pidfd wait, the
        fallback where ``os.pidfd_open`` does not exist, and the fallback
        where the kernel refuses it (ENOSYS before Linux 5.3)."""
        if request.param == "fork-server":
            if truzz.target._fork_server_shim() is None:
                pytest.skip("no fork-server shim on this host")
            return request.param
        monkeypatch.setattr(truzz.target, "_fork_server_shim", lambda: None)
        if request.param == "pidfd" and not hasattr(os, "pidfd_open"):
            pytest.skip("no os.pidfd_open on this platform")
        if request.param == "waitpid-poll":
            monkeypatch.delattr(os, "pidfd_open", raising=False)
        if request.param == "pidfd-refused":

            def refuse(pid, flags=0):
                raise OSError(errno.ENOSYS, os.strerror(errno.ENOSYS))

            monkeypatch.setattr(os, "pidfd_open", refuse, raising=False)
        return request.param

    def test_placeholder_required(self):
        with pytest.raises(ValueError):
            ExternalTarget([sys.executable, "-c", "pass"], 5.0)

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf")])
    def test_timeout_must_be_positive_and_finite(self, target_script, timeout, tmp_path,
                                                 monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(ValueError, match="timeout must be a positive"):
            ExternalTarget(target_script, timeout)
        assert list(tmp_path.glob("truzz-exec-*")) == []

    @pytest.mark.parametrize("timeout", [1e30, math.nextafter(MAX_TIMEOUT, math.inf)])
    def test_timeout_beyond_poll_limit_refused(self, target_script, timeout, tmp_path,
                                               monkeypatch):
        """``poll`` waits at most 2**31 - 1 ms; a longer timeout is refused
        when the target is made, not by an OverflowError at each exec."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(ValueError, match=re.escape(str(MAX_TIMEOUT))):
            ExternalTarget(target_script, timeout)
        assert list(tmp_path.glob("truzz-exec-*")) == []

    @pytest.mark.parametrize("timeout", [MAX_TIMEOUT, math.nextafter(MAX_TIMEOUT, 0)])
    def test_timeout_at_poll_limit_runs(self, target_script, timeout, tmp_path,
                                        monkeypatch, wait_path):
        assert MAX_TIMEOUT * 1000 == 2**31 - 1
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        result = run_external(target_script, b"hello", timeout=timeout)
        assert result.exec_status is ExecStatus.NORMAL
        assert result.path == {3, 7}
        assert list(tmp_path.glob("truzz-exec-*")) == []

    def test_dump_read_as_coverage(self, target_script):
        result = run_external(target_script, b"hello")
        assert result.path == {3, 7}
        assert result.exec_status is ExecStatus.NORMAL
        assert result.valid is None

    def test_input_dependent_coverage(self, target_script):
        result = run_external(target_script, b"!x")
        assert result.path == {3, 7, 11}

    def test_crash_detected(self, target_script):
        result = run_external(target_script, b"CRASH")
        assert result.exec_status is ExecStatus.CRASH

    def test_no_stale_coverage_in_reused_workdir(self, target_script):
        with ExternalTarget(target_script, 5.0) as target:
            first = execute_external(target, b"!" + b"x" * 63)
            assert first.path == {3, 7, 11}
            # A lone call runs in slot 0.
            input_path = target.slots[0].input_path
            inode = os.stat(input_path).st_ino
            # Killed before writing a dump: the earlier dump must not be read.
            second = execute_external(target, b"EARLY")
            assert second.exec_status is ExecStatus.CRASH
            assert second.path == frozenset()
            # Rewritten in place: the same file, holding exactly the shorter input.
            assert os.stat(input_path).st_ino == inode
            with open(input_path, "rb") as fh:
                assert fh.read() == b"EARLY"

    def test_target_sees_only_stdio(self, tmp_path):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd on this platform")
        script = tmp_path / "fds.py"
        script.write_text(FD_TARGET)
        extra = os.open(os.devnull, os.O_RDONLY)
        try:
            os.set_inheritable(extra, True)
            with ExternalTarget([sys.executable, str(script), "@@"], 5.0) as target:
                # One child per slot, the second spawned while the first runs.
                second = b"y"
                results = [execute_external(target, b"x", then=second),
                           execute_external(target, second)]
                executor_fds = {slot.input_fd for slot in target.slots}
                executor_fds.add(target._devnull_fd)
        finally:
            os.close(extra)
        assert len(executor_fds) == 3
        for result in results:
            assert result.exec_status is ExecStatus.NORMAL
            assert {1, 2} <= result.path <= {0, 1, 2}
            assert not ({extra} | executor_fds) & result.path

    @pytest.mark.parametrize("kind", ["missing", "not-executable"])
    def test_spawn_error_names_binary(self, tmp_path, kind):
        binary = tmp_path / "prog"
        if kind == "not-executable":
            binary.write_text("#!/bin/sh\nexit 0\n")
            binary.chmod(0o644)
        before = open_fd_count()
        with pytest.raises(SpawnError, match=re.escape(repr(str(binary)))):
            run_external([str(binary), "@@"], b"x")
        assert open_fd_count() == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_timeout_kills_and_reaps(self, tmp_path, wait_path):
        pid_file = tmp_path / "pid"
        command = ["/bin/sh", "-c", 'echo $$ > "$0"; exec sleep 30', str(pid_file), "@@"]
        start = time.monotonic()
        result = run_external(command, b"x", timeout=0.3)
        assert time.monotonic() - start < 5
        assert result.exec_status is ExecStatus.TIMEOUT
        pid = int(pid_file.read_text())
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_interrupt_kills_and_reaps(self, tmp_path, wait_path):
        pid_file = tmp_path / "pid"
        command = ["/bin/sh", "-c", 'echo $$ > "$0"; exec sleep 30', str(pid_file), "@@"]

        class Interrupt(Exception):
            pass

        def interrupt(signum, frame):
            raise Interrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            with ExternalTarget(command, 5.0) as target:
                signal.setitimer(signal.ITIMER_REAL, 0.1)
                with pytest.raises(Interrupt):
                    execute_external(target, b"x")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        pid = int(pid_file.read_text())
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_each_child_timed_from_its_own_spawn(self, wait_path):
        """``then`` is spawned before the wait for ``data``; its timeout
        counts from that spawn, not from the start of its own wait."""
        command = ["/bin/sh", "-c",
                   'if [ "$(cat "$1")" = slow ]; then sleep 0.6; echo 4 > "$TRUZZ_COV_FILE";'
                   ' else exec sleep 30; fi', "sh", "@@"]
        hang = b"hang"
        with ExternalTarget(command, 1.0) as target:
            start = time.monotonic()
            slow = execute_external(target, b"slow", then=hang)
            hung = execute_external(target, hang)
            elapsed = time.monotonic() - start
        assert slow.exec_status is ExecStatus.NORMAL and slow.path == {4}
        assert hung.exec_status is ExecStatus.TIMEOUT
        # About 1.0 s; a timeout counted from the second wait would take 1.6 s.
        assert elapsed < 1.4
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_run_ended_before_its_deadline_claimed_late(self, wait_path):
        """A run that ended before its deadline is no timeout, however long
        after the deadline it is claimed: a run times out only if it is
        still going when its wait reaches the deadline."""
        command = ["/bin/sh", "-c",
                   'if [ "$(cat "$1")" = slow ]; then sleep 0.5; echo 4 > "$TRUZZ_COV_FILE";'
                   ' else echo 5 > "$TRUZZ_COV_FILE"; fi', "sh", "@@"]
        fast = b"fast"
        with ExternalTarget(command, 1.0) as target:
            start = time.monotonic()
            slow = execute_external(target, b"slow", then=fast)
            time.sleep(max(1.2 - (time.monotonic() - start), 0.0))  # past fast's deadline
            late = execute_external(target, fast)
        assert slow.exec_status is ExecStatus.NORMAL and slow.path == {4}
        assert late.exec_status is ExecStatus.NORMAL and late.path == {5}

    def test_unclaimed_child_discarded(self, tmp_path, wait_path):
        """A started child that the next call does not ask for is killed and
        reaped, and the next input runs in its place."""
        pid_file = tmp_path / "pid"
        command = ["/bin/sh", "-c",
                   'case "$(cat "$1")" in'
                   ' hang) echo $$ > "$0"; exec sleep 30;;'
                   ' slow) sleep 0.3; echo 4 > "$TRUZZ_COV_FILE";;'
                   ' *) echo 5 > "$TRUZZ_COV_FILE";; esac', str(pid_file), "@@"]
        with ExternalTarget(command, 5.0) as target:
            first = execute_external(target, b"slow", then=b"hang")
            # Slow enough for the hanging child to record its pid.
            assert first.path == {4}
            pid = int(pid_file.read_text())
            os.kill(pid, 0)
            other = execute_external(target, b"other")
            assert other.exec_status is ExecStatus.NORMAL and other.path == {5}
            # Discarded, not left to run in the other slot.
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
            if wait_path == "fork-server":  # the live servers are this process's children
                assert os.waitpid(-1, os.WNOHANG) == (0, 0)
            else:
                with pytest.raises(ChildProcessError):
                    os.waitpid(-1, os.WNOHANG)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_wait_survives_signal_storm(self, wait_path):
        command = ["/bin/sh", "-c", 'sleep 0.2; echo 4 > "$TRUZZ_COV_FILE"', "@@"]
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: None)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.01, 0.01)
            result = run_external(command, b"x")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert result.exec_status is ExecStatus.NORMAL
        assert result.path == {4}

    @pytest.fixture()
    def echo_script(self, tmp_path):
        """A target whose coverage dump is its input, verbatim."""
        script = tmp_path / "echo.py"
        script.write_text(ECHO_TARGET)
        return [sys.executable, str(script), "@@"]

    def test_last_map_edge_accepted(self, echo_script):
        result = run_external(echo_script, f"{MAP_SIZE - 1}\n".encode())
        assert result.path == {MAP_SIZE - 1}

    @pytest.mark.parametrize("line", [str(MAP_SIZE).encode(), b"seven", b"-1", b"1 2"])
    def test_bad_dump_line_rejected(self, echo_script, line):
        with pytest.raises(CoverageDumpError, match="corrupt coverage dump"):
            run_external(echo_script, b"3\n" + line + b"\n")


def wait_for_pid(pid_file):
    """The pid a target wrote to ``pid_file``, once it is there."""
    deadline = time.monotonic() + 5
    while not pid_file.exists() or not pid_file.read_text().endswith("\n"):
        assert time.monotonic() < deadline, f"no pid in {pid_file}"
        time.sleep(0.01)
    return int(pid_file.read_text())


class TestForkServer:
    @pytest.fixture(autouse=True)
    def shim(self):
        shim = truzz.target._fork_server_shim()
        if shim is None:
            pytest.skip("no fork-server shim on this host")
        return shim

    @pytest.fixture()
    def hang_command(self, tmp_path):
        """A target that records its pid and hangs on input ``hang``, and
        dumps edge 5 on any other."""
        return ["/bin/sh", "-c",
                'if [ "$(cat "$1")" = hang ]; then echo $$ > "$0"; exec sleep 30; fi;'
                ' echo 5 > "$TRUZZ_COV_FILE"', str(tmp_path / "pid"), "@@"]

    def test_each_slot_runs_under_its_own_server(self, tmp_path):
        script = tmp_path / "target.py"
        script.write_text(DUMP_TARGET)
        with ExternalTarget([sys.executable, str(script), "@@"], 5.0) as target:
            first = execute_external(target, b"!x", then=b"CRASH")
            second = execute_external(target, b"CRASH")
            servers = [slot.server_pid for slot in target.slots]
        assert first.path == {3, 7, 11} and first.exec_status is ExecStatus.NORMAL
        assert second.path == {3, 7} and second.exec_status is ExecStatus.CRASH
        assert all(servers) and len(set(servers)) == 2
        for pid in servers:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("preload", [False, True])
    def test_target_sees_no_marker_and_its_own_preload(self, tmp_path, monkeypatch, shim,
                                                        preload):
        """The shim restores the LD_PRELOAD the target was given, if any,
        and unsets the variable that entered the server."""
        if preload:
            monkeypatch.setenv("LD_PRELOAD", os.fsdecode(shim))
        else:
            monkeypatch.delenv("LD_PRELOAD", raising=False)
        script = tmp_path / "env.py"
        script.write_text(ENV_TARGET)
        with ExternalTarget([sys.executable, str(script), "@@"], 5.0) as target:
            result = execute_external(target, b"x")
            assert target.slots[0].server_pid
        assert result.path == ({0, 2} if preload else {0})

    def test_server_killed_between_runs_is_named(self, hang_command):
        before = open_fd_count()
        with ExternalTarget(hang_command, 5.0) as target:
            assert execute_external(target, b"x").path == {5}
            server = target.slots[0].server_pid
            os.kill(server, signal.SIGKILL)
            deadline = time.monotonic() + 5
            while not exited(server):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            with pytest.raises(ForkServerError, match=re.escape(repr(hang_command[0]))):
                execute_external(target, b"x")
        assert open_fd_count() == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_server_killed_mid_run_is_named_at_once(self, tmp_path, hang_command):
        """A server that dies while its child runs is a ForkServerError as
        soon as the run is claimed, not at the run's deadline, and its
        child dies with it."""
        hang = b"hang"
        with ExternalTarget(hang_command, 30.0) as target:
            assert execute_external(target, b"x", then=hang).path == {5}
            child = wait_for_pid(tmp_path / "pid")
            os.kill(target.slots[1].server_pid, signal.SIGKILL)
            start = time.monotonic()
            with pytest.raises(ForkServerError, match=re.escape(repr(hang_command[0]))):
                execute_external(target, hang)
            assert time.monotonic() - start < 5
        deadline = time.monotonic() + 5
        while not exited(child):  # orphaned, it may be left a zombie for a while
            assert time.monotonic() < deadline
            time.sleep(0.01)

    def test_interrupt_kills_child_and_server(self, tmp_path, hang_command):
        class Interrupt(Exception):
            pass

        def interrupt(signum, frame):
            raise Interrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            with ExternalTarget(hang_command, 5.0) as target:
                signal.setitimer(signal.ITIMER_REAL, 0.3)
                with pytest.raises(Interrupt):
                    execute_external(target, b"hang")
                server = target.slots[0].server_pid
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ProcessLookupError):
            os.kill(wait_for_pid(tmp_path / "pid"), 0)
        assert server
        with pytest.raises(ProcessLookupError):
            os.kill(server, 0)

    def test_closed_control_pipe_ends_server_and_child(self, tmp_path, hang_command):
        """A server whose control pipe closes, as it does when truzz dies
        without ``close``, kills and reaps its child and exits."""
        with ExternalTarget(hang_command, 30.0) as target:
            assert execute_external(target, b"x", then=b"hang").path == {5}
            child = wait_for_pid(tmp_path / "pid")
            slot = target.slots[1]
            os.close(slot.control_fd)
            slot.control_fd = -1
            # The server is the last writer of its status pipe.
            poller = select.poll()
            poller.register(slot.status_fd, select.POLLIN)
            assert poller.poll(5000)
            assert os.read(slot.status_fd, 64) == b""
            with pytest.raises(ProcessLookupError):
                os.kill(child, 0)
            # A dying process closes its files before it becomes a zombie.
            deadline = time.monotonic() + 5
            while not exited(slot.server_pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert exited(slot.server_pid)

    def test_server_reaped_where_this_process_reaps_orphans(self):
        """A process that reaps orphans (PID 1, or a subreaper as here) is
        left nothing to reap: ``close`` reaps the servers, its children, and
        each server reaps its own children before it exits."""
        code = textwrap.dedent(
            """
            import ctypes, os
            from truzz.target import ExternalTarget, execute_external
            prctl = ctypes.CDLL(None, use_errno=True).prctl
            prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
            prctl.restype = ctypes.c_int
            PR_SET_CHILD_SUBREAPER = 36
            if prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
                raise OSError(ctypes.get_errno(), "prctl")
            command = ['/bin/sh', '-c', 'echo 4 > "$TRUZZ_COV_FILE"', '@@']
            with ExternalTarget(command, 5.0) as target:
                assert execute_external(target, b'x', then=b'y').path == {4}
                assert execute_external(target, b'y').path == {4}
                assert all(slot.server_pid for slot in target.slots)
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                print('reaped')
            """
        )
        src = os.path.dirname(os.path.dirname(truzz.target.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == ["reaped"]

    def test_static_target_falls_back_to_spawn(self, tmp_path):
        """A target the shim cannot enter runs through posix_spawn. Its
        handshake run, which dumped edge 9, is reaped and its dump deleted,
        so a later run that dies before its dump reports an empty path."""
        source = tmp_path / "once.c"
        source.write_text(ONCE_TARGET_C)
        binary = tmp_path / "once"
        try:
            built = subprocess.run(["cc", "-static", "-o", str(binary), str(source)],
                                   capture_output=True, timeout=120).returncode == 0
        except OSError:
            built = False
        if not built:
            pytest.skip("cc -static does not work on this host")
        marker = tmp_path / "ran"
        with ExternalTarget([str(binary), str(marker), "@@"], 5.0) as target:
            result = execute_external(target, b"x", then=b"y")
            assert [slot.server_pid for slot in target.slots] == [0, 0]
            assert marker.exists()
            assert execute_external(target, b"y").exec_status is ExecStatus.CRASH
        assert result.exec_status is ExecStatus.CRASH and result.path == frozenset()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestShimCache:
    @pytest.fixture()
    def cache(self, tmp_path, monkeypatch):
        """A fresh, empty cache root; the shim's directory in it."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        return tmp_path / "xdg" / "truzz"

    def test_built_once_then_found_without_a_subprocess(self, cache, monkeypatch):
        shim = truzz.target._fork_server_shim()
        if shim is None:
            pytest.skip("no C compiler on this host")
        assert [p.name for p in cache.iterdir()] == [os.path.basename(os.fsdecode(shim))]
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700

        def refuse(*args, **kwargs):
            raise AssertionError("a cache hit ran a subprocess")

        monkeypatch.setattr(subprocess, "Popen", refuse)
        assert truzz.target._fork_server_shim() == shim

    @pytest.mark.parametrize("compilers", [(), ("false",)])
    def test_no_working_compiler_spawns(self, cache, monkeypatch, compilers):
        monkeypatch.setattr(truzz.native, "COMPILERS", compilers)
        assert truzz.target._fork_server_shim() is None
        # A failed build leaves no temporary file behind.
        assert list(cache.iterdir()) == []
        with ExternalTarget(["/bin/sh", "-c", 'echo 4 > "$TRUZZ_COV_FILE"', "@@"],
                            5.0) as target:
            assert execute_external(target, b"x").path == {4}
            assert [slot.server_pid for slot in target.slots] == [0, 0]

    def test_build_deletes_other_shims(self, cache):
        """A build deletes the other versions' shims, but no temporary file
        of a build in progress; a cache hit deletes nothing."""
        cache.mkdir(parents=True, mode=0o700)
        stale = cache / f"forkserver-{'0' * 64}.so"
        building = cache / ".forkserver-x1y2z3"
        stale.write_bytes(b"old")
        building.write_bytes(b"")
        shim = truzz.target._fork_server_shim()
        if shim is None:
            pytest.skip("no C compiler on this host")
        name = os.path.basename(os.fsdecode(shim))
        assert sorted(p.name for p in cache.iterdir()) == [building.name, name]
        stale.write_bytes(b"old")
        assert truzz.target._fork_server_shim() == shim
        assert stale.exists()

    def test_each_library_build_leaves_the_other(self, cache, monkeypatch):
        """The shim and the mutation kernel share the cache: a build deletes
        only stale files of its own library, and once both are built,
        finding either runs no subprocess."""
        cache.mkdir(parents=True, mode=0o700)
        for stem in ("forkserver", "mutate"):
            (cache / f"{stem}-{'0' * 64}.so").write_bytes(b"old")
        shim = truzz.native.library("forkserver")
        if shim is None:
            pytest.skip("no C compiler on this host")
        names = {os.path.basename(os.fsdecode(shim)), f"mutate-{'0' * 64}.so"}
        assert {p.name for p in cache.iterdir()} == names
        kernel = truzz.native.library("mutate")
        names = {os.path.basename(os.fsdecode(path)) for path in (shim, kernel)}
        assert {p.name for p in cache.iterdir()} == names

        def refuse(*args, **kwargs):
            raise AssertionError("a cache hit ran a subprocess")

        monkeypatch.setattr(subprocess, "Popen", refuse)
        assert truzz.native.library("forkserver") == shim
        assert truzz.native.library("mutate") == kernel

    @pytest.mark.parametrize("where", ["directory", "file"])
    def test_writable_cache_refused(self, cache, where):
        shim = truzz.target._fork_server_shim()
        if shim is None:
            pytest.skip("no C compiler on this host")
        path = cache if where == "directory" else pathlib.Path(os.fsdecode(shim))
        path.chmod(stat.S_IMODE(path.stat().st_mode) | 0o020)
        assert truzz.target._fork_server_shim() is None
