import os
import signal
import sys
import textwrap
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truzz.coverage import MAP_SIZE
from truzz.mutation import Rng, draw_op_count, mutate
from truzz.target import (
    ByteRangeError,
    Check,
    CheckKind,
    CompiledTarget,
    CoverageDumpError,
    ExecStatus,
    MalformedSpecError,
    PredicateKind,
    RegionOverlapError,
    _compile_check,
    execute_external,
    execute_synthetic,
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
        result = execute_synthetic(spec, b"\x00" * 8)
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
        result = execute_synthetic(spec, seed)
        assert len(result.path) == 120
        assert result.valid is True

    def test_failing_gate_traps_in_error_handler(self):
        spec, seed = load_bundled("pipeline")
        result = execute_synthetic(spec, bytes([0x00]) + seed[1:])
        assert result.path == frozenset(range(1000, 1010))
        assert result.valid is False

    def test_non_validation_branch_keeps_input_valid(self):
        spec, seed = load_bundled("pipeline")
        result = execute_synthetic(spec, bytes([seed[0], 0xF0]) + seed[2:])
        assert len(result.path) == 100
        assert result.valid is True

    def test_deterministic(self):
        spec, seed = load_bundled("magic64")
        r1 = execute_synthetic(spec, seed)
        r2 = execute_synthetic(spec, seed)
        assert r1.path == r2.path and r1.valid == r2.valid

    def test_input_truncated_and_padded(self):
        spec, seed = load_bundled("pipeline")
        long_result = execute_synthetic(spec, seed + b"\xff" * 10)
        short_result = execute_synthetic(spec, seed[:2])
        assert long_result.path == execute_synthetic(spec, seed).path
        assert short_result.path == execute_synthetic(spec, seed[:2] + b"\x00\x00").path

    def test_invalid_implies_terminal_fail_region_in_path(self):
        spec, seed = load_bundled("header128")
        result = execute_synthetic(spec, b"\x00" * 128)
        assert result.valid is False
        terminal_fails = [
            set(s.fail_region.edges)
            for s in spec.stages
            if s.fail_region is not None and s.fail_region.terminal
        ]
        assert any(edges <= result.path for edges in terminal_fails)


def oracle_execute(spec, data):
    """Straight-line reference interpreter for small specs."""
    from truzz.target import fit_input

    data = fit_input(data, spec.input_length)
    edges, valid = set(), True
    for stage in spec.stages:
        if stage.check is None or stage.check.passes(data):
            edges |= set(stage.pass_region.edges)
            continue
        if stage.check.kind is CheckKind.VALIDATION:
            valid = False
        if stage.fail_region is not None:
            edges |= set(stage.fail_region.edges)
            if stage.fail_region.terminal:
                break
    return frozenset(edges), valid


@settings(max_examples=200)
@given(st.binary(min_size=0, max_size=8))
def test_execution_matches_reference_interpreter(data):
    spec = parse_spec(TWO_STAGE)
    result = execute_synthetic(spec, data)
    expected_path, expected_valid = oracle_execute(spec, data)
    assert result.path == expected_path
    assert result.valid == expected_valid


@settings(max_examples=100)
@given(st.binary(min_size=0, max_size=520), st.sampled_from(sorted(bundled_names())))
def test_compiled_runner_agrees_with_interpreter(data, name):
    spec, _ = load_bundled(name)
    compiled = CompiledTarget(spec)
    direct = execute_synthetic(spec, data)
    fast = compiled.execute(data)
    assert fast.path == direct.path
    assert fast.valid == direct.valid


def reached_outcomes(spec, data):
    """The outcome of each check execution reaches, in stage order."""
    outcomes = []
    for stage in spec.stages:
        if stage.check is None:
            continue
        ok = stage.check.passes(data)
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
        direct = execute_synthetic(spec, data)
        assert compiled._cache[reached_outcomes(spec, data)] is result
        assert (result.path, result.valid, result.exec_status) == (
            direct.path, direct.valid, ExecStatus.NORMAL)
    assert len(compiled._cache) > 1


@settings(max_examples=300)
@given(
    st.sampled_from([PredicateKind.LT, PredicateKind.IN_RANGE]),
    st.integers(-3, 260),
    st.integers(-3, 260),
    st.binary(min_size=1, max_size=1),
)
def test_compiled_byte_check_agrees_with_passes(predicate, lo, hi, data):
    # Thresholds outside 0..255 are legal in a spec and must compile too.
    check = Check(0, 0, predicate, CheckKind.VALIDATION, lo=lo, hi=hi)
    start, stop, lo_b, hi_b = _compile_check(check)
    assert (lo_b <= data[start:stop] <= hi_b) == check.passes(data)


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


ECHO_TARGET = textwrap.dedent(
    """
    import os, shutil, sys
    shutil.copyfile(sys.argv[1], os.environ['TRUZZ_COV_FILE'])
    """
)


class TestExternalExecution:
    @pytest.fixture()
    def target_script(self, tmp_path):
        script = tmp_path / "target.py"
        script.write_text(DUMP_TARGET)
        return [sys.executable, str(script), "@@"]

    @pytest.fixture()
    def workdir(self, tmp_path):
        path = tmp_path / "work"
        path.mkdir()
        return path

    @pytest.fixture(params=["pidfd", "popen-wait"])
    def wait_path(self, request, monkeypatch):
        """Each wait test runs on the pidfd wait and on the fallback."""
        if request.param == "pidfd" and not hasattr(os, "pidfd_open"):
            pytest.skip("no os.pidfd_open on this platform")
        if request.param == "popen-wait":
            monkeypatch.delattr(os, "pidfd_open", raising=False)
        return request.param

    def test_placeholder_required(self, workdir):
        with pytest.raises(ValueError):
            execute_external([sys.executable, "-c", "pass"], b"x", 5.0, workdir)

    def test_dump_read_as_coverage(self, target_script, workdir):
        result = execute_external(target_script, b"hello", 5.0, workdir)
        assert result.path == {3, 7}
        assert result.exec_status is ExecStatus.NORMAL
        assert result.valid is None

    def test_input_dependent_coverage(self, target_script, workdir):
        result = execute_external(target_script, b"!x", 5.0, workdir)
        assert result.path == {3, 7, 11}

    def test_crash_detected(self, target_script, workdir):
        result = execute_external(target_script, b"CRASH", 5.0, workdir)
        assert result.exec_status is ExecStatus.CRASH

    def test_no_stale_coverage_in_reused_workdir(self, target_script, workdir):
        first = execute_external(target_script, b"!" + b"x" * 63, 5.0, workdir)
        assert first.path == {3, 7, 11}
        # Killed before writing a dump: the earlier dump must not be read.
        second = execute_external(target_script, b"EARLY", 5.0, workdir)
        assert second.exec_status is ExecStatus.CRASH
        assert second.path == frozenset()
        assert (workdir / "input").read_bytes() == b"EARLY"

    def test_timeout_kills_and_reaps(self, tmp_path, workdir, wait_path):
        pid_file = tmp_path / "pid"
        command = ["/bin/sh", "-c", 'echo $$ > "$0"; exec sleep 30', str(pid_file), "@@"]
        start = time.monotonic()
        result = execute_external(command, b"x", 0.3, workdir)
        assert time.monotonic() - start < 5
        assert result.exec_status is ExecStatus.TIMEOUT
        pid = int(pid_file.read_text())
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_wait_survives_signal_storm(self, workdir, wait_path):
        command = ["/bin/sh", "-c", 'sleep 0.2; echo 4 > "$TRUZZ_COV_FILE"', "@@"]
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: None)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.01, 0.01)
            result = execute_external(command, b"x", 5.0, workdir)
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

    def test_last_map_edge_accepted(self, echo_script, workdir):
        result = execute_external(echo_script, f"{MAP_SIZE - 1}\n".encode(), 5.0, workdir)
        assert result.path == {MAP_SIZE - 1}

    @pytest.mark.parametrize("line", [str(MAP_SIZE).encode(), b"seven"])
    def test_bad_dump_line_rejected(self, echo_script, workdir, line):
        with pytest.raises(CoverageDumpError, match="corrupt coverage dump"):
            execute_external(echo_script, b"3\n" + line + b"\n", 5.0, workdir)
