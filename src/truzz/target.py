"""Targets under test: declarative synthetic programs and external binaries.

A synthetic target is described by a small key/value document (see
``docs/target-spec.md``). It models a program as an ordered list of stages;
a stage may carry a check over input bytes. Failing a validation check
routes execution into a short error-handling region and (if terminal)
stops it, which is exactly the shape the byte-analysis pass looks for.
Synthetic execution is deterministic and reports a validity verdict,
serving as the ground-truth oracle that real campaigns obtain by marking
error handlers by hand.
"""

from __future__ import annotations

import enum
import os
import select
import subprocess
from dataclasses import dataclass
from typing import Optional, Sequence

from .coverage import MAP_SIZE, Path

COVERAGE_FILE_ENV = "TRUZZ_COV_FILE"
INPUT_PLACEHOLDER = "@@"


class TargetSpecError(ValueError):
    """Base class for synthetic target specification errors."""

    def __init__(self, message: str, stage: Optional[str] = None):
        self.stage = stage
        if stage is not None:
            message = f"stage {stage!r}: {message}"
        super().__init__(message)


class MalformedSpecError(TargetSpecError):
    """Document does not follow the spec grammar."""


class RegionOverlapError(TargetSpecError):
    """Two regions claim overlapping edge-identifier intervals."""


class ByteRangeError(TargetSpecError):
    """A check references byte indices outside the input."""


class ExternalTargetError(RuntimeError):
    """Base class for external-executor failures."""


class SpawnError(ExternalTargetError):
    """Target process could not be started."""


class CoverageDumpError(ExternalTargetError):
    """Coverage dump file missing or unparsable after a normal exit."""


class CheckKind(enum.Enum):
    VALIDATION = "VALIDATION"
    NON_VALIDATION = "NON_VALIDATION"


class PredicateKind(enum.Enum):
    EQ = "EQ"
    LT = "LT"
    IN_RANGE = "IN_RANGE"


class ExecStatus(enum.Enum):
    NORMAL = "NORMAL"
    CRASH = "CRASH"
    TIMEOUT = "TIMEOUT"


@dataclass(frozen=True)
class Check:
    """Byte predicate guarding a stage.

    ``start``/``end`` are inclusive indices. EQ compares the whole range
    against a constant; LT and IN_RANGE test only the first byte of the
    range.
    """

    start: int
    end: int
    predicate: PredicateKind
    kind: CheckKind
    constant: bytes = b""  # EQ only
    lo: int = 0            # LT threshold / IN_RANGE lower bound
    hi: int = 0            # IN_RANGE upper bound

    def passes(self, data: bytes) -> bool:
        if self.predicate is PredicateKind.EQ:
            return data[self.start : self.end + 1] == self.constant
        first = data[self.start]
        if self.predicate is PredicateKind.LT:
            return first < self.lo
        return self.lo <= first <= self.hi


@dataclass(frozen=True)
class Region:
    """A run of consecutive edge identifiers emitted when traversed."""

    edge_base: int
    edge_count: int
    terminal: bool = False

    @property
    def edges(self) -> range:
        return range(self.edge_base, self.edge_base + self.edge_count)


@dataclass(frozen=True)
class Stage:
    id: str
    check: Optional[Check]
    pass_region: Region
    fail_region: Optional[Region] = None


@dataclass(frozen=True)
class TargetSpec:
    input_length: int
    stages: tuple[Stage, ...]


@dataclass(frozen=True, slots=True)
class ExecResult:
    """Outcome of one execution, the one result every executor returns.

    ``valid`` is defined only for synthetic targets: True iff every
    validation check reached was passed. ``path`` is the covered edge set.
    """

    path: Path
    exec_status: ExecStatus
    valid: Optional[bool] = None


# ---------------------------------------------------------------------------
# Spec document parsing
# ---------------------------------------------------------------------------

_TOP_KEYS = {"input_length"}
_STAGE_KEYS = {
    "check.bytes",
    "check.predicate",
    "check.kind",
    "pass.edges",
    "pass.base",
    "fail.edges",
    "fail.base",
    "fail.terminal",
}


def _parse_int(value: str, what: str, stage: Optional[str]) -> int:
    try:
        return int(value, 0)
    except ValueError:
        raise MalformedSpecError(f"{what} is not an integer: {value!r}", stage) from None


def _parse_byte_range(value: str, stage: str) -> tuple[int, int]:
    if "-" in value:
        lo_s, _, hi_s = value.partition("-")
        lo = _parse_int(lo_s.strip(), "check.bytes start", stage)
        hi = _parse_int(hi_s.strip(), "check.bytes end", stage)
    else:
        lo = hi = _parse_int(value, "check.bytes", stage)
    if lo > hi:
        raise MalformedSpecError(f"check.bytes start > end: {value!r}", stage)
    return lo, hi


def _parse_predicate(value: str, start: int, end: int, stage: str):
    parts = value.split()
    if not parts:
        raise MalformedSpecError("empty check.predicate", stage)
    name = parts[0].upper()
    args = parts[1:]
    if name == "EQ":
        try:
            constant = bytes(int(tok, 16) for tok in args)
        except ValueError:
            raise MalformedSpecError(
                f"EQ constant must be hex bytes: {value!r}", stage
            ) from None
        if len(constant) != end - start + 1:
            raise MalformedSpecError(
                f"EQ constant length {len(constant)} does not match byte range "
                f"[{start}, {end}]",
                stage,
            )
        return PredicateKind.EQ, constant, 0, 0
    if name == "LT":
        if len(args) != 1:
            raise MalformedSpecError("LT takes one threshold argument", stage)
        return PredicateKind.LT, b"", _parse_int(args[0], "LT threshold", stage), 0
    if name == "IN_RANGE":
        if len(args) != 2:
            raise MalformedSpecError("IN_RANGE takes lo and hi arguments", stage)
        lo = _parse_int(args[0], "IN_RANGE lo", stage)
        hi = _parse_int(args[1], "IN_RANGE hi", stage)
        if lo > hi:
            raise MalformedSpecError(f"IN_RANGE lo > hi: {value!r}", stage)
        return PredicateKind.IN_RANGE, b"", lo, hi
    raise MalformedSpecError(f"unknown predicate {name!r}", stage)


def _build_stage(stage_id: str, keys: dict[str, str], input_length: int) -> Stage:
    unknown = set(keys) - _STAGE_KEYS
    if unknown:
        raise MalformedSpecError(f"unknown keys: {sorted(unknown)}", stage_id)

    check = None
    check_keys = {k for k in keys if k.startswith("check.")}
    if check_keys:
        missing = {"check.bytes", "check.predicate", "check.kind"} - check_keys
        if missing:
            raise MalformedSpecError(f"missing keys: {sorted(missing)}", stage_id)
        start, end = _parse_byte_range(keys["check.bytes"], stage_id)
        if start < 0 or end >= input_length:
            raise ByteRangeError(
                f"check.bytes [{start}, {end}] outside input of length {input_length}",
                stage_id,
            )
        predicate, constant, lo, hi = _parse_predicate(
            keys["check.predicate"], start, end, stage_id
        )
        kind_s = keys["check.kind"].strip().upper()
        try:
            kind = CheckKind(kind_s)
        except ValueError:
            raise MalformedSpecError(f"unknown check.kind {kind_s!r}", stage_id) from None
        check = Check(start, end, predicate, kind, constant, lo, hi)

    if "pass.base" not in keys or "pass.edges" not in keys:
        raise MalformedSpecError("pass.base and pass.edges are required", stage_id)
    pass_region = Region(
        _parse_int(keys["pass.base"], "pass.base", stage_id),
        _parse_int(keys["pass.edges"], "pass.edges", stage_id),
    )
    if pass_region.edge_count <= 0:
        raise MalformedSpecError("pass.edges must be positive", stage_id)

    fail_region = None
    fail_keys = {k for k in keys if k.startswith("fail.")}
    if fail_keys:
        if check is None:
            raise MalformedSpecError("fail.* keys require a check", stage_id)
        if "fail.base" not in keys or "fail.edges" not in keys:
            raise MalformedSpecError("fail.base and fail.edges are required", stage_id)
        terminal = keys.get("fail.terminal", "false").strip().lower()
        if terminal not in ("true", "false"):
            raise MalformedSpecError(
                f"fail.terminal must be true or false, got {terminal!r}", stage_id
            )
        fail_region = Region(
            _parse_int(keys["fail.base"], "fail.base", stage_id),
            _parse_int(keys["fail.edges"], "fail.edges", stage_id),
            terminal == "true",
        )
        if fail_region.edge_count <= 0:
            raise MalformedSpecError("fail.edges must be positive", stage_id)
        if fail_region.terminal and check.kind is CheckKind.NON_VALIDATION:
            raise MalformedSpecError(
                "non-validation checks cannot have a terminal fail region", stage_id
            )
    return Stage(stage_id, check, pass_region, fail_region)


def parse_spec(text: str) -> TargetSpec:
    """Parse a synthetic target document.

    Raises MalformedSpecError, ByteRangeError or RegionOverlapError with the
    offending stage named.
    """
    top: dict[str, str] = {}
    stage_order: list[str] = []
    stage_keys: dict[str, dict[str, str]] = {}
    current: Optional[str] = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise MalformedSpecError(f"line {lineno}: unterminated section header")
            section = line[1:-1].strip()
            if not section.startswith("stage."):
                raise MalformedSpecError(f"line {lineno}: unknown section [{section}]")
            current = section[len("stage.") :]
            if not current:
                raise MalformedSpecError(f"line {lineno}: empty stage id")
            if current in stage_keys:
                raise MalformedSpecError("duplicate stage section", current)
            stage_order.append(current)
            stage_keys[current] = {}
            continue
        if "=" not in line:
            raise MalformedSpecError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if current is None:
            if key not in _TOP_KEYS:
                raise MalformedSpecError(f"line {lineno}: unknown top-level key {key!r}")
            top[key] = value
        else:
            if key in stage_keys[current]:
                raise MalformedSpecError(f"duplicate key {key!r}", current)
            stage_keys[current][key] = value

    if "input_length" not in top:
        raise MalformedSpecError("missing input_length")
    input_length = _parse_int(top["input_length"], "input_length", None)
    if input_length < 1:
        raise MalformedSpecError(f"input_length must be >= 1, got {input_length}")

    stages = tuple(
        _build_stage(sid, stage_keys[sid], input_length) for sid in stage_order
    )

    claimed: list[tuple[int, int, str]] = []
    for stage in stages:
        regions = [stage.pass_region]
        if stage.fail_region is not None:
            regions.append(stage.fail_region)
        for region in regions:
            lo, hi = region.edge_base, region.edge_base + region.edge_count
            if lo < 0 or hi > MAP_SIZE:
                raise RegionOverlapError(
                    f"edge interval [{lo}, {hi}) outside map of size {MAP_SIZE}",
                    stage.id,
                )
            for olo, ohi, owner in claimed:
                if lo < ohi and olo < hi:
                    raise RegionOverlapError(
                        f"edge interval [{lo}, {hi}) overlaps stage {owner!r}",
                        stage.id,
                    )
            claimed.append((lo, hi, stage.id))

    return TargetSpec(input_length, stages)


def load_spec(path: str | os.PathLike) -> TargetSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


# ---------------------------------------------------------------------------
# Synthetic execution
# ---------------------------------------------------------------------------


def fit_input(data: bytes, length: int) -> bytes:
    """Truncate or zero-pad ``data`` to exactly ``length`` bytes."""
    if len(data) == length:
        return data
    if len(data) > length:
        return data[:length]
    return data + b"\x00" * (length - len(data))


def execute_synthetic(spec: TargetSpec, data: bytes) -> ExecResult:
    """Run an input through a synthetic target.

    Stages run in order. A failed check adds the fail region's edges and,
    if the region is terminal, stops execution. Deterministic by
    construction; synthetic execution cannot crash.
    """
    data = fit_input(data, spec.input_length)
    edges: set[int] = set()
    valid = True
    for stage in spec.stages:
        if stage.check is None or stage.check.passes(data):
            edges.update(stage.pass_region.edges)
            continue
        if stage.check.kind is CheckKind.VALIDATION:
            valid = False
        if stage.fail_region is not None:
            edges.update(stage.fail_region.edges)
            if stage.fail_region.terminal:
                break
    return ExecResult(
        path=frozenset(edges), exec_status=ExecStatus.NORMAL, valid=valid
    )


def _compile_check(check: Check) -> tuple[int, int, bytes, bytes]:
    """(start, stop, lo, hi) such that ``check.passes(data)`` is
    ``lo <= data[start:stop] <= hi``. Bytes compare lexicographically, so
    a one-byte slice against one-byte bounds is a plain byte comparison;
    ``b"\\x01" > b"\\x00"`` encodes a check that never passes."""
    if check.predicate is PredicateKind.EQ:
        return check.start, check.end + 1, check.constant, check.constant
    if check.predicate is PredicateKind.LT:
        lo, hi = 0, check.lo - 1
    else:
        lo, hi = max(check.lo, 0), check.hi
    hi = min(hi, 0xFF)
    if lo > hi:
        return check.start, check.start + 1, b"\x01", b"\x00"
    return check.start, check.start + 1, bytes((lo,)), bytes((hi,))


class CompiledTarget:
    """Memoized synthetic runner for campaign hot loops.

    Each check is compiled once to a byte-slice comparison. The covered
    path depends only on the vector of check outcomes, so ``run`` caches
    one ExecResult per outcome vector, filled from ``execute_synthetic``,
    and returns that same object for every input that reaches it.
    ``execute`` is another name for ``run``.
    """

    def __init__(self, spec: TargetSpec):
        self.spec = spec
        self._cache: dict[tuple, ExecResult] = {}
        # (start, stop, lo, hi, stops execution when failed), in stage order
        self._ops = tuple(
            (*_compile_check(stage.check),
             stage.fail_region is not None and stage.fail_region.terminal)
            for stage in spec.stages
            if stage.check is not None
        )

    def run(self, data: bytes) -> ExecResult:
        n = self.spec.input_length
        if len(data) != n:
            data = fit_input(data, n)
        outcome: list[bool] = []
        for start, stop, lo, hi, terminal in self._ops:
            ok = lo <= data[start:stop] <= hi
            outcome.append(ok)
            if terminal and not ok:
                break
        key = tuple(outcome)
        result = self._cache.get(key)
        if result is None:
            result = self._cache[key] = execute_synthetic(self.spec, data)
        return result

    execute = run


# ---------------------------------------------------------------------------
# External execution
# ---------------------------------------------------------------------------


def placeholder_index(command: Sequence[str]) -> int:
    """Index of the one ``@@`` token in an external target's ``command``;
    ValueError unless there is exactly one."""
    placeholders = [i for i, tok in enumerate(command) if tok == INPUT_PLACEHOLDER]
    if len(placeholders) != 1:
        raise ValueError(
            f"command must contain exactly one {INPUT_PLACEHOLDER!r} token, "
            f"got {list(command)!r}"
        )
    return placeholders[0]


def _wait_exit(proc: subprocess.Popen, timeout: float) -> Optional[int]:
    """Block until ``proc`` exits or ``timeout`` seconds pass; return its
    return code, or None when it is still running.

    On Linux this polls a pidfd, which wakes the moment the child exits.
    ``Popen.wait(timeout)`` instead checks in sleeps of 1, 2, 4 ... ms, so
    a child that exits after 1.1 ms is noticed only at 3 ms; it remains the
    fallback on platforms without ``os.pidfd_open`` (all but Linux), the
    only platform branch. A signal that interrupts ``poll`` does not end
    the wait: the call is retried with the time that remains (PEP 475).
    """
    if not hasattr(os, "pidfd_open"):
        try:
            return proc.wait(timeout)
        except subprocess.TimeoutExpired:
            return None
    pidfd = os.pidfd_open(proc.pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        if not poller.poll(timeout * 1000):
            return None
    finally:
        os.close(pidfd)
    return proc.wait()


def execute_external(
    command: Sequence[str],
    data: bytes,
    timeout: float,
    workdir: str | os.PathLike,
) -> ExecResult:
    """Run an external target on one input.

    ``command`` must contain exactly one ``@@`` token, replaced by the path
    of ``workdir/input``, which holds the input. The target reports
    coverage by writing newline-separated decimal edge identifiers to the
    file named in the TRUZZ_COV_FILE environment variable,
    ``workdir/coverage``; a dump left by an earlier run is deleted first.
    ``workdir`` belongs to the caller and may be reused across runs. A
    target still running after ``timeout`` seconds is killed.
    """
    slot = placeholder_index(command)
    input_path = os.path.join(workdir, "input")
    dump_path = os.path.join(workdir, "coverage")
    with open(input_path, "wb") as fh:
        fh.write(data)
    try:
        os.unlink(dump_path)
    except FileNotFoundError:
        pass
    argv = list(command)
    argv[slot] = input_path
    env = dict(os.environ)
    env[COVERAGE_FILE_ENV] = dump_path
    try:
        proc = subprocess.Popen(
            argv,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
    except OSError as exc:
        raise SpawnError(f"failed to spawn {argv[0]!r}: {exc}") from exc
    try:
        returncode = _wait_exit(proc, timeout)
    finally:
        # On a timeout, and on an interrupt during the wait, the child is
        # killed and reaped rather than left running.
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if returncode is None:
        status = ExecStatus.TIMEOUT
    else:
        status = ExecStatus.CRASH if returncode < 0 else ExecStatus.NORMAL

    edges: set[int] = set()
    try:
        with open(dump_path, "r", encoding="ascii") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                edge = int(line)
                if edge < 0 or edge >= MAP_SIZE:
                    raise ValueError(f"edge id {edge} out of range")
                edges.add(edge)
    except FileNotFoundError:
        if status is ExecStatus.NORMAL:
            raise CoverageDumpError(f"no coverage dump at {dump_path}") from None
    except ValueError as exc:
        raise CoverageDumpError(f"corrupt coverage dump: {exc}") from exc

    return ExecResult(path=frozenset(edges), exec_status=status)
