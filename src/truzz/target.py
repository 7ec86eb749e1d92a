"""Targets under test: declarative synthetic programs and external binaries.

A synthetic target is described by a small key/value document (see
``docs/target-spec.md``). It models a program as an ordered list of stages;
a stage may carry a check over input bytes. Failing a validation check
routes execution into a short error-handling region and (if terminal)
stops it, which is exactly the shape the byte-analysis pass looks for.
Synthetic execution is deterministic and reports a validity verdict, the
ground truth that real campaigns obtain by marking error handlers by hand.
``CompiledTarget`` is the one synthetic interpreter.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import os
import random
import select
import shutil
import signal
import struct
import tempfile
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import mutation, native
from .byte_analysis import MutationMask
from .coverage import MAP_SIZE, Path, parse_edges

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


class ForkServerError(ExternalTargetError):
    """A target's fork server died or could not be reached."""


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
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MalformedSpecError(f"{os.fsdecode(path)} is not UTF-8 text: {exc}") from None
    return parse_spec(text)


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
    """``CompiledTarget(spec).run(data)``. perfbench's checks are its only
    caller; the benchmark change that stops calling it deletes it."""
    return CompiledTarget(spec).run(data)


def _compile_check(check: Check) -> tuple[int, int, bytes, bytes]:
    """(start, stop, lo, hi) such that ``check`` passes on ``data`` exactly
    when ``lo <= data[start:stop] <= hi``. Bytes compare lexicographically,
    so a one-byte slice against one-byte bounds is a plain byte comparison;
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


# A round code, as mutate.c's truzz_synthetic_round writes one per child:
# bit j set when check j passed, and the number of checks reached from bit
# CODE_SHIFT up. truzz_synthetic_round scores specs of at most CODE_CHECKS
# checks; past that, the count sits above the last check's bit.
CODE_CHECKS = 24
CODE_SHIFT = 24
# Flags of a check in the table truzz_synthetic_round reads.
_TERMINAL, _VALIDATION = 1, 2
# The code no child has: an empty slot of the kernel's set of a round's codes.
_UNSEEN = 0xFFFFFFFF
# The most children one truzz_synthetic_round call makes. A call's codes and
# valid counts take 8 bytes per child, so a round of any energy holds at
# most 32 KiB of them; a round of up to this many children is one call
# until its copy-out buffer fills.
_CALL_CHILDREN = 1 << 12


def _code_set(codes: Iterable[int], slots: int) -> array:
    """A set of a round's codes as truzz_synthetic_round reads it: ``slots``
    words (a power of two) that hold ``codes``, each where mutate.c's
    add_code would have put it, and ``_UNSEEN`` elsewhere."""
    seen, mask = array("I", [_UNSEEN]) * slots, slots - 1
    for code in codes:
        h = code * 0x9E3779B1 & 0xFFFFFFFF
        i = (h ^ h >> 15) & mask
        while seen[i] != _UNSEEN:
            i = (i + 1) & mask
        seen[i] = code
    return seen


def _score_table(ops, validation, reads) -> Optional[tuple[array, bytes, int, array]]:
    """``ops`` (see ``CompiledTarget``) as truzz_synthetic_round reads them:
    five words per check (its first byte, its byte count, the offsets of
    its bounds in the pool, its flags), the pool of bounds, ``reads``, the
    bytes a child needs for every check to read it in place, and a scratch
    buffer of that many bytes. ``validation`` says which checks are
    VALIDATION ones. None where there are more than CODE_CHECKS checks."""
    if len(ops) > CODE_CHECKS or reads >= 1 << 32 or array("I").itemsize != 4:
        return None
    words, pool, offsets = array("I"), bytearray(), {}
    for (start, stop, lo, hi, terminal), is_validation in zip(ops, validation):
        for bound in (lo, hi):
            if bound not in offsets:
                offsets[bound] = len(pool)
                pool += bound
        flags = _TERMINAL * terminal | _VALIDATION * is_validation
        words.extend((start, stop - start, offsets[lo], offsets[hi], flags))
    return words, bytes(pool), reads, array("B", bytes(reads))


@functools.cache
def _synthetic_round():
    """mutate.c's truzz_synthetic_round, or None where it cannot be built or
    loaded; loaded, and built if need be, on first use."""
    fn = native.function("mutate", "truzz_synthetic_round")
    if fn is None:
        return None
    import ctypes

    address, size = ctypes.c_void_p, ctypes.c_size_t
    fn.argtypes = (address, ctypes.c_char_p, size, address, size, address, size,
                   ctypes.c_char_p, size, address, address, size, size, address, size,
                   address, address, address)
    fn.restype = size
    return fn


class Chunk(NamedTuple):
    """``size`` consecutive children of a round. ``firsts`` holds the index
    of each child that is the first in its round to reach its outcome;
    ``child(i)``, for i in ``firsts``, is child i, and ``result(i)`` is
    child i's ExecResult for every i. ``valid[j] - valid[i]`` is how many
    of children i to j - 1 are valid (None where every child is in
    ``firsts``, so none is charged in bulk)."""

    size: int
    firsts: Collection[int]
    valid: Optional[Sequence[int]]
    child: Callable[[int], bytes]
    result: Callable[[int], ExecResult]


class CompiledTarget:
    """Memoized synthetic runner, the one synthetic interpreter.

    The covered path and validity depend only on the outcomes of the
    checks reached, which an input's code holds (see ``CODE_SHIFT``). The
    constructor compiles each check once to a byte-slice comparison and
    each outcome to the edges it adds; ``run`` caches one ExecResult per
    code, built from those by ``_result``, and returns that same object
    for every input with that code. ``execute`` is another name for
    ``run``, kept for perfbench.

    ``round`` makes and scores a whole round's children, and keeps the
    first to reach each code: in C calls of up to ``_CALL_CHILDREN``
    children where ``mutate.c`` loads and the checks fit its table.
    ``score`` gives the codes of children in Python, with ``run``'s own
    ``_code``. ``result_of`` maps a code to its cached ExecResult, the
    very object ``run`` returns for that child.
    """

    def __init__(self, spec: TargetSpec):
        self.spec = spec
        self._cache: dict[int, ExecResult] = {}
        ops, validation, adds = [], [], []
        head: set[int] = set()
        tails = (head,)  # the sets the edges of a check-less stage join
        for stage in spec.stages:
            check, fail = stage.check, stage.fail_region
            if check is None:
                for edges in tails:
                    edges.update(stage.pass_region.edges)
                continue
            terminal = fail is not None and fail.terminal
            ops.append((*_compile_check(check), terminal))  # (start, stop, lo, hi, terminal)
            validation.append(check.kind is CheckKind.VALIDATION)
            adds.append((set(fail.edges if fail else ()), set(stage.pass_region.edges)))
            tails = adds[-1][terminal:]  # nothing follows a terminal fail
        self._ops = tuple(ops)
        self._head = frozenset(head)
        # check j's (edges on fail, edges on pass) up to the next check, indexed by its bit
        self._adds = tuple((frozenset(f), frozenset(p)) for f, p in adds)
        self._shift = max(CODE_SHIFT, len(ops))
        self._validation = sum(is_validation << j for j, is_validation in enumerate(validation))
        self._reads = max((stop for _, stop, *_ in ops), default=0)
        self._table = _score_table(self._ops, validation, self._reads)

    def run(self, data: bytes) -> ExecResult:
        return self.result_of(self._code(data))

    def _code(self, data: bytes) -> int:
        """The code of ``data`` zero-padded to the ``_reads`` bytes the checks
        read: the checks run in stage order until a terminal one fails."""
        if len(data) < self._reads:
            data = fit_input(data, self._reads)
        code = reached = 0
        for start, stop, lo, hi, terminal in self._ops:
            ok = lo <= data[start:stop] <= hi
            code |= ok << reached
            reached += 1
            if terminal and not ok:
                break
        return code | reached << self._shift

    def _valid(self, code: int) -> bool:
        """Whether ``code`` passed every validation check it reached."""
        return not ~code & ((1 << (code >> self._shift)) - 1) & self._validation

    def score(self, children, length: int, n: int) -> tuple[list[int], list[int]]:
        """The codes of ``n`` children of ``length`` bytes, laid one after
        another in the buffer ``children``, and ``valid``, where
        ``valid[i]`` is how many of the first i are valid."""
        if len(children) < length * n:
            raise ValueError(f"{len(children)} bytes hold no {n} children of {length}")
        code_of, valid_of = self._code, self._valid
        codes, valid = [], [0]
        for i in range(n):
            code = code_of(children[i * length:(i + 1) * length])
            codes.append(code)
            valid.append(valid[-1] + valid_of(code))
        return codes, valid

    def round(self, seed: bytes, mask: Optional[MutationMask], rng: random.Random,
              n: int) -> Iterator[Chunk]:
        """The ``n`` children of ``mutation.mutate_chunks(seed, mask, rng,
        n)``, scored, as Chunks whose firsts are the first child in the
        round to reach each code. ``rng`` is left where the children of the
        chunks taken leave it.

        Where truzz_synthetic_round loads and the checks fit its table, a
        chunk is one call: it makes and scores up to ``_CALL_CHILDREN``
        children, and copies out each first, until its buffer of
        ``mutation._CALL_BYTES`` (or of one child, if longer) is full or
        the call's children are made. The next call reuses the buffers, so
        a chunk is used before the next chunk is taken. Otherwise
        ``mutate_chunks`` makes the chunks and ``score`` scores them. The
        inputs are checked at once, and an empty round loads nothing.
        """
        mutation._check(seed, mask)
        if n < 1:  # nothing to make, so nothing to load
            return iter(())
        fn = None
        if self._table is not None and len(seed) < 1 << 32 and n < 1 << 32:
            fn = _synthetic_round()
        if fn is None:
            return self._composed_round(seed, mask, rng, n)
        return self._kernel_round(fn, seed, mask, rng, n)

    def _kernel_round(self, fn, seed: bytes, mask: Optional[MutationMask],
                      rng: random.Random, n: int) -> Iterator[Chunk]:
        """``round`` by truzz_synthetic_round. The MT state is converted
        once, and written back after each call. ``valid[0]`` carries the
        round's valid count from call to call. A call adds at most one code
        per child to the round's set, so the set is rebuilt larger before
        a call could fill more than half of it."""
        length, result_of = len(seed), self.result_of
        per_call = min(n, _CALL_CHILDREN)
        capacity = min(per_call, max(1, mutation._CALL_BYTES // length))
        words, pool, reads, scratch = self._table
        version, internal, gauss = rng.getstate()
        state = array("I", internal)  # the 624 words, then the index
        seen = _code_set((), 2 << per_call.bit_length())  # over twice a call's children
        out, firsts = array("B", [0]) * (capacity * length), array("I", [0]) * capacity
        codes, valid = array("I", [0]) * per_call, array("I", [0]) * (per_call + 1)
        view, codes_view, valid_view = memoryview(out), memoryview(codes), memoryview(valid)
        state_at, out_at, firsts_at, codes_at, valid_at = (
            b.buffer_info()[0] for b in (state, out, firsts, codes, valid))
        call = functools.partial(
            fn, state_at, seed, length, None if mask is None else mask.doubles.buffer_info()[0],
            0 if mask is None else mask.argmax, words.buffer_info()[0], len(words) // 5, pool,
            reads, scratch.buffer_info()[0])
        done = known = 0
        while done < n:
            k = min(per_call, n - done)
            if 2 * (known + k) > len(seen):
                seen = _code_set([c for c in seen if c != _UNSEEN], 2 << (known + k).bit_length())
            kept = call(seen.buffer_info()[0], len(seen) - 1, k, out_at, capacity,
                        firsts_at, codes_at, valid_at)
            rng.setstate((version, tuple(state), gauss))
            # A call that fills the buffer stops at the child it keeps last.
            if kept == capacity:
                k = firsts[kept - 1] + 1
            offsets = {i: slot * length for slot, i in enumerate(firsts[:kept])}
            yield Chunk(k, offsets, valid_view[:k + 1],
                        lambda i, at=offsets: view[at[i]:at[i] + length].tobytes(),
                        lambda i, codes=codes_view[:k]: result_of(codes[i]))
            valid[0] = valid[k]
            done += k
            known += kept

    def _composed_round(self, seed: bytes, mask: Optional[MutationMask],
                        rng: random.Random, n: int) -> Iterator[Chunk]:
        """``round`` by ``mutate_chunks`` and ``score``: each chunk's codes
        say which child is the first in the round to reach its code."""
        length, result_of = len(seed), self.result_of
        offered: set[int] = set()
        for buffer, k in mutation.mutate_chunks(seed, mask, rng, n):
            codes, valid = self.score(buffer, length, k)
            firsts = set()
            for i, code in enumerate(codes):
                if code not in offered:
                    offered.add(code)
                    firsts.add(i)
            yield Chunk(k, firsts, valid,
                        lambda i, buffer=buffer: buffer[i * length:(i + 1) * length],
                        lambda i, codes=codes: result_of(codes[i]))

    def result_of(self, code: int) -> ExecResult:
        """The ExecResult of every input with ``code``."""
        result = self._cache.get(code)
        if result is None:
            result = self._cache[code] = self._result(code)
        return result

    def _result(self, code: int) -> ExecResult:
        """The result of an input with ``code``: the edges before the first
        check and those each reached check's outcome adds. Synthetic
        execution cannot crash."""
        path = self._head.union(*[self._adds[j][code >> j & 1] for j in range(code >> self._shift)])
        return ExecResult(path=path, exec_status=ExecStatus.NORMAL, valid=self._valid(code))

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


# ``poll`` waits at most 2**31 - 1 ms; a longer timeout cannot be waited for.
MAX_TIMEOUT = (2**31 - 1) / 1000


def check_timeout(timeout: float) -> None:
    """ValueError unless ``timeout`` is a positive number of seconds no
    greater than ``MAX_TIMEOUT``."""
    if not 0 < timeout <= MAX_TIMEOUT:
        raise ValueError(
            f"timeout must be a positive number of seconds no greater than "
            f"{MAX_TIMEOUT} (2**31 - 1 ms, the longest poll wait): {timeout}"
        )


# The shim's ends of a fork server's control and status pipes, the variable
# that enters the server, its hello and its two requests (see forkserver.c).
_CONTROL_FD, _STATUS_FD = 198, 199
_FORK_SERVER_ENV = b"TRUZZ_FORK_SERVER"
_HELLO = struct.pack("=I", 0x46525A54)
_RUN, _KILL = struct.pack("=I", 1), struct.pack("=I", 0)


def _fork_server_shim() -> Optional[bytes]:
    """Path of the compiled fork-server shim, ``forkserver.c``, or None where
    there is none (see ``truzz.native``)."""
    return native.library("forkserver")


@dataclass(slots=True)
class _Slot:
    """One of an ExternalTarget's two run slots: its own input and coverage
    files, argv and environment, its fork server if it has one, and the run
    started in it, if any."""

    input_path: str
    dump_path: str
    argv: list[str]
    env: dict[bytes, bytes]
    input_fd: int = -1
    control_fd: int = -1          # requests to the slot's fork server
    status_fd: int = -1           # its hello and replies
    server_pid: int = 0           # the server, this process's child
    data: Optional[bytes] = None  # the input the started run runs, until it is awaited
    pid: Optional[int] = None     # a spawned child, until it is reaped
    deadline: float = 0.0         # time.monotonic() at which the started run is killed


class ExternalTarget:
    """An external target prepared once for a whole campaign.

    The constructor does all one-time work: it checks ``command`` for its
    one ``@@`` token and ``timeout`` for a positive number of seconds no
    greater than ``MAX_TIMEOUT``, and makes a private ``truzz-exec-*`` work
    directory under the system temporary directory. In it, it prepares two
    slots, so one run can start while another runs. Slot ``i`` has its own
    input file ``input<i>``, whose path replaces ``@@`` in its argv, and
    its own coverage file ``coverage<i>``, named by TRUZZ_COV_FILE in its
    copy of the environment, read once. The two input files and
    ``/dev/null`` are opened once, and the fork-server shim is looked up.

    A slot's first run starts a fork server in it (see
    ``docs/external-targets.md``): the target, spawned once with the shim
    preloaded, is the server, and forks a child for every input. A target
    the shim cannot enter, or a host with no shim, spawns a process per
    input instead. Under either launch this object keeps each run's
    deadline and kills a run still going at it; a server keeps no clock.
    ``execute_external`` runs inputs through the target.
    ``close`` (or leaving a ``with`` block) kills any running child, stops
    and reaps the servers, closes the descriptors and removes the
    directory, if it is still there.
    """

    def __init__(self, command: Sequence[str], timeout: float):
        index = placeholder_index(command)
        check_timeout(timeout)
        self.timeout = timeout
        self._shim = _fork_server_shim()
        self._fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
        self._devnull_fd = -1
        self.workdir: Optional[str] = tempfile.mkdtemp(prefix="truzz-exec-")
        # Bytes keys and values: posix_spawn then encodes nothing per exec.
        environ = dict(os.environb)
        slots = []
        for i in range(2):
            input_path = os.path.join(self.workdir, f"input{i}")
            dump_path = os.path.join(self.workdir, f"coverage{i}")
            argv = list(command)
            argv[index] = input_path
            env = {**environ, os.fsencode(COVERAGE_FILE_ENV): os.fsencode(dump_path)}
            slots.append(_Slot(input_path, dump_path, argv, env))
        self.slots = tuple(slots)
        try:
            for slot in self.slots:
                slot.input_fd = os.open(
                    slot.input_path, os.O_RDWR | os.O_CREAT | os.O_CLOEXEC, 0o600
                )
            self._devnull_fd = os.open(os.devnull, os.O_WRONLY | os.O_CLOEXEC)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for slot in self.slots:
            if slot.pid is not None:
                self._discard(slot)
            self._stop_server(slot)
            if slot.input_fd >= 0:
                os.close(slot.input_fd)
                slot.input_fd = -1
        if self._devnull_fd >= 0:
            os.close(self._devnull_fd)
            self._devnull_fd = -1
        workdir, self.workdir = self.workdir, None
        if workdir is not None:
            with contextlib.suppress(FileNotFoundError):  # removed already
                shutil.rmtree(workdir)

    def __enter__(self) -> "ExternalTarget":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _inheritable_fds(self) -> list[int]:
        """Open descriptors >= 3 that a spawned child would inherit. The
        listing's own descriptor is closed before it is checked."""
        fds = []
        for name in os.listdir(self._fd_dir):
            fd = int(name)
            if fd < 3:
                continue
            try:
                if os.get_inheritable(fd):
                    fds.append(fd)
            except OSError:
                pass
        return fds

    def _spawn(self, argv: list[str], env: dict[bytes, bytes], *file_actions) -> int:
        """Spawn ``argv`` in ``env`` with stdout and stderr on ``/dev/null``
        and every other inheritable descriptor but stdin closed, then
        ``file_actions`` applied; return its pid."""
        devnull = self._devnull_fd
        actions = [(os.POSIX_SPAWN_CLOSE, n) for n in self._inheritable_fds()]
        actions += [(os.POSIX_SPAWN_DUP2, devnull, 1), (os.POSIX_SPAWN_DUP2, devnull, 2),
                    *file_actions]
        try:
            return os.posix_spawnp(argv[0], argv, env, file_actions=actions)
        except OSError as exc:
            raise SpawnError(f"failed to spawn {argv[0]!r}: {exc}") from exc

    def _start(self, slot: _Slot, data: bytes) -> None:
        """Write ``data`` in place over the slot's input file, delete the
        slot's old coverage dump, and start the target on it: a run request
        to the slot's fork server, or a spawn where there is none. Either
        way the run's deadline is the timeout from now."""
        fd = slot.input_fd
        if os.pwrite(fd, data, 0) != len(data):
            raise ExternalTargetError(f"short write to {slot.input_path}")
        os.ftruncate(fd, len(data))
        try:
            os.unlink(slot.dump_path)
        except FileNotFoundError:
            pass
        if slot.control_fd < 0 and self._shim is not None:
            self._open_server(slot)
        if slot.control_fd >= 0:
            self._request(slot, _RUN)
        else:
            slot.pid = self._spawn(slot.argv, slot.env)
        slot.deadline = time.monotonic() + self.timeout
        slot.data = data

    def _discard(self, slot: _Slot) -> None:
        """Kill and reap the slot's started child, whose result is unwanted."""
        if slot.control_fd >= 0:
            self._request(slot, _KILL)
            self._reply(slot)
        else:
            os.kill(slot.pid, signal.SIGKILL)
            os.waitpid(slot.pid, 0)
            slot.pid = slot.data = None

    def _finish(self, slot: _Slot) -> ExecResult:
        """Wait for the slot's started run to end and read its result. A
        run that has sent no reply by its deadline is discarded: killed,
        reaped, and reported as a timeout."""
        if slot.control_fd >= 0:
            if _readable(slot.status_fd, slot.deadline):
                returncode = os.waitstatus_to_exitcode(self._reply(slot))
            else:
                self._discard(slot)
                returncode = None
        else:
            pid, slot.pid, slot.data = slot.pid, None, None
            returncode = _wait_exit(pid, slot.deadline)  # reaps ``pid`` however it ends
        if returncode is None:
            status = ExecStatus.TIMEOUT
        else:
            status = ExecStatus.CRASH if returncode < 0 else ExecStatus.NORMAL

        path = Path()
        try:
            with open(slot.dump_path, "r", encoding="ascii") as fh:
                path = parse_edges(fh.read())
        except FileNotFoundError:
            if status is ExecStatus.NORMAL:
                raise CoverageDumpError(f"no coverage dump at {slot.dump_path}") from None
        except ValueError as exc:
            raise CoverageDumpError(f"corrupt coverage dump: {exc}") from exc
        return ExecResult(path=path, exec_status=status)

    # -- fork servers --------------------------------------------------------

    def _open_server(self, slot: _Slot) -> None:
        """Start a fork server in the slot, from its argv and environment.
        If the target says no hello within the timeout (it closes the
        status pipe, or runs on without the shim, as a static binary does),
        it is killed and reaped, its coverage dump deleted, and every slot
        without a server spawns a process per run from then on."""
        slot.server_pid = self._spawn_server(slot, self._shim)
        hello = False
        try:
            hello = (_readable(slot.status_fd, time.monotonic() + self.timeout)
                     and os.read(slot.status_fd, len(_HELLO)) == _HELLO)
        finally:
            if not hello:
                os.kill(slot.server_pid, signal.SIGKILL)
                self._shim = None
                self._stop_server(slot)
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(slot.dump_path)

    def _spawn_server(self, slot: _Slot, shim: bytes) -> int:
        """Spawn the slot's target with the shim preloaded after any library
        its environment preloads, and the shim's ends of a new control and
        status pipe on their fixed descriptors; keep the other ends in the
        slot. Return the spawned pid."""
        preload = slot.env.get(b"LD_PRELOAD", b"")
        env = {**slot.env, _FORK_SERVER_ENV: preload,
               b"LD_PRELOAD": b" ".join(filter(None, (preload, shim)))}
        control, slot.control_fd = os.pipe()
        try:
            slot.status_fd, status = os.pipe()
            try:
                return self._spawn(slot.argv, env,
                                   (os.POSIX_SPAWN_DUP2, control, _CONTROL_FD),
                                   (os.POSIX_SPAWN_DUP2, status, _STATUS_FD))
            finally:
                os.close(status)
        finally:
            os.close(control)

    def _request(self, slot: _Slot, message: bytes) -> None:
        """Send the slot's server ``_RUN`` or ``_KILL``."""
        try:
            os.write(slot.control_fd, message)
        except OSError as exc:
            raise ForkServerError(
                f"fork server {slot.server_pid} of {slot.argv[0]!r} is gone: {exc}"
            ) from exc

    def _reply(self, slot: _Slot) -> int:
        """Read the server's reply to the slot's started run: the child's
        wait status."""
        reply = os.read(slot.status_fd, 4)
        if len(reply) != 4:
            raise ForkServerError(f"fork server {slot.server_pid} of {slot.argv[0]!r} died")
        slot.data = None
        return struct.unpack("=i", reply)[0]

    def _stop_server(self, slot: _Slot) -> None:
        """Close the slot's pipes, so that its server, if it has one, kills
        and reaps any child and exits, and reap the server. A server that
        has died already is tolerated."""
        for fd in (slot.control_fd, slot.status_fd):
            if fd >= 0:
                os.close(fd)
        slot.control_fd = slot.status_fd = -1
        if slot.server_pid:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(slot.server_pid, 0)
            slot.server_pid = 0
        slot.data = None


def _readable(fd: int, deadline: float) -> bool:
    """Whether ``fd`` is readable, or at end of file, before
    ``time.monotonic()`` reaches ``deadline``. A deadline already passed
    still sees what is ready now. A signal whose handler returns does not
    end the wait: ``poll`` resumes with the time that remains (PEP 475)."""
    poller = select.poll()
    poller.register(fd, select.POLLIN)
    # Never negative: poll(-1) would wait forever.
    return bool(poller.poll(max(deadline - time.monotonic(), 0.0) * 1000))


def _wait_exit(pid: int, deadline: float) -> Optional[int]:
    """Block until child ``pid`` exits or ``time.monotonic()`` reaches
    ``deadline``; return its exit code (minus the signal number for a child
    killed by a signal), or None on a timeout. A deadline already passed
    still reaps a child that has exited. On a timeout, and on any exception
    during the wait, the child is killed and reaped rather than left
    running.

    On Linux this polls a pidfd, which wakes the moment the child exits.
    Where ``os.pidfd_open`` does not exist (all but Linux) or the kernel
    refuses it (ENOSYS before Linux 5.3, EPERM under a seccomp filter), it
    polls ``waitpid(WNOHANG)`` with sleeps of 1, 2, 4 ... ms up to 50 ms, as
    ``subprocess.Popen.wait`` does. A signal whose handler returns does not
    end the wait: ``poll`` and ``sleep`` resume with the time that remains
    (PEP 475).
    """
    status = None
    try:
        try:
            pidfd = os.pidfd_open(pid)
        except (AttributeError, OSError):  # not on this platform, or refused
            pidfd = -1
        if pidfd >= 0:
            try:
                if _readable(pidfd, deadline):
                    status = os.waitpid(pid, 0)[1]
            finally:
                os.close(pidfd)
        else:
            delay = 0.0005
            while True:
                reaped, st = os.waitpid(pid, os.WNOHANG)
                if reaped:
                    status = st
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                delay = min(delay * 2, remaining, 0.05)
                time.sleep(delay)
    finally:
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return None if status is None else os.waitstatus_to_exitcode(status)


def execute_external(
    target: ExternalTarget, data: bytes, then: Optional[bytes] = None
) -> ExecResult:
    """Run ``data`` through an external target and return its result.

    If ``data`` is the very object (an identity check) that the previous
    call was given as ``then``, its child is already running and is waited
    for; any other started child is killed, reaped and discarded, and
    ``data`` is started in slot 0. If ``then`` is given, it is started in
    the other slot before the wait, so its run overlaps this one's; the
    next call should pass that same object as ``data``. So at most two
    target children run at once.

    Each input is written in place over its slot's input file, whose path
    and inode stay the same for the whole campaign. The target reports
    coverage by writing newline-separated decimal edge identifiers to the
    file named in the TRUZZ_COV_FILE environment variable; a dump left in
    the slot by an earlier run is deleted first. Each run's deadline is
    ``target.timeout`` seconds after it was started. A run still going
    when its wait reaches the deadline is killed, reaped and reported as
    a timeout; one that has ended by then is not, however late it is
    claimed.
    """
    slot = None
    for started in target.slots:
        if started.data is None:
            continue
        if started.data is data and slot is None:
            slot = started
        else:
            target._discard(started)
    if slot is None:
        slot = target.slots[0]
        target._start(slot, data)
    if then is not None:
        other = target.slots[1] if slot is target.slots[0] else target.slots[0]
        target._start(other, then)
    return target._finish(slot)
