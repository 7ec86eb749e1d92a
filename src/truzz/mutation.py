"""Havoc-style input mutation gated by a per-byte probability mask.

Byte positions are drawn uniformly and accepted or rejected against the
mask (rejection sampling), so the long-run frequency of mutating byte i is
proportional to mask.probability[i]. All operators preserve length: the
fitness map for a seed is positional and must stay valid for every input
derived from it.

The random stream is ``random.Random``'s MT19937 stream, decoded exactly
as ``random.Random`` decodes it. ``randrange(n)`` takes
``getrandbits(n.bit_length())`` and draws again while the value is >= n.
``mutate`` inlines that loop on the C ``getrandbits``, so it consumes the
same words, in the same order, as ``select_byte`` and ``randrange`` calls
would.

``mutate.c``'s one entry point, ``truzz_round``, makes a round's children
with the same decoder, a buffer of them at a time, so its children and
the ``Rng``'s state afterwards are those of ``mutate`` called once per
child; given a synthetic target's checks, it scores each child as it makes
it and keeps only the first of the round to reach each outcome. This
module owns every call of it: ``_kernel`` loads it, and ``kernel_calls``
converts the ``Rng``'s state, sizes the buffers and calls it.
``mutate_chunks``, the external round's children, is ``kernel_calls`` with
no checks, and ``truzz.target.CompiledTarget.round`` is ``kernel_calls``
with its checks. ``mutate`` is the kernel's specification, and makes the
chunks itself where the kernel cannot be built or loaded.
"""

from __future__ import annotations

import functools
import random
from array import array
from typing import Iterable, Iterator, Optional

from . import native
from .byte_analysis import MutationMask

INTERESTING_BYTES = (0x00, 0xFF, 0x7F, 0x80, 0x01)
ARITH_MAX = 35
# Rejection-sampling retries before falling back to the most mutable byte.
RETRY_FACTOR = 16
OP_COUNT_MAX_EXP = 6  # ops per input drawn as 2**k, k in [0, OP_COUNT_MAX_EXP]

# Bits per draw in mutate's inlined randrange(n): n.bit_length().
_ARITH_BITS = ARITH_MAX.bit_length()
_INTERESTING_BITS = len(INTERESTING_BYTES).bit_length()

# The most output one kernel call writes, in bytes, unless one child is
# longer: a round of 1024 children takes one call for a seed of up to 64
# bytes, and several for a longer one, so the buffer adds at most 64 KiB to
# the peak RSS. A call given checks writes only the first child of each
# code, so it takes one call until that many fill it.
_CALL_BYTES = 1 << 16
# The most children one kernel call makes. A call's valid counts take 4
# bytes per child, so a round of any energy holds at most 16 KiB of them; a
# round of up to this many children is one call until its copy-out buffer
# fills.
_CALL_CHILDREN = 1 << 12
# The code no child has: an empty slot of the kernel's set of a round's codes.
_UNSEEN = 0xFFFFFFFF


class Rng(random.Random):
    """Deterministic pseudo-random stream, seedable from a 64-bit value."""


def select_byte(mask: Optional[MutationMask], rng: random.Random, length: int) -> int:
    """Draw a byte index, accepting with the mask's probability.

    A mask entry of 1.0 accepts without consuming an extra random draw, so
    an all-ones mask is stream-identical to no mask at all. After
    RETRY_FACTOR * length rejections the most mutable index is returned.
    """
    randrange = rng.randrange
    if mask is None:
        return randrange(length)
    probs = mask.probability
    rand = rng.random
    for _ in range(RETRY_FACTOR * length):
        idx = randrange(length)
        p = probs[idx]
        if p >= 1.0 or rand() < p:
            return idx
    return mask.argmax


def draw_op_count(rng: random.Random) -> int:
    """Havoc-style stacking: 2**k operations, k uniform in [0, 6]."""
    return 1 << rng.randrange(OP_COUNT_MAX_EXP + 1)


def _check(seed: bytes, mask: Optional[MutationMask]) -> None:
    """ValueError, before any word is drawn, for an input ``mutate`` cannot
    mutate or a mask that is not one probability per byte of it."""
    if not seed:
        raise ValueError("cannot mutate an empty input")
    if mask is not None and len(mask.probability) != len(seed):
        raise ValueError(
            f"mask has {len(mask.probability)} probabilities for a {len(seed)}-byte input"
        )


def mutate(
    seed: bytes,
    mask: Optional[MutationMask],
    rng: random.Random,
    ops_per_input: int,
) -> bytes:
    """Apply ``ops_per_input`` random operators at mask-gated positions.

    Each operator draws what ``select_byte(mask, rng, len(seed))`` and the
    ``randrange`` calls named in the comments below would draw.
    """
    if ops_per_input < 1:
        raise ValueError(f"ops_per_input must be >= 1, got {ops_per_input}")
    _check(seed, mask)
    data = bytearray(seed)
    length = len(data)
    bits = rng.getrandbits
    rand = rng.random
    length_bits = length.bit_length()
    probs = None if mask is None else mask.probability
    tries = range(RETRY_FACTOR * length)
    for _ in range(ops_per_input):
        if probs is None:  # randrange(length)
            while (idx := bits(length_bits)) >= length:
                pass
        else:
            for _ in tries:
                while (idx := bits(length_bits)) >= length:
                    pass
                p = probs[idx]
                if p >= 1.0 or rand() < p:
                    break
            else:
                idx = mask.argmax
        while (op := bits(3)) >= 4:  # randrange(4)
            pass
        if op == 0:  # BIT_FLIP: randrange(8)
            while (bit := bits(4)) >= 8:
                pass
            data[idx] ^= 1 << bit
        elif op == 1:  # BYTE_RANDOM: randrange(256)
            while (value := bits(9)) >= 256:
                pass
            data[idx] = value
        elif op == 2:  # BYTE_ARITH: randrange(1, ARITH_MAX + 1), randrange(2)
            while (delta := bits(_ARITH_BITS)) >= ARITH_MAX:
                pass
            delta += 1
            while (sign := bits(2)) >= 2:
                pass
            if sign:
                delta = -delta
            data[idx] = (data[idx] + delta) & 0xFF
        else:  # INTERESTING_BYTE: randrange(len(INTERESTING_BYTES))
            while (pick := bits(_INTERESTING_BITS)) >= len(INTERESTING_BYTES):
                pass
            data[idx] = INTERESTING_BYTES[pick]
    return bytes(data)


@functools.cache
def _kernel():
    """``mutate.c``'s ``truzz_round``, or None where it cannot be built or
    loaded; loaded, and built if need be, on first use."""
    fn = native.function("mutate", "truzz_round")
    if fn is None or array("I").itemsize != 4:  # the state's words are uint32_t
        return None
    import ctypes

    address, size = ctypes.c_void_p, ctypes.c_size_t
    fn.argtypes = (address, ctypes.c_char_p, size, address, size, address, size,
                   ctypes.c_char_p, size, address, address, size, size, address, size,
                   address, address, address)
    fn.restype = size
    return fn


def _code_set(codes: Iterable[int], slots: int) -> array:
    """A set of a round's codes as ``truzz_round`` reads it: ``slots`` words
    (a power of two) that hold ``codes``, each where mutate.c's add_code
    would have put it, and ``_UNSEEN`` elsewhere."""
    seen, mask = array("I", [_UNSEEN]) * slots, slots - 1
    for code in codes:
        h = code * 0x9E3779B1 & 0xFFFFFFFF
        i = (h ^ h >> 15) & mask
        while seen[i] != _UNSEEN:
            i = (i + 1) & mask
        seen[i] = code
    return seen


def kernel_calls(fn, seed: bytes, mask: Optional[MutationMask], rng: random.Random, n: int,
                 table=None) -> Iterator[tuple]:
    """Call ``fn``, the loaded ``truzz_round``, for the children of ``n``
    calls of ``mutate(seed, mask, rng, draw_op_count(rng))``, and yield
    each call's ``(k, firsts, out, codes, valid)``: it made the next k
    children and kept those in ``firsts``, in the order of their slots of
    ``len(seed)`` bytes in ``out``, with their codes in ``codes``;
    ``valid[i]`` is how many of the first i are valid. Given ``table``, a
    synthetic target's checks (``truzz.target._score_table``), a call
    keeps the first child of the round to reach each code; given none, it
    keeps every child. A call makes up to ``_CALL_CHILDREN`` children,
    and stops at the child it keeps last once its buffer of
    ``_CALL_BYTES`` (or of one child, if longer) is full. The buffers are
    reused, so a call is used before the next is taken. The MT state is
    converted once, so nothing else draws from ``rng`` until the last call,
    and written back after each call. The set of codes is rebuilt larger
    before a call could fill more than half of it.
    """
    length = len(seed)
    per_call = min(n, _CALL_CHILDREN)
    capacity = min(per_call, max(1, _CALL_BYTES // length))
    version, internal, gauss = rng.getstate()
    state = array("I", internal)  # the 624 words, then the index
    out, firsts = array("B", [0]) * (capacity * length), array("I", [0]) * capacity
    codes, valid = array("I", [0]) * capacity, array("I", [0]) * (per_call + 1)
    view, valid_view = memoryview(out), memoryview(valid)
    state_at, out_at, firsts_at, codes_at, valid_at = (
        b.buffer_info()[0] for b in (state, out, firsts, codes, valid))
    checks = (None, 0, None, 0, None)
    seen = None
    if table is not None:
        words, pool, reads, scratch = table
        checks = (words.buffer_info()[0], len(words) // 5, pool, reads, scratch.buffer_info()[0])
        seen = _code_set((), 2 << per_call.bit_length())  # over twice a call's children
    call = functools.partial(
        fn, state_at, seed, length, None if mask is None else mask.doubles.buffer_info()[0],
        0 if mask is None else mask.argmax, *checks)
    done = known = 0
    while done < n:
        k = min(per_call, n - done)
        where = (None, 0)  # no set of codes: every child is kept
        if seen is not None:
            if 2 * (known + k) > len(seen):
                seen = _code_set([c for c in seen if c != _UNSEEN], 2 << (known + k).bit_length())
            where = (seen.buffer_info()[0], len(seen) - 1)
        kept = call(*where, k, out_at, capacity, firsts_at, codes_at, valid_at)
        rng.setstate((version, tuple(state), gauss))
        # A call that fills the buffer stops at the child it keeps last.
        if kept == capacity:
            k = firsts[kept - 1] + 1
        yield k, firsts[:kept], view, codes[:kept], valid_view[:k + 1]
        done += k
        known += kept


def mutate_chunks(
    seed: bytes, mask: Optional[MutationMask], rng: random.Random, n: int
) -> Iterator[tuple[bytes, int]]:
    """The children of ``n`` calls of ``mutate(seed, mask, rng,
    draw_op_count(rng))``, as ``(children, k)`` chunks: k children of
    ``len(seed)`` bytes one after another in the bytes ``children``. The
    kernel makes each chunk in one call (see ``kernel_calls``); where it
    cannot be loaded, or the seed is 2**32 bytes or longer, ``mutate``
    makes chunks of the same size.

    The inputs are checked at once, and an empty round loads nothing. A
    chunk is made when it is taken, and leaves ``rng`` where that many
    calls of ``mutate`` would; nothing else draws from ``rng`` until the
    last chunk is taken.
    """
    _check(seed, mask)
    if n < 1:  # nothing to make, so nothing to load
        return iter(())
    length = len(seed)
    fn = _kernel() if length < 1 << 32 else None
    if fn is not None:
        return ((out[:k * length].tobytes(), k)
                for k, _, out, _, _ in kernel_calls(fn, seed, mask, rng, n))
    per_call = min(_CALL_CHILDREN, max(1, _CALL_BYTES // length))
    sizes = (min(per_call, n - done) for done in range(0, n, per_call))
    return ((b"".join([mutate(seed, mask, rng, draw_op_count(rng)) for _ in range(k)]), k)
            for k in sizes)
