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

``mutate_chunks`` makes a whole round's children, a buffer of them at a
time, with the C kernel ``mutate.c``, which decodes the same words in the
same order, so its children and the ``Rng``'s state afterwards are those
of ``mutate`` called once per child. ``mutate`` is the kernel's
specification, and makes the chunks itself where the kernel cannot be
built or loaded.
"""

from __future__ import annotations

import functools
import random
from array import array
from typing import Iterator, Optional

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

# The most output one kernel call writes, in bytes: a round of 1024 children
# takes one call for a seed of up to 64 bytes, and several for a longer one,
# so the buffer adds at most 64 KiB to the peak RSS.
_CALL_BYTES = 1 << 16


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
    """``make(seed, mask, rng, k)``, which runs the kernel into a new buffer
    of k children of ``seed``, or None where ``mutate.c`` cannot be built
    or loaded. Loaded, and built if need be, on first use."""
    fn = native.function("mutate", "truzz_mutate_round")
    if fn is None or array("I").itemsize != 4:  # the state's words are uint32_t
        return None
    import ctypes

    address, size = ctypes.c_void_p, ctypes.c_size_t
    fn.argtypes = (address, ctypes.c_char_p, size, address, size, size, address)
    fn.restype = None

    def make(seed: bytes, mask: Optional[MutationMask], rng: random.Random, k: int):
        probs = None if mask is None else array("d", mask.probability)
        version, internal, gauss = rng.getstate()
        state = array("I", internal)  # the 624 words, then the index
        out = ctypes.create_string_buffer(k * len(seed))
        fn(state.buffer_info()[0], seed, len(seed), probs and probs.buffer_info()[0],
           0 if mask is None else mask.argmax, k, out)
        rng.setstate((version, tuple(state), gauss))
        return out

    return make


def _joined(seed: bytes, mask: Optional[MutationMask], rng: random.Random, k: int) -> bytes:
    """``_kernel``'s ``make`` where there is no kernel."""
    return b"".join([mutate(seed, mask, rng, draw_op_count(rng)) for _ in range(k)])


def mutate_chunks(
    seed: bytes, mask: Optional[MutationMask], rng: random.Random, n: int
) -> Iterator[tuple[object, int]]:
    """The children of ``n`` calls of ``mutate(seed, mask, rng,
    draw_op_count(rng))``, as ``(children, k)`` chunks: k children of
    ``len(seed)`` bytes one after another in ``children``, whose slices
    are bytes. The kernel makes each chunk in one call, writing at most
    ``_CALL_BYTES``; where it cannot be loaded, or the seed is 2**32 bytes
    or longer, ``mutate`` makes chunks of the same size.

    The inputs are checked at once, and an empty round loads nothing. A
    chunk is made when it is taken, and leaves ``rng`` where that many
    calls of ``mutate`` would.
    """
    _check(seed, mask)
    if n < 1:  # nothing to make, so nothing to load
        return iter(())
    make = _kernel()
    if make is None or len(seed) >= 1 << 32:
        make = _joined
    per_call = max(1, _CALL_BYTES // len(seed))
    sizes = (min(per_call, n - done) for done in range(0, n, per_call))
    return ((make(seed, mask, rng, k), k) for k in sizes)
