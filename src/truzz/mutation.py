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
"""

from __future__ import annotations

import random
from typing import Optional

from .byte_analysis import MutationMask

INTERESTING_BYTES = (0x00, 0xFF, 0x7F, 0x80, 0x01)
ARITH_MAX = 35
# Rejection-sampling retries before falling back to the most mutable byte.
RETRY_FACTOR = 16
OP_COUNT_MAX_EXP = 6  # ops per input drawn as 2**k, k in [0, OP_COUNT_MAX_EXP]

# Bits per draw in mutate's inlined randrange(n): n.bit_length().
_ARITH_BITS = ARITH_MAX.bit_length()
_INTERESTING_BITS = len(INTERESTING_BYTES).bit_length()


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
    data = bytearray(seed)
    length = len(data)
    if length < 1:
        raise ValueError("cannot mutate an empty input")
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
