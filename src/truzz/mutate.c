/* Round kernel for truzz. Its one entry point, truzz_round, makes the next
   children of a round for both kinds of target. Given a synthetic
   target's checks and the round's set of codes, it scores each child as
   it makes it and keeps only the first to reach each code, with its code;
   given seen == NULL and no checks, as for an external target, it keeps
   every child.

   The children are those n calls of
   mutate(seed, mask, rng, draw_op_count(rng)) in mutation.py would make,
   from the same MT19937 words in the same order: mutation.py is the
   specification, and this file decodes the words as CPython's random
   module does. state holds the 624 words and the index that
   random.Random.getstate() returns, and is advanced in place. probability
   is the mask, one entry per seed byte, or NULL for no mask; argmax is
   the mask's most mutable byte. Each call draws its words from a block
   tempered all at once: the state is untempered, as getstate() gives it,
   and is written back untempered.

   The block's tempering also writes each word's top bit to a flag. A draw
   below a power of two, 1 included, keeps a word exactly when that bit is
   clear, so it finds its word by scanning the flags 8 at a time instead
   of drawing word by word; it takes the same word, so the stream is
   CPython's, word for word. Those are the position draw on a seed whose
   length is a power of two and the operator, bit, byte and sign draws. */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define N 624
#define M 397
#define ARITH_MAX 35
#define RETRY_FACTOR 16
#define OP_COUNT_MAX_EXP 6

static const unsigned char interesting[] = {0x00, 0xFF, 0x7F, 0x80, 0x01};

typedef struct {
    uint32_t *mt;
    uint32_t index;
    uint32_t out[N];         /* mt[k] tempered, for k >= index */
    unsigned char top[N + 8]; /* out[k] >> 31, for k >= index; 0 past N */
} stream;

static uint32_t temper(uint32_t y) {
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* state, from getstate(), holds untempered words and may be mid-block, so
   the rest of its block is tempered here. */
static void open_stream(stream *s, uint32_t *state) {
    s->mt = state;
    s->index = state[N];
    for (uint32_t k = s->index; k < N; k++) s->top[k] = (s->out[k] = temper(state[k])) >> 31;
    memset(s->top + N, 0, 8);
}

/* The next block of genrand_uint32 of CPython's _randommodule.c, tempered
   at once. */
static void refill(stream *s) {
    uint32_t *mt = s->mt, y;
    int k;
    for (k = 0; k < N - M; k++) {
        y = (mt[k] & 0x80000000U) | (mt[k + 1] & 0x7fffffffU);
        mt[k] = mt[k + M] ^ (y >> 1) ^ (-(y & 0x1U) & 0x9908b0dfU);
    }
    for (; k < N - 1; k++) {
        y = (mt[k] & 0x80000000U) | (mt[k + 1] & 0x7fffffffU);
        mt[k] = mt[k + (M - N)] ^ (y >> 1) ^ (-(y & 0x1U) & 0x9908b0dfU);
    }
    y = (mt[N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
    mt[N - 1] = mt[M - 1] ^ (y >> 1) ^ (-(y & 0x1U) & 0x9908b0dfU);
    for (k = 0; k < N; k++) s->top[k] = (s->out[k] = temper(mt[k])) >> 31;
    s->index = 0;
}

static uint32_t word(stream *s) {
    if (s->index >= N) refill(s);
    return s->out[s->index++];
}

/* randrange(n), 0 < n < 2**32: getrandbits(n.bit_length()), which is the
   top bits of one word, drawn again while it is >= n.

   Where n is a power of two, n << shift is 2**31, so a word is kept
   exactly when its top bit is clear: the next kept word is the next 0 in
   top, found 8 flags at a time. A hit at or past N means the rest of the
   block was rejected. */
static uint32_t below(stream *s, uint32_t n) {
    int shift = __builtin_clz(n);
    uint32_t r;
    if (!(n & (n - 1))) {
        for (;;) {
            uint64_t rejected;
            memcpy(&rejected, s->top + s->index, 8);
            const uint64_t kept = rejected ^ 0x0101010101010101ULL;
            if (!kept) {
                s->index += 8; /* all 8 rejected, so all 8 are before N */
                continue;
            }
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__ /* top[index] is the high byte */
            const uint32_t k = s->index + (__builtin_clzll(kept) >> 3);
#else
            const uint32_t k = s->index + (__builtin_ctzll(kept) >> 3);
#endif
            if (k < N) {
                s->index = k + 1;
                return s->out[k] >> shift;
            }
            refill(s);
        }
    }
    while ((r = word(s) >> shift) >= n) {
    }
    return r;
}

/* random(): 53 bits from two words. */
static double uniform(stream *s) {
    uint32_t a = word(s) >> 5, b = word(s) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}


/* Writes to out the child of one call of mutate(seed, mask, rng,
   draw_op_count(rng)). 0 < length < 2**32, and probability, if given, has
   length entries. */
static void make_child(stream *s, const unsigned char *seed, size_t length,
                       const double *probability, size_t argmax, unsigned char *out) {
    const uint64_t tries = (uint64_t)RETRY_FACTOR * length;
    memcpy(out, seed, length);
    for (uint32_t ops = 1U << below(s, OP_COUNT_MAX_EXP + 1); ops; ops--) {
        uint32_t idx = 0;
        if (!probability) {
            idx = below(s, (uint32_t)length);
        } else {
            uint64_t t;
            for (t = 0; t < tries; t++) {
                idx = below(s, (uint32_t)length);
                double p = probability[idx];
                if (p >= 1.0 || uniform(s) < p) break;
            }
            if (t == tries) idx = (uint32_t)argmax;
        }
        switch (below(s, 4)) {
        case 0: /* BIT_FLIP */
            out[idx] ^= (unsigned char)(1U << below(s, 8));
            break;
        case 1: /* BYTE_RANDOM */
            out[idx] = (unsigned char)below(s, 256);
            break;
        case 2: { /* BYTE_ARITH: the delta, then its sign */
            unsigned char delta = (unsigned char)(below(s, ARITH_MAX) + 1);
            out[idx] = (unsigned char)(below(s, 2) ? out[idx] - delta : out[idx] + delta);
            break;
        }
        default: /* INTERESTING_BYTE */
            out[idx] = interesting[below(s, sizeof interesting)];
        }
    }
}

/* A synthetic target's checks, as CompiledTarget.run in target.py runs
   them: a child is read as if truncated or zero-padded to the target's
   input length, and the checks run in stage order until a TERMINAL one
   fails.

   checks holds 5 words per check: the first byte it reads, how many bytes
   it reads, the offsets in bounds of its lower and upper bound, and its
   flags. A child passes a check when lo <= its bytes <= hi, compared as
   byte strings. No check reads past byte reads - 1. n_checks is at most
   CODE_CHECKS.

   A child's code has bit j set when it passed check j, and the number of
   checks it reached from bit CODE_SHIFT up, so it is below 2**29. */
#define CODE_CHECKS 24
#define CODE_SHIFT 24
#define TERMINAL 1
#define VALIDATION 2
#define UNSEEN 0xFFFFFFFF /* no code: an empty slot of the set of codes */

/* The code of data, which holds reads bytes; *valid is 1 when it passed
   every VALIDATION check it reached, and 0 otherwise. */
static uint32_t score(const uint32_t *checks, size_t n_checks, const unsigned char *bounds,
                      const unsigned char *data, uint32_t *valid) {
    uint32_t code = 0, reached = 0;
    *valid = 1;
    while (reached < n_checks) {
        const uint32_t *c = checks + 5 * reached;
        const unsigned char *d = data + c[0];
        const int ok = c[2] == c[3] ? memcmp(d, bounds + c[2], c[1]) == 0
                                    : memcmp(bounds + c[2], d, c[1]) <= 0 &&
                                          memcmp(d, bounds + c[3], c[1]) <= 0;
        code |= (uint32_t)ok << reached++;
        if (!ok) {
            if (c[4] & VALIDATION) *valid = 0;
            if (c[4] & TERMINAL) break;
        }
    }
    return code | reached << CODE_SHIFT;
}

/* Adds code to the open-addressing set seen, of mask + 1 slots (a power
   of two) that start UNSEEN; 1 if it was not there, else 0. A slot must
   stay UNSEEN, or a search for a new code would not end. mutation.py's
   _code_set places codes as this does, to rebuild a set larger. */
static int add_code(uint32_t *seen, size_t mask, uint32_t code) {
    uint32_t h = code * 0x9E3779B1U;
    size_t i = (h ^ h >> 15) & mask;
    for (; seen[i] != UNSEEN; i = (i + 1) & mask)
        if (seen[i] == code) return 0;
    seen[i] = code;
    return 1;
}

/* truzz_round makes the next n children of a round and scores each as it
   makes it. Given seen, the round's set of codes (see add_code), with
   room for every code of its children, it keeps the first child of the
   round to reach each code; given seen == NULL, and no checks, it keeps
   every child.

   Each child is made in the next free slot of out, which has capacity
   slots of length bytes; a kept child keeps its slot, its index, counted
   from this call's first child, goes into firsts and its code into codes,
   both of capacity entries. scratch holds reads bytes, where a child
   shorter than that is zero-padded to be scored.

   valid[i] gets how many of the first i children are valid. The call
   returns the number of children kept. It stops after the child that
   fills the last slot, so it has made all n children unless it returns
   capacity. */
size_t truzz_round(uint32_t *state, const unsigned char *seed, size_t length,
                   const double *probability, size_t argmax,
                   const uint32_t *checks, size_t n_checks,
                   const unsigned char *bounds, size_t reads,
                   unsigned char *scratch, uint32_t *seen, size_t mask,
                   size_t n, unsigned char *out, size_t capacity,
                   uint32_t *firsts, uint32_t *codes, uint32_t *valid) {
    const int padded = length < reads;
    uint32_t count = valid[0] = 0, is_valid;
    uint32_t last = UNSEEN; /* the code of the child before, in seen already */
    size_t kept = 0;
    stream s;
    open_stream(&s, state);
    if (padded) memset(scratch + length, 0, reads - length);
    for (size_t i = 0; i < n; i++) {
        unsigned char *child = out + kept * length;
        make_child(&s, seed, length, probability, argmax, child);
        const uint32_t code = score(checks, n_checks, bounds,
                                    padded ? memcpy(scratch, child, length) : child, &is_valid);
        valid[i + 1] = count += is_valid;
        if (!seen || (code != last && add_code(seen, mask, code))) {
            codes[kept] = code;
            firsts[kept++] = (uint32_t)i;
            if (kept == capacity) break;
        }
        last = code;
    }
    state[N] = s.index;
    return kept;
}
