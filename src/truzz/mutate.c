/* Mutation kernel for truzz: one call makes a round's children.

   truzz_mutate_round writes n children of seed, one after another, into
   out. They are the children n calls of
   mutate(seed, mask, rng, draw_op_count(rng)) in mutation.py would make,
   from the same MT19937 words in the same order: mutation.py is the
   specification, and this file decodes the words as CPython's random
   module does. state holds the 624 words and the index that
   random.Random.getstate() returns, and is advanced in place. probability
   is the mask, one entry per seed byte, or NULL for no mask; argmax is
   the mask's most mutable byte. */
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
} stream;

/* genrand_uint32 of CPython's _randommodule.c. */
static uint32_t word(stream *s) {
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t *mt = s->mt, y;
    if (s->index >= N) {
        int k;
        for (k = 0; k < N - M; k++) {
            y = (mt[k] & 0x80000000U) | (mt[k + 1] & 0x7fffffffU);
            mt[k] = mt[k + M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; k < N - 1; k++) {
            y = (mt[k] & 0x80000000U) | (mt[k + 1] & 0x7fffffffU);
            mt[k] = mt[k + (M - N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[N - 1] = mt[M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        s->index = 0;
    }
    y = mt[s->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* randrange(n), 0 < n < 2**32: getrandbits(n.bit_length()), which is the
   top bits of one word, drawn again while it is >= n. */
static uint32_t below(stream *s, uint32_t n) {
    int shift = __builtin_clz(n);
    uint32_t r;
    while ((r = word(s) >> shift) >= n) {
    }
    return r;
}

/* random(): 53 bits from two words. */
static double uniform(stream *s) {
    uint32_t a = word(s) >> 5, b = word(s) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* 0 < length < 2**32, and probability, if given, has length entries. */
void truzz_mutate_round(uint32_t *state, const unsigned char *seed, size_t length,
                        const double *probability, size_t argmax, size_t n,
                        unsigned char *out) {
    stream s = {state, state[N]};
    const uint64_t tries = (uint64_t)RETRY_FACTOR * length;
    for (; n; n--, out += length) {
        memcpy(out, seed, length);
        for (uint32_t ops = 1U << below(&s, OP_COUNT_MAX_EXP + 1); ops; ops--) {
            uint32_t idx = 0;
            if (!probability) {
                idx = below(&s, (uint32_t)length);
            } else {
                uint64_t t;
                for (t = 0; t < tries; t++) {
                    idx = below(&s, (uint32_t)length);
                    double p = probability[idx];
                    if (p >= 1.0 || uniform(&s) < p) break;
                }
                if (t == tries) idx = (uint32_t)argmax;
            }
            switch (below(&s, 4)) {
            case 0: /* BIT_FLIP */
                out[idx] ^= (unsigned char)(1U << below(&s, 8));
                break;
            case 1: /* BYTE_RANDOM */
                out[idx] = (unsigned char)below(&s, 256);
                break;
            case 2: { /* BYTE_ARITH: the delta, then its sign */
                unsigned char delta = (unsigned char)(below(&s, ARITH_MAX) + 1);
                out[idx] = (unsigned char)(below(&s, 2) ? out[idx] - delta : out[idx] + delta);
                break;
            }
            default: /* INTERESTING_BYTE */
                out[idx] = interesting[below(&s, sizeof interesting)];
            }
        }
    }
    state[N] = s.index;
}
