/* Round kernel for truzz: one call makes a round's children, and one
   scores them against a synthetic target.

   truzz_mutate_round writes n children of seed, one after another, into
   out. They are the children n calls of
   mutate(seed, mask, rng, draw_op_count(rng)) in mutation.py would make,
   from the same MT19937 words in the same order: mutation.py is the
   specification, and this file decodes the words as CPython's random
   module does. state holds the 624 words and the index that
   random.Random.getstate() returns, and is advanced in place. probability
   is the mask, one entry per seed byte, or NULL for no mask; argmax is
   the mask's most mutable byte. Each call draws its words from a block
   tempered all at once: the state is untempered, as getstate() gives it,
   and is written back untempered.

   truzz_score_round is described below. */
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
    uint32_t out[N]; /* mt[k] tempered, for k >= index */
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
    for (uint32_t k = s->index; k < N; k++) s->out[k] = temper(state[k]);
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
    for (k = 0; k < N; k++) s->out[k] = temper(mt[k]);
    s->index = 0;
}

static uint32_t word(stream *s) {
    if (s->index >= N) refill(s);
    return s->out[s->index++];
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
    stream s;
    open_stream(&s, state);
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

/* truzz_score_round scores n children of length bytes, laid one after
   another in children, against a synthetic target's checks, as
   CompiledTarget.run in target.py would: each child is read as if
   truncated or zero-padded to the target's input length, and the checks
   run in stage order until a TERMINAL one fails.

   checks holds 5 words per check: the first byte it reads, how many bytes
   it reads, the offsets in bounds of its lower and upper bound, and its
   flags. A child passes a check when lo <= its bytes <= hi, compared as
   byte strings. No check reads past byte reads - 1, and scratch holds
   reads bytes. n_checks is at most CODE_CHECKS.

   codes[i] gets bit j set when child i passed check j, and the number of
   checks it reached from bit CODE_SHIFT up. valid[i + 1] is how many of
   the first i + 1 children are valid, having passed every VALIDATION
   check they reached; valid[0] is 0. */
#define CODE_CHECKS 24
#define CODE_SHIFT 24
#define TERMINAL 1
#define VALIDATION 2

void truzz_score_round(const unsigned char *children, size_t length, size_t n,
                       const uint32_t *checks, size_t n_checks,
                       const unsigned char *bounds, size_t reads,
                       unsigned char *scratch, uint32_t *codes, uint32_t *valid) {
    const int padded = length < reads;
    if (padded) memset(scratch + length, 0, reads - length);
    valid[0] = 0;
    for (size_t i = 0; i < n; i++, children += length) {
        const unsigned char *data = children;
        uint32_t code = 0, reached = 0, is_valid = 1;
        if (padded) data = memcpy(scratch, children, length);
        while (reached < n_checks) {
            const uint32_t *c = checks + 5 * reached;
            const unsigned char *d = data + c[0];
            const int ok = c[2] == c[3] ? memcmp(d, bounds + c[2], c[1]) == 0
                                        : memcmp(bounds + c[2], d, c[1]) <= 0 &&
                                              memcmp(d, bounds + c[3], c[1]) <= 0;
            code |= (uint32_t)ok << reached++;
            if (!ok) {
                if (c[4] & VALIDATION) is_valid = 0;
                if (c[4] & TERMINAL) break;
            }
        }
        codes[i] = code | reached << CODE_SHIFT;
        valid[i + 1] = valid[i] + is_valid;
    }
}
