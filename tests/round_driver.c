/* Runs mutate.c's truzz_round over the cases of
   test_stream_identical_from_every_block_offset, for a build with
   -fsanitize=address: from MT block offsets 0-3 and 600-624, on seeds of
   1, 2, 3, 64, 100, 128 and 512 bytes, with no mask, a mixed mask and an
   all-floor mask, both keeping every child (seen == NULL) and with a
   two-check table, and with room for all 12 children and for 3. Every
   buffer the round is given is allocated to its exact size, so
   AddressSanitizer reports any access outside one of them or outside the
   round's own stream, such as a flag scan past the 8 zero flags that end
   a block, or a code written for a child that was not kept.

       cc -fsanitize=address -I src/truzz -o round_driver tests/round_driver.c

   It prints the number of rounds it ran. */
#include <stdio.h>
#include <stdlib.h>

#include "mutate.c"

#define CHILDREN 12
#define SLOTS 32 /* the set of codes: over twice a round's children */

/* MT19937's init_genrand(seed), with the index at offset. */
static void seed_state(uint32_t *state, uint32_t seed, uint32_t offset) {
    state[0] = seed;
    for (uint32_t i = 1; i < N; i++)
        state[i] = 1812433253U * (state[i - 1] ^ (state[i - 1] >> 30)) + i;
    state[N] = offset;
}

static void *allocate(size_t size) {
    void *p = calloc(1, size);
    if (!p) {
        perror("calloc");
        exit(2);
    }
    return p;
}

int main(void) {
    static const size_t lengths[] = {1, 2, 3, 64, 100, 128, 512};
    /* byte 0 at most 0x7f, a terminal validation check; then bytes 1 and
       2 both zero, a validation check */
    static const uint32_t table[] = {0, 1, 0, 1, TERMINAL | VALIDATION,
                                     1, 2, 2, 2, VALIDATION};
    static const unsigned char pool[] = {0x00, 0x7f, 0x00, 0x00};
    const size_t reads = 3;
    unsigned long rounds = 0;
    for (uint32_t offset = 0; offset <= N; offset = offset == 3 ? 600 : offset + 1) {
        for (size_t l = 0; l < sizeof lengths / sizeof *lengths; l++) {
            const size_t length = lengths[l];
            for (int kind = 0; kind < 3; kind++) {
                for (int c = 0; c < 4; c++) {
                    const int scored = c & 1;
                    const size_t capacity = c < 2 ? CHILDREN : 3;
                    uint32_t *state = allocate((N + 1) * sizeof *state);
                    unsigned char *seed = allocate(length);
                    double *probability = kind ? allocate(length * sizeof *probability) : NULL;
                    uint32_t *checks = NULL, *seen = NULL;
                    unsigned char *bounds = NULL, *scratch = NULL;
                    seed_state(state, (uint32_t)(length * 1000 + offset), offset);
                    for (size_t i = 0; i < length; i++) {
                        seed[i] = (unsigned char)(i * 37);
                        if (kind) probability[i] = kind == 1 ? (double[]){1.0, 0.3, 0.05}[i % 3] : 0.05;
                    }
                    if (scored) {
                        checks = allocate(sizeof table);
                        memcpy(checks, table, sizeof table);
                        bounds = allocate(sizeof pool);
                        memcpy(bounds, pool, sizeof pool);
                        scratch = allocate(reads);
                        seen = allocate(SLOTS * sizeof *seen);
                        for (size_t i = 0; i < SLOTS; i++) seen[i] = UNSEEN;
                    }
                    unsigned char *out = allocate(capacity * length);
                    uint32_t *firsts = allocate(capacity * sizeof *firsts);
                    uint32_t *codes = allocate(capacity * sizeof *codes);
                    uint32_t *valid = allocate((CHILDREN + 1) * sizeof *valid);
                    const size_t kept = truzz_round(
                        state, seed, length, probability, 0, checks, scored ? 2 : 0, bounds,
                        scored ? reads : 0, scratch, seen, SLOTS - 1, CHILDREN, out, capacity,
                        firsts, codes, valid);
                    if (kept < 1 || kept > capacity || (!scored && kept != capacity) ||
                        state[N] > N) {
                        fprintf(stderr, "offset %u, length %zu, mask %d, table %d, capacity %zu: "
                                "kept %zu\n", offset, length, kind, scored, capacity, kept);
                        return 1;
                    }
                    free(state), free(seed), free(probability), free(checks), free(bounds);
                    free(scratch), free(seen), free(out), free(firsts), free(codes), free(valid);
                    rounds++;
                }
            }
        }
    }
    printf("%lu rounds\n", rounds);
    return 0;
}
