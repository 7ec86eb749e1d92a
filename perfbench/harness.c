/*
 * Deterministic external target for the external-cmd workload.
 *
 * It follows the stage layout of the bundled magic64 synthetic target, so
 * the spec serves as ground truth for its edges: an 8-byte magic header
 * (VALIDATION, terminal on failure), an unconditional core region, and two
 * NON_VALIDATION branches on bytes 16 and 24. It aborts on one reachable
 * input class (byte 16 in [64, 127] and byte 24 >= 128), after flushing the
 * edges covered so far, so every edge it reports lies in a magic64 region.
 *
 * Usage: harness INPUT_FILE, with TRUZZ_COV_FILE naming the coverage dump.
 */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define INPUT_LENGTH 64

static FILE *cov;

static void region(int base, int count)
{
    for (int i = 0; i < count; i++)
        fprintf(cov, "%d\n", base + i);
}

int main(int argc, char **argv)
{
    static const unsigned char magic[8] = {0x89, 0x46, 0x5a, 0x5a, 0x31, 0x0d, 0x0a, 0x00};
    unsigned char in[INPUT_LENGTH] = {0};
    const char *cov_path = getenv("TRUZZ_COV_FILE");
    FILE *f;

    if (argc != 2 || cov_path == NULL)
        return 2;
    f = fopen(argv[1], "rb");
    if (f == NULL)
        return 2;
    /* Shorter inputs are zero-padded and longer ones truncated, as in the spec. */
    (void)fread(in, 1, INPUT_LENGTH, f);
    fclose(f);
    cov = fopen(cov_path, "w");
    if (cov == NULL)
        return 2;

    if (memcmp(in, magic, sizeof magic) != 0) {
        region(900, 5);
        fclose(cov);
        return 0;
    }
    region(0, 30);
    region(50, 40);
    int mode = in[16] >= 64 && in[16] <= 127;
    region(mode ? 100 : 150, 15);
    int flags = in[24] < 128;
    if (mode && !flags) {
        fflush(cov);
        abort();
    }
    region(flags ? 200 : 250, 15);
    fclose(cov);
    return 0;
}
