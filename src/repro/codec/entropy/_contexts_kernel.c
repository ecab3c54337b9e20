/* The layouts every kernel of the library shares: the range coder's
 * constants, the context layout of CodecContexts and a slice's starting
 * contexts, the intra mode numbers, the leaf-plan rows and the mode map.
 *
 * Not a kernel of its own: _kernels.c includes it first, so each of
 * these has one C definition -- the slice decoder, the reconstruction
 * and the slice encoder all read them from here.
 */

#include <stdint.h>

/* arithmetic.py: 32-bit range, 11-bit probabilities, shift-5 adaptation. */
#define PROB_BITS 11
#define PROB_ONE 2048
#define PROB_INIT (PROB_ONE / 2)
#define ADAPT_SHIFT 5
#define TOP (1u << 24)

/* Context layout of repro.codec.syntax (CodecContexts). */
#define LAST_PREFIX 10
#define SIG_CTX_PER_CLASS 3
#define LEVEL_PREFIX 3
#define RUN_PREFIX 4
#define UEG_K 1

/* Bank order of CodecContexts.banks(), every bank's length, and their sum. */
enum { B_SPLIT, B_PRED, B_MPM_FLAG, B_MPM_INDEX, B_CBF, B_LAST, B_SIG,
       B_LEVEL, B_MV, N_BANKS };
static const int BANK_SIZES[N_BANKS] = {6, 1, 1, 2, 2, 50, 15, 15, 8};
#define BANK_TOTAL 100

/* Intra modes (repro.codec.intra): planar, DC, then the 33 angular ones. */
#define MODE_PLANAR 0
#define MODE_DC 1
#define ANGULAR_FIRST 2
#define ANGULAR_LAST 34
#define N_ANGULAR 33

/* Leaf-plan rows, in the order of native.PLAN_FIELDS. */
enum {
    P_Y0,
    P_X0,
    P_SIZE,
    P_MODE,
    P_INTER,
    P_RY,
    P_RX,
    P_CTU,
    P_COEFF,
    PLAN_ROWS
};

/* CodecContexts(): the BANK_TOTAL contexts of one slice in `bank`, every
 * one equiprobable; banks[b] is left pointing at bank b. */
static void fresh_contexts(int32_t *bank, int32_t **banks)
{
    int64_t i;

    for (i = 0; i < BANK_TOTAL; i++)
        bank[i] = PROB_INIT;
    for (i = 0; i < N_BANKS; i++) {
        banks[i] = bank;
        bank += BANK_SIZES[i];
    }
}

/* The mode of the leaf covering sample (y, x) on a mode map of one cell
 * per 4x4 samples, map_w cells a row (FrameDecoder._neighbor_mode);
 * -1 outside the frame. */
static inline int neighbor_mode(const int8_t *mode_map, int64_t map_w,
                                int64_t y, int64_t x)
{
    if (y < 0 || x < 0)
        return -1;
    return mode_map[(y >> 2) * map_w + (x >> 2)];
}
