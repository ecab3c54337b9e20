/* The range coder's constants and the layout of CodecContexts, shared by
 * the slice-decode and slice-encode kernels.
 *
 * Not a kernel of its own: _slice_kernel.c and _encode_kernel.c each
 * #include this file (it is part of both content hashes, see
 * native._Kernel.includes), so a slice's starting contexts -- every
 * probability equiprobable, the banks laid out in CodecContexts.banks()
 * order -- have one C definition, the twin of CodecContexts().
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
