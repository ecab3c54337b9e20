/* Range coder and coefficient-block writer of the slice-encode kernel.
 *
 * Not a kernel of its own: _kernels.c includes it before
 * _encode_kernel.c.  coeff_block() codes one whole coefficient block exactly as
 * syntax.encode_coeff_block does: the cbf=1 context bin, the
 * last-position adaptive-UEG code, then the fused significance /
 * level / sign scan of BinaryEncoder.encode_coeff_scan.  The range
 * coder is the same LZMA-style design (32-bit range, 64-bit low with
 * carry propagation, 11-bit probabilities, shift-5 adaptation) and
 * every integer operation is exact in uint32/uint64, so the bytes
 * emitted -- and the coder state left behind (low/range/carry cache
 * and every context probability) -- are bit-identical to the
 * pure-Python loops.  tests/test_slice_encode.py and
 * tests/test_encode_fuzz.py lock the two together.
 *
 * Carry propagation never rewrites already-emitted bytes: a carry out
 * of the 32-bit low lands in the pending (cache, cache_size) pair at
 * the moment those bytes are flushed, which is what lets the coder
 * append to a caller-provided output buffer.  Every function returns
 * 0 = ok, 1 = output buffer full (the slice kernel turns that into a
 * refusal and the Python twin re-codes the slice).
 *
 * The probability constants come from _contexts_kernel.c.
 */

#include <stdint.h>

#define MASK32 0xFFFFFFFFull

/* Element classes of the optional bit ledger, a subset of
 * telemetry.codecstats.BIT_CLASSES in stream order. */
enum { E_SPLIT, E_INTRA_MODE, E_CBF, E_LAST, E_SIG, E_LEVEL, N_ELEMENTS };

typedef struct {
    uint64_t low;
    uint32_t rng;
    int64_t cache;
    int64_t csize;
    uint8_t *out;
    int64_t cap;
    int64_t len;
    int64_t *bits; /* int64[N_ELEMENTS] ledger, NULL = not instrumented */
    int64_t mark;  /* tell() where the last charged element ended */
} enc_coder;

/* BinaryEncoder.tell_bits for a coder whose `out` holds every byte
 * emitted so far; 32 - bit_length(rng) is clz (rng >= 2^24 between
 * bins, so never zero). */
static inline int64_t tell(const enc_coder *c)
{
    return 8 * (c->len + c->csize) + __builtin_clz(c->rng);
}

/* Book the bits since the previous element boundary to one class: the
 * same telescoping tell_bits deltas the instrumented Python writer
 * takes around each element. */
static inline void charge(enc_coder *c, int element)
{
    if (c->bits) {
        int64_t now = tell(c);
        c->bits[element] += now - c->mark;
        c->mark = now;
    }
}

/* BinaryEncoder._shift_low: flush the carry cache when low leaves the
 * [0xFF000000, 0xFFFFFFFF] pending window, then shift low up a byte. */
static inline int shift_low(enc_coder *c)
{
    if (c->low < 0xFF000000ull || c->low > MASK32) {
        uint64_t carry = c->low >> 32;
        int64_t j;
        if (c->len + c->csize > c->cap)
            return 1;
        c->out[c->len++] = (uint8_t)((c->cache + (int64_t)carry) & 0xFF);
        for (j = 0; j < c->csize - 1; j++)
            c->out[c->len++] = (uint8_t)((0xFF + carry) & 0xFF);
        c->cache = (int64_t)((c->low >> 24) & 0xFF);
        c->csize = 0;
    }
    c->csize += 1;
    c->low = (c->low << 8) & MASK32;
    return 0;
}

/* The `while range < TOP` loop of BinaryEncoder._renorm. */
static inline int enc_renorm(enc_coder *c)
{
    while (c->rng < TOP) {
        c->rng <<= 8; /* (rng << 8) & MASK32: uint32 wraps identically */
        if (shift_low(c))
            return 1;
    }
    return 0;
}

/* BinaryEncoder.finish: five shifts push the pending bytes and low out. */
static int finish(enc_coder *c)
{
    int i;
    for (i = 0; i < 5; i++)
        if (shift_low(c))
            return 1;
    return 0;
}

/* BinaryEncoder.encode_bit on localized state. */
static inline int ctx_bin(enc_coder *c, int32_t *probs, int64_t idx,
                          int bit)
{
    int32_t prob = probs[idx];
    uint32_t bound = (c->rng >> PROB_BITS) * (uint32_t)prob;
    if (bit == 0) {
        c->rng = bound;
        probs[idx] = prob + ((PROB_ONE - prob) >> ADAPT_SHIFT);
    } else {
        c->low += bound;
        c->rng -= bound;
        probs[idx] = prob - (prob >> ADAPT_SHIFT);
    }
    if (c->rng < TOP)
        return enc_renorm(c);
    return 0;
}

static inline int bypass_bin(enc_coder *c, int bit)
{
    c->rng >>= 1;
    if (bit)
        c->low += c->rng;
    if (c->rng < TOP)
        return enc_renorm(c);
    return 0;
}

/* BinaryEncoder.encode_ueg: adaptive truncated-unary prefix over
 * probs[base .. base+max_prefix-1] (top context reused at saturation),
 * order-k Exp-Golomb bypass suffix beyond max_prefix.  The combined
 * 2*prefix_len..0 loop emits prefix_len leading zero bypasses followed
 * by shifted msb-first in prefix_len + 1 bins; shifted >> shift is
 * only evaluated for shift <= prefix_len (<= 63), mirroring Python's
 * short-circuit -- a shift of 64+ on uint64 would be undefined. */
static inline int ueg(enc_coder *c, int32_t *probs, int64_t base,
                      uint64_t value, int64_t max_prefix, int64_t k)
{
    int64_t top_ctx = max_prefix - 1;
    int64_t prefix =
        value < (uint64_t)max_prefix ? (int64_t)value : max_prefix;
    int64_t t;
    for (t = 0; t < prefix; t++)
        if (ctx_bin(c, probs, base + (t < top_ctx ? t : top_ctx), 1))
            return 1;
    if (prefix < max_prefix)
        return ctx_bin(c, probs, base + (prefix < top_ctx ? prefix : top_ctx),
                       0);
    uint64_t remainder = value - (uint64_t)max_prefix;
    uint64_t shifted = (remainder >> k) + 1;
    int64_t prefix_len = 0;
    uint64_t s = shifted;
    while (s > 1) {
        s >>= 1;
        prefix_len++;
    }
    int64_t shift;
    for (shift = 2 * prefix_len; shift >= 0; shift--)
        if (bypass_bin(c, shift <= prefix_len && ((shifted >> shift) & 1)))
            return 1;
    for (shift = k - 1; shift >= 0; shift--)
        if (bypass_bin(c, (remainder >> shift) & 1))
            return 1;
    return 0;
}

/* cbf = 1, the last-position UEG and the fused scan of one n x n block
 * whose highest nonzero scan position is `last`.  The four probability
 * pointers address the block's own contexts (class offsets applied by
 * the caller); the significance context of scan position i is bucket
 * 0 (i < 2), 1 (i < n) or 2, syntax._sig_buckets. */
static int coeff_block(enc_coder *c, const int64_t *scanned, int64_t last,
                       int64_t n, int32_t *cbf_prob, int32_t *last_probs,
                       int64_t last_max_prefix, int64_t last_k,
                       int32_t *sig_probs, int32_t *level_probs,
                       int64_t max_prefix, int64_t k)
{
    int64_t i;

    if (ctx_bin(c, cbf_prob, 0, 1))
        return 1;
    charge(c, E_CBF);
    if (ueg(c, last_probs, 0, (uint64_t)last, last_max_prefix, last_k))
        return 1;
    charge(c, E_LAST);
    for (i = last; i >= 0; i--) {
        int64_t level = scanned[i];
        if (i != last) {
            if (ctx_bin(c, sig_probs, i < 2 ? 0 : (i < n ? 1 : 2),
                        level != 0))
                return 1;
            charge(c, E_SIG);
            if (level == 0)
                continue;
        }
        /* magnitude - 1; the negation is done in uint64 so INT64_MIN
         * (can't occur from the quantizer, but legal input) stays
         * exact, matching Python's unbounded ints. */
        uint64_t mag = level < 0 ? (uint64_t)0 - (uint64_t)level
                                 : (uint64_t)level;
        if (ueg(c, level_probs, 0, mag - 1, max_prefix, k))
            return 1;
        if (bypass_bin(c, level < 0))
            return 1;
        charge(c, E_LEVEL);
    }
    return 0;
}
