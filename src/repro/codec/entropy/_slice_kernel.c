/* Whole-slice entropy decode: one call drains a group of consecutive
 * CRC-verified slices (llm265_decode_slices, at the end of the file).
 *
 * Per slice it walks the CTU quadtree exactly as FrameDecoder._plan_cu
 * / _plan_leaf do -- split flags, pred_flag, the 3-entry MPM intra-mode
 * scheme read against a plan-time mode map, motion vectors (adaptive
 * UEG + sign, bounds-checked against the reference frame), cbf, the
 * last-position UEG and the fused significance / level / sign
 * coefficient scan of BinaryDecoder.decode_coeff_scan -- and appends to
 * the group's one flat leaf plan: a (PLAN_ROWS, leaf_cap) int64 table
 * with one column per leaf in decode order plus one scan-order level
 * buffer that coded leaves index through their coeff_offset row
 * (-1 = cbf 0, no levels stored).
 *
 * The range decoder is the same LZMA-style design as arithmetic.py
 * (32-bit range/code, 11-bit probabilities, shift-5 adaptation, one
 * byte shift per renormalisation: adapted probabilities stay inside
 * [31, 2017], so a single shift always restores range >= 2^24) and
 * every operation is exact in uint32/int64, so the plan, the coder
 * end state reported per slice and every context bank -- one
 * CodecContexts' worth per slice, set up as the encode kernel sets
 * them up (_contexts_kernel.c) and adapted here -- are
 * bit-identical to the Python walk.  tests/test_fast_decode.py and
 * tests/test_decode_groups.py lock the two together.
 *
 * This file is a trust boundary: the slice bytes are hostile input.
 * Every table write is capacity-checked, every decoded index is
 * range-checked, and nothing is ever formatted here: any non-zero
 * status makes the caller re-decode that slice with the Python walk,
 * which raises the canonical typed error.
 *
 * Slice status: 0 = ok, 1 = runaway Exp-Golomb suffix, 2 = level
 * magnitude beyond int64, 3 = last position out of range, 4 = intra
 * mode index out of range, 5 = motion vector outside the reference,
 * 6 = plan or level capacity would be exceeded, 7 = block geometry
 * this kernel does not handle.
 *
 * Built on demand by repro.codec.entropy.native.
 */

#include <stdint.h>

enum {
    DS_OK,
    DS_UEG,
    DS_OVERFLOW,
    DS_LAST,
    DS_MODE,
    DS_MV,
    DS_CAPACITY,
    DS_GEOMETRY
};

/* The range decoder's state.  Every bin primitive below takes it by
 * pointer and is always inlined, so a caller that copies it into a
 * local keeps it in registers for as long as it runs. */
typedef struct {
    const uint8_t *next; /* the next byte, while any are left */
    int64_t left; /* bytes not yet read; past the end the coder reads zeros */
    uint32_t rng, code;
} dec_coder;

typedef struct {
    dec_coder c;
    int64_t dlen; /* the slice's bytes: its position is dlen - c.left */
    int64_t bins; /* coefficient-scan bins, as BinaryDecoder.scan_bins */
    int32_t *const *banks;
    int64_t height, width, min_cu;
    int use_partition, use_intra, inter_allowed;
    const int32_t *all_modes;
    int64_t n_modes;
    int8_t *mode_map; /* one cell per 4x4 samples, -1 = not yet planned */
    int64_t map_w;
    int64_t *plan, leaf_cap, n_leaves;
    int64_t *levels, level_cap, n_levels;
    int64_t ctu_index;
} slice;

#define INLINE static inline __attribute__((always_inline))
#define UNLIKELY(x) __builtin_expect(!!(x), 0)

/* One byte shift when the range drops below 2^24.  This branch stays:
 * its shift-by-mask form, with the byte read through a selected
 * pointer, measured 38 % slower on the whole scan (docs/PERFORMANCE.md). */
INLINE void dec_renorm(dec_coder *c)
{
    if (c->rng < TOP) {
        c->rng <<= 8;
        c->code = (c->code << 8) | (c->left > 0 ? *c->next++ : 0);
        c->left--;
    }
}

/* BinaryDecoder.decode_bit on *prob, written without a branch on the
 * bin: the compare gives the bit, which selects the new code, range
 * and probability (where the caller branches on the bit anyway, the
 * compiler may fold the selects into that branch).  Both adaptations
 * are one expression: with a target of 0 for a one and
 * PROB_ONE - 2^ADAPT_SHIFT + 1 for a zero, p - ((p - target) >>
 * ADAPT_SHIFT) (an arithmetic shift, flooring) is p - (p >>
 * ADAPT_SHIFT) and p + ((PROB_ONE - p) >> ADAPT_SHIFT) respectively,
 * for every p in [31, 2017], the range the coder keeps them in. */
INLINE uint32_t bin(dec_coder *c, int32_t *prob)
{
    int32_t p = *prob;
    uint32_t bound = (c->rng >> PROB_BITS) * (uint32_t)p;
    uint32_t bit = c->code >= bound;
    int32_t target = bit ? 0 : PROB_ONE - (1 << ADAPT_SHIFT) + 1;

    c->code = bit ? c->code - bound : c->code;
    c->rng = bit ? c->rng - bound : bound;
    *prob = p - ((p - target) >> ADAPT_SHIFT);
    dec_renorm(c);
    return bit;
}

/* BinaryDecoder.decode_bypass. */
INLINE uint32_t bypass(dec_coder *c)
{
    uint32_t bit;

    c->rng >>= 1;
    bit = c->code >= c->rng;
    c->code -= c->rng & (0u - bit);
    dec_renorm(c);
    return bit;
}

/* BinaryDecoder.decode_ueg for the small syntax elements (last
 * position, motion vectors).  Every value these may legally take is
 * far below 2^60, so a longer Exp-Golomb prefix is reported as runaway
 * here and left to the Python walk to classify. */
static int small_ueg(slice *s, int32_t *probs, int64_t max_prefix,
                     int64_t *value)
{
    int64_t prefix = 0, prefix_len = 0, j;
    uint64_t shifted = 1, suffix = 0;
    while (prefix < max_prefix) {
        int64_t ctx = prefix < max_prefix - 1 ? prefix : max_prefix - 1;
        if (bin(&s->c, probs + ctx) == 0) {
            *value = prefix;
            return DS_OK;
        }
        prefix++;
    }
    while (bypass(&s->c) == 0)
        if (++prefix_len > 60)
            return DS_UEG;
    for (j = 0; j < prefix_len; j++)
        shifted = (shifted << 1) | (uint64_t)bypass(&s->c);
    for (j = 0; j < UEG_K; j++)
        suffix = (suffix << 1) | (uint64_t)bypass(&s->c);
    *value = max_prefix + (int64_t)(((shifted - 1) << UEG_K) | suffix);
    return DS_OK;
}

/* The level of one significant position: its adaptive truncated-unary
 * magnitude prefix on the class's three level contexts, an order-k
 * Exp-Golomb bypass suffix past them, then the sign bypass bin --
 * written to *out, its bins added to *bins. */
INLINE int level(dec_coder *c, int32_t *l0, int32_t *l1, int32_t *l2,
                 int64_t *bins, int64_t *out)
{
    uint64_t magnitude, negative;

    if (!bin(c, l0)) {
        magnitude = 1;
        *bins += 2; /* terminator + sign */
    } else if (!bin(c, l1)) {
        magnitude = 2;
        *bins += 3;
    } else if (!bin(c, l2)) {
        magnitude = 3;
        *bins += 4;
    } else {
        /* prefix_len zeros up to a one, then prefix_len mantissa and
         * the k suffix bins: ((shifted - 1) << k) | suffix, accumulated
         * as one run and re-based below. */
        unsigned __int128 shifted = 1, value;
        int64_t prefix_len = 0, j;
        while (!bypass(c))
            if (UNLIKELY(++prefix_len > 64))
                return DS_UEG;
        for (j = 0; j < prefix_len + UEG_K; j++)
            shifted = (shifted << 1) | bypass(c);
        value = (unsigned __int128)LEVEL_PREFIX + shifted -
                ((unsigned __int128)1 << UEG_K) + 1;
        *bins += LEVEL_PREFIX + 2 * prefix_len + UEG_K + 2;
        if (UNLIKELY(value > (unsigned __int128)INT64_MAX)) {
            bypass(c); /* the sign, as the scan reads it before refusing */
            return DS_OVERFLOW;
        }
        magnitude = (uint64_t)value;
    }
    negative = 0u - (uint64_t)bypass(c);
    *out = (int64_t)((magnitude ^ negative) - negative);
    return DS_OK;
}

/* BinaryDecoder.decode_coeff_scan -- the hot loop, ~99 % of a slice's
 * bins -- writing the n * n levels of one block in scan order to
 * `out`.  The coder and the class's three significance and three
 * level probabilities live in locals for the whole scan and go back
 * on every exit, a refusal's too.  The significance context is 2
 * above scan position n, 1 down to position 2 and 0 below, so the scan
 * runs as three segments of one body.  Only the positions above
 * `last` are zero-filled up front; the scan writes every other one.
 * scan_bins grows only when the whole block decoded.  Kept out of line
 * so that its locals, not the quadtree walk's, get the registers. */
static __attribute__((noinline)) int coeff_scan(slice *s, int64_t n,
                                                int64_t cls, int64_t last,
                                                int64_t *out)
{
    dec_coder c = s->c;
    int32_t *sig_probs = s->banks[B_SIG] + cls * SIG_CTX_PER_CLASS;
    int32_t *level_probs = s->banks[B_LEVEL] + cls * LEVEL_PREFIX;
    int32_t s0 = sig_probs[0], s1 = sig_probs[1], s2 = sig_probs[2];
    int32_t l0 = level_probs[0], l1 = level_probs[1], l2 = level_probs[2];
    int64_t bins = last; /* one significance bin per non-last position */
    int64_t i, *at = out + last; /* one past the next position */
    int status;

    for (i = last + 1; i < n * n; i++)
        out[i] = 0;
    status = level(&c, &l0, &l1, &l2, &bins, out + last);
    if (status)
        goto done;
#define SEGMENT(to, sig)                                                  \
    while (at > out + (to)) {                                            \
        --at;                                                            \
        if (!bin(&c, &(sig)))                                            \
            *at = 0;                                                     \
        else if ((status = level(&c, &l0, &l1, &l2, &bins, at)))         \
            goto done;                                                   \
    }
    SEGMENT(n, s2)
    SEGMENT(2, s1)
    SEGMENT(0, s0)
#undef SEGMENT
    s->bins += bins;
done:
    sig_probs[0] = s0;
    sig_probs[1] = s1;
    sig_probs[2] = s2;
    level_probs[0] = l0;
    level_probs[1] = l1;
    level_probs[2] = l2;
    s->c = c;
    return status;
}

static inline int in_mpm(const int *mpm, int mode)
{
    return mode == mpm[0] || mode == mpm[1] || mode == mpm[2];
}

/* intra.most_probable_modes + syntax.decode_intra_mode. */
static int intra_mode(slice *s, int left, int top, int64_t *mode_out)
{
    static const int fallbacks[3] = {MODE_PLANAR, MODE_DC, 26};
    int a = left >= 0 ? left : MODE_DC;
    int b = top >= 0 ? top : MODE_DC;
    int mpm[3];
    int64_t i, remaining = 0, width = 1, index = 0;

    if (a == b) {
        if (a < ANGULAR_FIRST) {
            mpm[0] = MODE_PLANAR;
            mpm[1] = MODE_DC;
            mpm[2] = 26;
        } else {
            mpm[0] = a;
            mpm[1] = ANGULAR_FIRST +
                     (a - ANGULAR_FIRST + N_ANGULAR - 1) % N_ANGULAR;
            mpm[2] = ANGULAR_FIRST + (a - ANGULAR_FIRST + 1) % N_ANGULAR;
        }
    } else {
        mpm[0] = a;
        mpm[1] = b;
        mpm[2] = -1;
        for (i = 0; i < 3; i++)
            if (fallbacks[i] != a && fallbacks[i] != b) {
                mpm[2] = fallbacks[i];
                break;
            }
    }
    if (bin(&s->c, s->banks[B_MPM_FLAG])) {
        if (bin(&s->c, s->banks[B_MPM_INDEX]) == 0)
            *mode_out = mpm[0];
        else
            *mode_out = mpm[1 + bin(&s->c, s->banks[B_MPM_INDEX] + 1)];
        return DS_OK;
    }
    for (i = 0; i < s->n_modes; i++)
        if (!in_mpm(mpm, s->all_modes[i]))
            remaining++;
    if (remaining == 0)
        return DS_MODE;
    while (((int64_t)1 << width) < remaining)
        width++; /* max(1, (remaining - 1).bit_length()) */
    for (i = 0; i < width; i++)
        index = (index << 1) | bypass(&s->c);
    if (index >= remaining)
        return DS_MODE;
    for (i = 0; i < s->n_modes; i++)
        if (!in_mpm(mpm, s->all_modes[i]) && index-- == 0) {
            *mode_out = s->all_modes[i];
            return DS_OK;
        }
    return DS_MODE;
}

/* FrameDecoder._plan_leaf. */
static int leaf(slice *s, int64_t y0, int64_t x0, int64_t size)
{
    int64_t cls, mode = -1, ry = 0, rx = 0, coeff = -1, y, x, col;
    int is_inter = 0, status;

    switch (size) {
    case 4: cls = 0; break;
    case 8: cls = 1; break;
    case 16: cls = 2; break;
    case 32: cls = 3; break;
    case 64: cls = 4; break;
    default: return DS_GEOMETRY;
    }
    if (s->n_leaves >= s->leaf_cap)
        return DS_CAPACITY;
    if (s->inter_allowed)
        is_inter = bin(&s->c, s->banks[B_PRED]);
    if (is_inter) {
        int64_t mv[2];
        int axis;
        for (axis = 0; axis < 2; axis++) {
            status = small_ueg(s, s->banks[B_MV] + axis * RUN_PREFIX,
                               RUN_PREFIX, &mv[axis]);
            if (status)
                return status;
            if (mv[axis] && bypass(&s->c))
                mv[axis] = -mv[axis];
        }
        ry = y0 + mv[0];
        rx = x0 + mv[1];
        /* The reference frame has this slice's (padded) dimensions. */
        if (ry < 0 || ry > s->height - size || rx < 0 ||
            rx > s->width - size)
            return DS_MV;
    } else if (s->use_intra) {
        status = intra_mode(
            s, neighbor_mode(s->mode_map, s->map_w, y0, x0 - 1),
            neighbor_mode(s->mode_map, s->map_w, y0 - 1, x0), &mode);
        if (status)
            return status;
    }
    if (bin(&s->c, s->banks[B_CBF])) {
        int64_t last;
        status = small_ueg(s, s->banks[B_LAST] + cls * LAST_PREFIX,
                           LAST_PREFIX, &last);
        if (status)
            return status;
        if (last >= size * size)
            return DS_LAST;
        if (s->n_levels + size * size > s->level_cap)
            return DS_CAPACITY;
        coeff = s->n_levels;
        status = coeff_scan(s, size, cls, last, s->levels + coeff);
        if (status)
            return status;
        s->n_levels += size * size;
    }
    col = s->n_leaves++;
    s->plan[P_Y0 * s->leaf_cap + col] = y0;
    s->plan[P_X0 * s->leaf_cap + col] = x0;
    s->plan[P_SIZE * s->leaf_cap + col] = size;
    s->plan[P_MODE * s->leaf_cap + col] = mode;
    s->plan[P_INTER * s->leaf_cap + col] = is_inter;
    s->plan[P_RY * s->leaf_cap + col] = ry;
    s->plan[P_RX * s->leaf_cap + col] = rx;
    s->plan[P_CTU * s->leaf_cap + col] = s->ctu_index;
    s->plan[P_COEFF * s->leaf_cap + col] = coeff;
    /* Neighbour-mode contexts see inter / no-intra leaves as DC. */
    for (y = y0 >> 2; y < (y0 + size) >> 2; y++)
        for (x = x0 >> 2; x < (x0 + size) >> 2; x++)
            s->mode_map[y * s->map_w + x] =
                (int8_t)(mode >= 0 ? mode : MODE_DC);
    return DS_OK;
}

/* FrameDecoder._plan_cu.  Recursion is bounded: size starts at a CTU
 * of at most 64 and halves down to no less than 4. */
static int cu(slice *s, int64_t y0, int64_t x0, int64_t size, int64_t depth)
{
    if (s->use_partition && size > s->min_cu &&
        bin(&s->c, s->banks[B_SPLIT] + (depth < 5 ? depth : 5))) {
        int64_t half = size / 2;
        int q, status;
        if (half < 4)
            return DS_GEOMETRY;
        for (q = 0; q < 4; q++) {
            status = cu(s, y0 + (q >> 1) * half, x0 + (q & 1) * half, half,
                        depth + 1);
            if (status)
                return status;
        }
        return DS_OK;
    }
    return leaf(s, y0, x0, size);
}

/* Columns of the per-slice report (native.SLICE_REPORT). */
enum { DR_STATUS, DR_POS, DR_RANGE, DR_CODE, DR_BINS, DR_LEAF_END,
       DR_LEVEL_END, DR_COLS };

/* One slice of the group on fresh entropy state: BinaryDecoder.__init__
 * (the first byte is the encoder's cache seed, four code bytes, zero
 * past the end), CodecContexts() (fresh_contexts, in `bank`) and an
 * empty mode map.  Leaves, levels and
 * CTU indices run on from where the previous slice of the group left
 * them. */
static int one_slice(slice *s, const uint8_t *data, int64_t dlen,
                     int32_t *bank, int64_t ctu)
{
    int32_t *banks[N_BANKS];
    int64_t i, y0, x0;
    int status = DS_OK;

    s->dlen = dlen;
    s->c.next = dlen > 1 ? data + 1 : data;
    s->c.left = dlen - 1;
    s->c.rng = 0xFFFFFFFFu;
    s->c.code = 0;
    s->bins = 0;
    for (i = 0; i < 4; i++) {
        s->c.code = (s->c.code << 8) | (s->c.left > 0 ? *s->c.next++ : 0);
        s->c.left--;
    }
    fresh_contexts(bank, banks);
    s->banks = banks;
    for (i = 0; i < (s->height / 4) * s->map_w; i++)
        s->mode_map[i] = -1;
    for (y0 = 0; y0 < s->height && !status; y0 += ctu)
        for (x0 = 0; x0 < s->width && !status; x0 += ctu) {
            status = cu(s, y0, x0, ctu, 0);
            s->ctu_index++;
        }
    s->banks = 0;
    return status;
}

/* Drains `count` consecutive slices of one stream -- data[k], dlen[k]
 * -- into one leaf plan and one level buffer, each on a fresh coder and
 * fresh contexts, so coeff_offset indexes the group's one level buffer
 * and ctu_index numbers the group's CTUs slice after slice (the caller
 * keeps one QP per CTU of the group).  Both capacities are the group's.
 *
 * report (count x DR_COLS) receives per slice its status, the
 * coder's end state (position, range, code), its scan_bins and the
 * running leaf / level counts after it.  A slice that is refused gives
 * its columns back -- the counts after it are the counts before it, so
 * the ends are always non-decreasing slice boundaries -- and the slices
 * behind it are still decoded.  banks (count x BANK_TOTAL) is scratch
 * the caller provides: row k ends as slice k's adapted contexts.
 * mode_map holds (height / 4) * (width / 4) cells.
 *
 * Returns the number of refused slices. */
int64_t llm265_decode_slices(
    const uint8_t *const *data, const int64_t *dlen, int64_t count,
    int64_t *report, int32_t *banks,
    int64_t height, int64_t width, int64_t ctu, int64_t min_cu,
    int64_t use_partition, int64_t use_intra, int64_t inter_allowed,
    const int32_t *all_modes, int64_t n_modes,
    int8_t *mode_map,
    int64_t *plan, int64_t leaf_cap,
    int64_t *levels, int64_t level_cap)
{
    slice s = {
        {0, 0, 0, 0}, 0, 0, 0, height, width, min_cu,
        use_partition != 0, use_intra != 0, inter_allowed != 0,
        all_modes, n_modes, mode_map, width / 4,
        plan, leaf_cap, 0, levels, level_cap, 0, 0,
    };
    int geometry = (ctu == 4 || ctu == 8 || ctu == 16 || ctu == 32 ||
                    ctu == 64) &&
                   height > 0 && width > 0 && height % ctu == 0 &&
                   width % ctu == 0;
    int64_t ctus = geometry ? (height / ctu) * (width / ctu) : 0;
    int64_t k, refused = 0;

    for (k = 0; k < count; k++) {
        int64_t *row = report + k * DR_COLS;
        int64_t leaf_start = s.n_leaves, level_start = s.n_levels;
        int status = DS_GEOMETRY;

        s.ctu_index = k * ctus;
        if (geometry)
            status = one_slice(&s, data[k], dlen[k], banks + k * BANK_TOTAL,
                               ctu);
        if (status) {
            s.n_leaves = leaf_start;
            s.n_levels = level_start;
            refused++;
        }
        row[DR_STATUS] = status;
        row[DR_POS] = s.dlen - s.c.left;
        row[DR_RANGE] = s.c.rng;
        row[DR_CODE] = s.c.code;
        row[DR_BINS] = s.bins;
        row[DR_LEAF_END] = s.n_leaves;
        row[DR_LEVEL_END] = s.n_levels;
    }
    return refused;
}
