/* Whole-slice intra encode: one call plans, codes and writes every
 * slice of a group (llm265_encode_slices, at the end of the file).
 *
 * Per slice, from a fresh coder and fresh contexts, everything
 * FrameEncoder._encode_frame does after the group's batched pass 1 --
 * _turbo_choose, _turbo_commit / _code_leaf_fixed_mode, _write_cu and
 * BinaryEncoder.finish -- over the pass-1 best_mode / best_cost tables:
 *
 *   1. the quadtree DP per CTU with _turbo_choose's exact arithmetic
 *      (split_cost = lambda, += the four children in z-order, the leaf
 *      kept on ties);
 *   2. for every chosen leaf in decode order: reference gather ->
 *      predict -> residual -> forward DCT -> dead-zone quantize ->
 *      dequantize -> inverse DCT -> + prediction -> clip -> commit into
 *      recon / mask / mode map;
 *   3. the split flags, MPM intra modes, cbf, last-position UEG and
 *      the fused coefficient scan into the range coder, adapting the
 *      slice's own CodecContexts, then the coder's flush.
 *
 * It is the last file _kernels.c includes, because it builds on four
 * of the others: the coder constants and starting contexts of
 * _contexts_kernel.c (the decode kernel's too), the range coder and
 * the block writer of _write_kernel.c, the reference gather and intra
 * predictors of _recon_kernel.c and the codec's order-defined DCT pair
 * of _transform_kernel.c (the decoder's inverse transform is this
 * file's).  With the predictors, the transform and the clip being the
 * decoder's own code, the float64 plane produced here is the plane the
 * decoder reconstructs, bit for bit.
 *
 * Every write is capacity-checked and nothing is formatted here: a
 * non-zero slice status makes the caller re-code that slice with the
 * Python twin from a fresh coder and fresh contexts.
 *
 * Slice status: 0 = ok, 1 = output bytes would exceed out_cap, 2 =
 * plan or level capacity would be exceeded, 3 = geometry this kernel
 * does not handle (sizes, missing tables), 4 = a pass-1 mode the
 * profile cannot signal, 5 = a level that does not fit int64.
 *
 * Built on demand by repro.codec.entropy.native.
 */

#include <math.h>
#include <stdint.h>

#define MAX_DEPTH 5 /* a 64 CTU split down to 4 */
#define MAX_NODES 341 /* 1 + 4 + 16 + 64 + 256 */

enum { ES_OK, ES_BYTES, ES_CAPACITY, ES_GEOMETRY, ES_MODE, ES_LEVEL };

/* -- the slice ------------------------------------------------------------ */

typedef struct {
    enc_coder c;
    /* The current slice's source, reconstruction and coverage planes. */
    const double *frame;
    double *recon;
    uint8_t *mask;
    int64_t height, width, min_cu;
    int use_partition;
    /* The current slice's pass-1 tables by quadtree depth (block size
     * ctu >> depth), each (height / size) x (width / size) row-major. */
    const int64_t *best_mode[MAX_DEPTH];
    const double *best_cost[MAX_DEPTH];
    /* Per CTU of the group, in raster order slice after slice. */
    const double *ctu_step, *ctu_lambda;
    double step, lambda; /* of the current CTU */
    double deadzone;
    mm_fn mm; /* the ordered transform's body */
    const int32_t *all_modes;
    int64_t n_modes;
    /* By size class: DCT basis, its transpose (made on first use of
     * the class) and the zigzag scan order. */
    const double *const *basis;
    const int64_t *const *zigzag;
    transposes basis_t;
    int32_t *banks[N_BANKS]; /* the current slice's contexts */
    int8_t *mode_map; /* one cell per 4x4 samples, -1 = not yet coded */
    int64_t map_w;
    int64_t *plan, leaf_cap, n_leaves;
    int64_t *levels, level_cap, n_levels;
    int64_t ctu_index;
    uint8_t split[MAX_NODES]; /* DP decisions of the current CTU */
} enc_slice;

static const int NODE_BASE[MAX_DEPTH] = {0, 1, 5, 21, 85};

/* A node of the current CTU's quadtree: (ly, lx) on the depth's grid. */
static inline int node_index(int depth, int64_t ly, int64_t lx)
{
    return NODE_BASE[depth] + (int)(ly << depth) + (int)lx;
}

/* FrameEncoder._turbo_choose: fills s->split, returns the node's cost. */
static double choose(enc_slice *s, int64_t y0, int64_t x0, int64_t size,
                     int depth, int64_t ly, int64_t lx)
{
    double leaf_cost =
        s->best_cost[depth][(y0 / size) * (s->width / size) + x0 / size];
    double split_cost = s->lambda;
    int64_t half = size / 2;
    int q;

    if (!(s->use_partition && size > s->min_cu))
        return leaf_cost;
    for (q = 0; q < 4; q++)
        split_cost += choose(s, y0 + (q >> 1) * half, x0 + (q & 1) * half,
                             half, depth + 1, 2 * ly + (q >> 1),
                             2 * lx + (q & 1));
    if (leaf_cost + s->lambda <= split_cost) {
        s->split[node_index(depth, ly, lx)] = 0;
        return leaf_cost + s->lambda;
    }
    s->split[node_index(depth, ly, lx)] = 1;
    return split_cost;
}

/* intra.most_probable_modes + syntax.encode_intra_mode. */
static int write_intra_mode(enc_slice *s, int left, int top, int mode)
{
    static const int fallbacks[3] = {MODE_PLANAR, MODE_DC, 26};
    int a = left >= 0 ? left : MODE_DC;
    int b = top >= 0 ? top : MODE_DC;
    int mpm[3];
    int64_t i, remaining = 0, index = -1, width = 1;
    enc_coder *c = &s->c;

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
    for (i = 0; i < 3; i++)
        if (mpm[i] == mode) {
            if (ctx_bin(c, s->banks[B_MPM_FLAG], 0, 1) ||
                ctx_bin(c, s->banks[B_MPM_INDEX], 0, i > 0) ||
                (i > 0 && ctx_bin(c, s->banks[B_MPM_INDEX], 1, (int)i - 1)))
                return ES_BYTES;
            return ES_OK;
        }
    /* Index among the profile's modes outside the MPM set, coded in
     * max(1, (remaining - 1).bit_length()) bypass bins, msb first. */
    for (i = 0; i < s->n_modes; i++) {
        int m = s->all_modes[i];
        if (m == mpm[0] || m == mpm[1] || m == mpm[2])
            continue;
        if (m == mode)
            index = remaining;
        remaining++;
    }
    if (index < 0)
        return ES_MODE;
    while (((int64_t)1 << width) < remaining)
        width++;
    if (ctx_bin(c, s->banks[B_MPM_FLAG], 0, 0))
        return ES_BYTES;
    for (i = width - 1; i >= 0; i--)
        if (bypass_bin(c, (int)((index >> i) & 1)))
            return ES_BYTES;
    return ES_OK;
}

/* FrameEncoder._code_leaf_fixed_mode + the leaf half of _write_cu. */
static int code_leaf(enc_slice *s, int64_t y0, int64_t x0, int64_t n,
                     int depth)
{
    double top[2 * MAX_LEAF + 1], left[2 * MAX_LEAF + 1];
    double pred[MAX_LEAF * MAX_LEAF], work[MAX_LEAF * MAX_LEAF];
    double coef[MAX_LEAF * MAX_LEAF];
    int64_t quant[MAX_LEAF * MAX_LEAF];
    int cls = size_class(n);
    int64_t area = n * n, width = s->width;
    int64_t mode, i, y, x, last = -1, col, coeff = -1;
    const double *basis, *basis_t;
    const int64_t *zigzag;
    double off = 0.5 - s->deadzone, step = s->step;
    int status;

    if (cls < 0 || !s->basis[cls] || !s->zigzag[cls])
        return ES_GEOMETRY;
    if (s->n_leaves >= s->leaf_cap)
        return ES_CAPACITY;
    mode = s->best_mode[depth][(y0 / n) * (width / n) + x0 / n];
    if (mode < 0 || mode > ANGULAR_LAST)
        return ES_MODE;
    basis = s->basis[cls];
    zigzag = s->zigzag[cls];
    basis_t = basis_t_of(&s->basis_t, basis, cls);

    llm265_gather_refs(s->recon, s->mask, s->height, width, y0, x0, n, top,
                       left);
    predict(top, left, (int)mode, n, pred);
    for (y = 0; y < n; y++)
        for (x = 0; x < n; x++)
            work[y * n + x] =
                s->frame[(y0 + y) * width + x0 + x] - pred[y * n + x];
    dct2(s->mm, work, coef, n, basis, basis_t, 0);
    for (i = 0; i < area; i++) {
        double scaled = coef[i] / step;
        double level = s->deadzone != 0.0
                           ? trunc(scaled + copysign(off, scaled))
                           : rint(scaled);
        if (!(fabs(level) < 9.0e18))
            return ES_LEVEL;
        quant[i] = (int64_t)level;
        work[i] = (double)quant[i] * step;
    }
    dct2(s->mm, work, coef, n, basis, basis_t, 1);
    for (y = 0; y < n; y++) {
        double *out = s->recon + (y0 + y) * width + x0;
        uint8_t *seen = s->mask + (y0 + y) * width + x0;
        for (x = 0; x < n; x++) {
            /* np.clip(prediction + residual, 0.0, 255.0) */
            double v = pred[y * n + x] + coef[y * n + x];
            if (v == v) {
                v = v > 0.0 ? v : 0.0;
                v = v < 255.0 ? v : 255.0;
            }
            out[x] = v;
            seen[x] = 1;
        }
    }
    for (y = y0 >> 2; y < (y0 + n) >> 2; y++)
        for (x = x0 >> 2; x < (x0 + n) >> 2; x++)
            s->mode_map[y * s->map_w + x] = (int8_t)mode;

    status = write_intra_mode(
        s, neighbor_mode(s->mode_map, s->map_w, y0, x0 - 1),
        neighbor_mode(s->mode_map, s->map_w, y0 - 1, x0), (int)mode);
    if (status)
        return status;
    charge(&s->c, E_INTRA_MODE);
    for (i = area - 1; i >= 0; i--)
        if (quant[zigzag[i]]) {
            last = i;
            break;
        }
    if (last < 0) {
        if (ctx_bin(&s->c, s->banks[B_CBF], 0, 0))
            return ES_BYTES;
        charge(&s->c, E_CBF);
    } else {
        int64_t *scanned = s->levels + s->n_levels;
        if (s->n_levels + area > s->level_cap)
            return ES_CAPACITY;
        for (i = 0; i < area; i++)
            scanned[i] = quant[zigzag[i]];
        if (coeff_block(&s->c, scanned, last, n, s->banks[B_CBF],
                        s->banks[B_LAST] + cls * LAST_PREFIX, LAST_PREFIX,
                        UEG_K, s->banks[B_SIG] + cls * SIG_CTX_PER_CLASS,
                        s->banks[B_LEVEL] + cls * LEVEL_PREFIX, LEVEL_PREFIX,
                        UEG_K))
            return ES_BYTES;
        coeff = s->n_levels;
        s->n_levels += area;
    }
    col = s->n_leaves++;
    s->plan[P_Y0 * s->leaf_cap + col] = y0;
    s->plan[P_X0 * s->leaf_cap + col] = x0;
    s->plan[P_SIZE * s->leaf_cap + col] = n;
    s->plan[P_MODE * s->leaf_cap + col] = mode;
    s->plan[P_INTER * s->leaf_cap + col] = 0;
    s->plan[P_RY * s->leaf_cap + col] = 0;
    s->plan[P_RX * s->leaf_cap + col] = 0;
    s->plan[P_CTU * s->leaf_cap + col] = s->ctu_index;
    s->plan[P_COEFF * s->leaf_cap + col] = coeff;
    return ES_OK;
}

/* FrameEncoder._turbo_commit + _write_cu over the DP's decisions. */
static int code_cu(enc_slice *s, int64_t y0, int64_t x0, int64_t size,
                   int depth, int64_t ly, int64_t lx)
{
    if (s->use_partition && size > s->min_cu) {
        int is_split = s->split[node_index(depth, ly, lx)];
        int64_t half = size / 2;
        int q, status;
        if (ctx_bin(&s->c, s->banks[B_SPLIT], depth < 5 ? depth : 5,
                    is_split))
            return ES_BYTES;
        charge(&s->c, E_SPLIT);
        if (is_split) {
            for (q = 0; q < 4; q++) {
                status = code_cu(s, y0 + (q >> 1) * half,
                                 x0 + (q & 1) * half, half, depth + 1,
                                 2 * ly + (q >> 1), 2 * lx + (q & 1));
                if (status)
                    return status;
            }
            return ES_OK;
        }
    }
    return code_leaf(s, y0, x0, size, depth);
}

/* Columns of the per-slice report (native.ENCODE_REPORT). */
enum { ER_STATUS, ER_OUT_END, ER_LEAF_END, ER_LEVEL_END, ER_COLS };

/* One slice on fresh entropy state -- BinaryEncoder() and, in `bank`,
 * CodecContexts() -- and an empty mode map: every CTU's DP and coding,
 * then the coder's flush.  Bytes, leaves, levels and CTU indices run on
 * from where the previous slice of the group left them. */
static int encode_slice(enc_slice *s, int64_t ctu, int32_t *bank)
{
    int64_t i, y0, x0;
    int status = ES_OK;

    s->c.low = 0;
    s->c.rng = 0xFFFFFFFFu;
    s->c.cache = 0;
    s->c.csize = 1;
    fresh_contexts(bank, s->banks);
    for (i = 0; i < (s->height / 4) * s->map_w; i++)
        s->mode_map[i] = -1;
    s->c.mark = tell(&s->c);
    for (y0 = 0; y0 < s->height && !status; y0 += ctu)
        for (x0 = 0; x0 < s->width && !status; x0 += ctu) {
            s->step = s->ctu_step[s->ctu_index];
            s->lambda = s->ctu_lambda[s->ctu_index];
            choose(s, y0, x0, ctu, 0, 0, 0);
            status = code_cu(s, y0, x0, ctu, 0, 0, 0);
            s->ctu_index++;
        }
    if (!status && finish(&s->c))
        status = ES_BYTES;
    return status;
}

/* Codes `count` consecutive height x width slices -- frames, recon and
 * mask are count x height x width, recon and mask zero-filled -- each
 * from a fresh coder and fresh contexts, into one output buffer, one
 * leaf plan and one level buffer: slice after slice, coeff_offset
 * indexing the group's level buffer and ctu_index numbering the group's
 * CTUs.  ctu_step / ctu_lambda have one entry per CTU of the group in
 * that order; best_mode / best_cost one table per quadtree depth in
 * use, each count x (height / size) x (width / size); basis / zigzag
 * N_CLASSES entries (NULL where the size is unused).  The three
 * capacities are the group's.
 *
 * report (count x ER_COLS) receives per slice its status and the
 * running byte / leaf / level counts after it: slice k's finished bytes
 * are out[out_end[k - 1] .. out_end[k]].  A refused slice gives its
 * bytes, leaves and levels back -- the counts after it are the counts
 * before it -- and the slices behind it are still coded.  banks (count
 * x BANK_TOTAL) is scratch the caller provides: row k ends as slice k's
 * adapted contexts.  bits, when not NULL, is count x N_ELEMENTS: row k
 * receives slice k's ledger (meaningless for a refused slice).
 * mode_map holds (height / 4) * (width / 4) cells.
 *
 * Returns the number of refused slices. */
int64_t llm265_encode_slices(
    const double *frames, int64_t count, int64_t height, int64_t width,
    int64_t ctu, int64_t min_cu, int64_t use_partition,
    const int64_t *const *best_mode, const double *const *best_cost,
    const double *ctu_step, const double *ctu_lambda, double deadzone,
    const int32_t *all_modes, int64_t n_modes,
    const double *const *basis, const int64_t *const *zigzag,
    int64_t *report, int32_t *banks,
    uint8_t *out, int64_t out_cap,
    double *recon, uint8_t *mask, int8_t *mode_map,
    int64_t *plan, int64_t leaf_cap, int64_t *levels, int64_t level_cap,
    int64_t *bits)
{
    enc_slice s;
    int64_t area = height * width, ctus = 0, depths = 1, size, k, d, i;
    int64_t refused = 0;
    int geometry = ES_OK;

    s.c.out = out;
    s.c.cap = out_cap;
    s.c.len = 0;
    s.height = height;
    s.width = width;
    s.min_cu = min_cu;
    s.use_partition = use_partition != 0;
    s.ctu_step = ctu_step;
    s.ctu_lambda = ctu_lambda;
    s.deadzone = deadzone;
    s.mm = ordered_mm();
    s.all_modes = all_modes;
    s.n_modes = n_modes;
    s.basis = basis;
    s.zigzag = zigzag;
    for (i = 0; i < N_CLASSES; i++)
        s.basis_t.have[i] = 0;
    s.mode_map = mode_map;
    s.map_w = width / 4;
    s.plan = plan;
    s.leaf_cap = leaf_cap;
    s.n_leaves = 0;
    s.levels = levels;
    s.level_cap = level_cap;
    s.n_levels = 0;

    if (size_class(ctu) < 0 || height <= 0 || width <= 0 || height % ctu ||
        width % ctu)
        geometry = ES_GEOMETRY;
    if (s.use_partition) {
        /* The tree bottoms out at min_cu after whole halvings. */
        for (size = ctu; size > min_cu; size /= 2)
            depths++;
        if (min_cu < 4 || depths > MAX_DEPTH ||
            (min_cu << (depths - 1)) != ctu)
            geometry = ES_GEOMETRY;
    }
    if (!geometry)
        ctus = (height / ctu) * (width / ctu);

    for (k = 0; k < count; k++) {
        int64_t *row = report + k * ER_COLS;
        int64_t out_start = s.c.len, leaf_start = s.n_leaves;
        int64_t level_start = s.n_levels;
        int status = geometry;

        s.c.bits = bits ? bits + k * N_ELEMENTS : 0;
        for (i = 0; s.c.bits && i < N_ELEMENTS; i++)
            s.c.bits[i] = 0;
        if (!status) {
            for (d = 0; d < depths; d++) {
                int64_t blocks = (height / (ctu >> d)) * (width / (ctu >> d));
                s.best_mode[d] = best_mode[d] + k * blocks;
                s.best_cost[d] = best_cost[d] + k * blocks;
            }
            s.frame = frames + k * area;
            s.recon = recon + k * area;
            s.mask = mask + k * area;
            s.ctu_index = k * ctus;
            status = encode_slice(&s, ctu, banks + k * BANK_TOTAL);
        }
        if (status) {
            s.c.len = out_start;
            s.n_leaves = leaf_start;
            s.n_levels = level_start;
            refused++;
        }
        row[ER_STATUS] = status;
        row[ER_OUT_END] = s.c.len;
        row[ER_LEAF_END] = s.n_leaves;
        row[ER_LEVEL_END] = s.n_levels;
    }
    return refused;
}
