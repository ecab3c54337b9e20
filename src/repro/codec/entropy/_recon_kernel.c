/* Whole-slice reconstruction: residual, reference gather, intra / inter
 * prediction, + residual, clip -- for every leaf of a slice plan, in
 * decode order, in one call.
 *
 * Three entry points:
 *
 * llm265_gather_refs        the HEVC-style boundary walk of
 *                           repro.codec.intra.gather_references, also
 *                           exported on its own for the encoder
 *                           (native.refs).
 * llm265_reconstruct_slices FrameDecoder._batch_residuals +
 *                           _apply_predictions over the flat leaf plan of
 *                           _slice_kernel.c, one plane per slice of the
 *                           group: each coded leaf's levels are
 *                           dequantised, unscanned and inverse-transformed
 *                           into a stack buffer right where they are
 *                           added to the prediction.
 * llm265_dc_sum             the DC reduction alone, so the loader can
 *                           check it against the installed numpy.
 *
 * Sample identity with the numpy path is the contract: the float64
 * reconstruction plane must be bit-identical, because later leaves
 * predict from it and later frames reference it.  The gather is pure
 * data movement.  The dequantisation (level * step) is one rounded
 * product per coefficient, and the inverse DCT is the codec's
 * order-defined transform of _transform_kernel.c -- the encoder's own
 * body, checked against the numpy definition when the library loads.
 * Planar, angular, "+ residual" and the clip are element-wise
 * expressions evaluated in numpy's order with every intermediate
 * rounded to double -- this file must be compiled with
 * -ffp-contract=off so no multiply-add is fused.  The one reduction,
 * the DC mean, reproduces numpy's pairwise summation for n <= 128
 * (sequential below 8 elements, else eight running lanes combined as
 * ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and a sequential tail).
 *
 * The plan is validated in full -- every slice of the group -- before
 * the first sample is written, so a non-zero status leaves recon and
 * mask untouched and the caller runs the Python loop instead.
 *
 * Return status: 0 = ok, 1 = a block size the codec does not have,
 * 2 = a leaf lies outside the frame or names an unknown mode, 3 = an
 * inter leaf with no or an out-of-range reference block, 4 = level
 * offset out of range, 5 = the slice boundaries are not a
 * non-decreasing run inside the table, 6 = a coded leaf's CTU has no
 * quantiser step or its size no tables.
 *
 * Built on demand by repro.codec.entropy.native; the numpy code
 * remains the fallback.
 */

#include <stdint.h>

#define MAX_N 512
#define DEFAULT_SAMPLE 128.0
#define VERTICAL_FIRST 18

/* HEVC intraPredAngle for modes 2..34 (intra._ANGLES). */
static const int ANGLES[N_ANGULAR] = {
    32, 26, 21, 17, 13, 9, 5, 2, 0, -2, -5, -9, -13, -17, -21, -26, -32,
    -26, -21, -17, -13, -9, -5, -2, 0, 2, 5, 9, 13, 17, 21, 26, 32,
};

/* round(256 * 32 / |angle|) for the negative angles (intra._inv_angle). */
static int inv_angle(int angle)
{
    switch (angle < 0 ? -angle : angle) {
    case 2: return 4096;
    case 5: return 1638;
    case 9: return 910;
    case 13: return 630;
    case 17: return 482;
    case 21: return 390;
    case 26: return 315;
    default: return 256; /* 32 */
    }
}

/* Walks the 4n + 1 boundary positions of one n x n block -- left
 * column bottom-to-top, the corner, then the top row left-to-right --
 * reading reconstructed samples where the availability mask allows and
 * substituting the nearest previously-available sample (mid-grey 128
 * when the whole boundary is unavailable).  No arithmetic is performed
 * on the samples.  Status 1 = block size beyond the stack buffer (no
 * output was written). */
int64_t llm265_gather_refs(
    const double *recon, const uint8_t *mask,
    int64_t height, int64_t width,
    int64_t y0, int64_t x0, int64_t n,
    double *top, double *left)
{
    double values[4 * MAX_N + 1];
    int64_t total = 4 * n + 1;
    int64_t t, first = -1;
    double prev = 0.0;

    if (n < 1 || n > MAX_N)
        return 1;
    for (t = 0; t < total; t++) {
        /* Boundary coordinates: t in [0, 2n) is the left column from
         * the bottom, t == 2n the corner, beyond that the top row. */
        int64_t r = t < 2 * n ? y0 + 2 * n - 1 - t : y0 - 1;
        int64_t c = t <= 2 * n ? x0 - 1 : x0 + (t - 2 * n - 1);
        if (r >= 0 && r < height && c >= 0 && c < width &&
            mask[r * width + c]) {
            prev = recon[r * width + c];
            if (first < 0)
                first = t;
        }
        /* prev is the nearest available sample at or before t; the
         * leading gap before the first available one is backfilled
         * below. */
        values[t] = prev;
    }
    if (first < 0) {
        for (t = 0; t < total; t++)
            values[t] = DEFAULT_SAMPLE;
    } else {
        for (t = 0; t < first; t++)
            values[t] = values[first];
    }
    for (t = 0; t <= 2 * n; t++) {
        left[t] = values[2 * n - t];
        top[t] = values[2 * n + t];
    }
    return 0;
}

/* np.sum of n <= 128 contiguous doubles: numpy's pairwise_sum added to
 * the reduction's 0.0 identity. */
double llm265_dc_sum(const double *a, int64_t n)
{
    double r[8], res = 0.0;
    int64_t i;

    if (n < 8) {
        for (i = 0; i < n; i++)
            res += a[i];
        return 0.0 + res;
    }
    for (i = 0; i < 8; i++)
        r[i] = a[i];
    for (i = 8; i < n - (n % 8); i += 8) {
        r[0] += a[i + 0];
        r[1] += a[i + 1];
        r[2] += a[i + 2];
        r[3] += a[i + 3];
        r[4] += a[i + 4];
        r[5] += a[i + 5];
        r[6] += a[i + 6];
        r[7] += a[i + 7];
    }
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        res += a[i];
    return 0.0 + res;
}

/* intra._angular_from_main: fills pred[row * n + col] for the vertical
 * orientation; the horizontal family reads it transposed. */
static void angular(const double *main_ref, const double *side_ref,
                    int angle, int64_t n, double *pred)
{
    /* Extended reference: indices -n .. 2n, plus one replicated sample
     * so fact == 0 at angle 32 may index one past the end. */
    double ext[3 * MAX_LEAF + 2];
    int64_t k, row, col;

    for (k = 0; k <= 2 * n; k++)
        ext[n + k] = main_ref[k];
    ext[3 * n + 1] = main_ref[2 * n];
    if (angle < 0) {
        int64_t inv = inv_angle(angle);
        for (k = 1; k <= n; k++) {
            int64_t j = (k * inv + 128) >> 8;
            ext[n - k] = side_ref[j < 2 * n ? j : 2 * n];
        }
    }
    for (row = 0; row < n; row++) {
        int64_t pos = (row + 1) * angle;
        /* floor(pos / 32) and pos mod 32, as Python's >> 5 and & 31. */
        int64_t idx = pos >= 0 ? pos / 32 : -((-pos + 31) / 32);
        double w = (double)(pos - idx * 32);
        double w_inv = 32.0 - w;
        const double *base = ext + n + idx + 1;
        for (col = 0; col < n; col++)
            pred[row * n + col] =
                (w_inv * base[col] + w * base[col + 1]) / 32.0;
    }
}

/* intra.predict into pred[y * n + x], n a block size of the codec.  The
 * planar blend's divisor 2n is then a power of two, and dividing by it
 * is multiplying by its exact reciprocal: the same correctly rounded
 * quotient, without a division per sample. */
static void predict(const double *top, const double *left, int mode,
                    int64_t n, double *pred)
{
    int64_t y, x;

    if (mode == MODE_PLANAR) {
        double top_right = top[n + 1], bottom_left = left[n + 1];
        double scale = 1.0 / (double)(2 * n);
        for (y = 0; y < n; y++)
            for (x = 0; x < n; x++) {
                double horizontal = (double)(n - 1 - x) * left[1 + y] +
                                    (double)(x + 1) * bottom_left;
                double vertical = (double)(n - 1 - y) * top[1 + x] +
                                  (double)(y + 1) * top_right;
                pred[y * n + x] = (horizontal + vertical) * scale;
            }
    } else if (mode == MODE_DC) {
        double dc = (llm265_dc_sum(top + 1, n) + llm265_dc_sum(left + 1, n)) /
                    (double)(2 * n);
        for (y = 0; y < n * n; y++)
            pred[y] = dc;
    } else if (mode >= VERTICAL_FIRST) {
        angular(top, left, ANGLES[mode - ANGULAR_FIRST], n, pred);
    } else {
        double tmp[MAX_LEAF * MAX_LEAF];
        angular(left, top, ANGLES[mode - ANGULAR_FIRST], n, tmp);
        for (y = 0; y < n; y++)
            for (x = 0; x < n; x++)
                pred[y * n + x] = tmp[x * n + y];
    }
}

/* Where a call's coded leaves take their residuals from: the group's
 * scan-order level buffer, one quantiser step per CTU of the group and,
 * by size class, the zigzag order and DCT basis. */
typedef struct {
    const int64_t *levels;
    int64_t n_levels;
    const double *ctu_step;
    int64_t n_ctus;
    const double *const *basis;
    const int64_t *const *zigzag;
    int transform;
    mm_fn mm;
    transposes basis_t;
} residuals;

static int check_plan(
    int64_t height, int64_t width, const double *reference,
    const int64_t *plan, int64_t stride, int64_t n_leaves,
    const residuals *res)
{
    int64_t i;

    for (i = 0; i < n_leaves; i++) {
        int64_t y0 = plan[P_Y0 * stride + i], x0 = plan[P_X0 * stride + i];
        int64_t n = plan[P_SIZE * stride + i];
        int64_t mode = plan[P_MODE * stride + i];
        int64_t off = plan[P_COEFF * stride + i];
        int cls = size_class(n);
        if (cls < 0)
            return 1;
        if (y0 < 0 || x0 < 0 || y0 > height - n || x0 > width - n ||
            mode < -1 || mode > ANGULAR_LAST)
            return 2;
        if (plan[P_INTER * stride + i]) {
            int64_t ry = plan[P_RY * stride + i];
            int64_t rx = plan[P_RX * stride + i];
            if (!reference || ry < 0 || rx < 0 || ry > height - n ||
                rx > width - n)
                return 3;
        }
        if (off >= 0) {
            int64_t ctu = plan[P_CTU * stride + i];
            if (off > res->n_levels - n * n)
                return 4;
            if (ctu < 0 || ctu >= res->n_ctus || !res->zigzag[cls] ||
                (res->transform && !res->basis[cls]))
                return 6;
        } else if (off != -1) {
            return 4;
        }
    }
    return 0;
}

/* FrameDecoder._batch_residuals for one coded n x n leaf: its levels
 * dequantised (level * step), zigzag-unscanned (grid[zigzag[i]] =
 * scan[i]) and, with the transform on, put through the inverse DCT,
 * into out (row-major). */
static void leaf_residual(residuals *res, int64_t off, int64_t n,
                          double step, double *out)
{
    double grid[MAX_LEAF * MAX_LEAF];
    int cls = size_class(n);
    const int64_t *scan = res->levels + off, *zigzag = res->zigzag[cls];
    double *dst = res->transform ? grid : out;
    int64_t i;

    for (i = 0; i < n * n; i++)
        dst[zigzag[i]] = (double)scan[i] * step;
    if (res->transform)
        dct2(res->mm, grid, out, n, res->basis[cls],
             basis_t_of(&res->basis_t, res->basis[cls], cls), 1);
}

/* One plane: recon (height x width, zero-filled) receives the float64
 * samples and mask (same shape, zero-filled) ends all ones.  A leaf
 * with is_inter copies its block of `reference` (same shape as recon);
 * otherwise mode >= 0 is an intra mode and mode == -1 the flat
 * mid-grey prediction of a stream coded without intra.  A coded leaf
 * (coeff_offset >= 0) adds its residual, made here from its levels and
 * its CTU's step; a cbf = 0 leaf (-1) adds exactly zero.  The caller
 * has run check_plan over these leaves. */
static void reconstruct_slice(
    double *recon, uint8_t *mask, int64_t height, int64_t width,
    const double *reference,
    const int64_t *plan, int64_t stride, int64_t n_leaves, residuals *res)
{
    static const double zeros[MAX_LEAF]; /* a cbf = 0 leaf's residual row */
    double pred[MAX_LEAF * MAX_LEAF], resid[MAX_LEAF * MAX_LEAF];
    double top[2 * MAX_LEAF + 1], left[2 * MAX_LEAF + 1];
    int64_t i, y, x;

    for (i = 0; i < n_leaves; i++) {
        int64_t y0 = plan[P_Y0 * stride + i], x0 = plan[P_X0 * stride + i];
        int64_t n = plan[P_SIZE * stride + i];
        int64_t mode = plan[P_MODE * stride + i];
        int64_t off = plan[P_COEFF * stride + i];
        const double *src = pred;
        int64_t src_stride = n;

        if (plan[P_INTER * stride + i]) {
            src = reference + plan[P_RY * stride + i] * width +
                  plan[P_RX * stride + i];
            src_stride = width;
        } else if (mode >= 0) {
            llm265_gather_refs(recon, mask, height, width, y0, x0, n, top,
                               left);
            predict(top, left, (int)mode, n, pred);
        } else {
            for (y = 0; y < n * n; y++)
                pred[y] = DEFAULT_SAMPLE;
        }
        if (off >= 0)
            leaf_residual(res, off, n,
                          res->ctu_step[plan[P_CTU * stride + i]], resid);
        for (y = 0; y < n; y++) {
            double *out = recon + (y0 + y) * width + x0;
            uint8_t *seen = mask + (y0 + y) * width + x0;
            const double *p = src + y * src_stride;
            const double *r = off >= 0 ? resid + y * n : zeros;
            for (x = 0; x < n; x++) {
                /* np.clip(prediction + residual, 0.0, 255.0); NaN
                 * (unreachable from finite levels) passes through.
                 * Selects, not branches, so the row vectorises. */
                double v = p[x] + r[x];
                double low = v > 0.0 ? v : 0.0;
                double clipped = low < 255.0 ? low : 255.0;
                out[x] = v == v ? clipped : v;
                seen[x] = 1;
            }
        }
    }
}

/* A group of `count` planes over one plan of n_leaves columns: recon
 * and mask are (count, height, width) stacks, zero-filled, and plane k
 * takes the leaves leaf_end[k - 1] .. leaf_end[k] of the table (same
 * stride, leaf_end[-1] = 0; an empty range leaves its plane untouched).
 * A coded leaf's scan-order levels start at levels[coeff_offset] (of
 * n_levels) and its step is ctu_step[ctu_index] (of n_ctus); basis and
 * zigzag hold N_CLASSES entries by size class (NULL where a size is
 * unused; basis is not read with use_transform off).  Every slice's
 * sub-plan is validated before any sample of any plane is written. */
int64_t llm265_reconstruct_slices(
    double *recon, uint8_t *mask, int64_t count, int64_t height,
    int64_t width, const double *reference,
    const int64_t *plan, int64_t stride, int64_t n_leaves,
    const int64_t *leaf_end,
    const int64_t *levels, int64_t n_levels,
    const double *ctu_step, int64_t n_ctus,
    const double *const *basis, const int64_t *const *zigzag,
    int64_t use_transform)
{
    residuals res;
    int64_t k, start = 0;
    int c;

    res.levels = levels;
    res.n_levels = n_levels;
    res.ctu_step = ctu_step;
    res.n_ctus = n_ctus;
    res.basis = basis;
    res.zigzag = zigzag;
    res.transform = use_transform != 0;
    res.mm = ordered_mm();
    for (c = 0; c < N_CLASSES; c++)
        res.basis_t.have[c] = 0;
    if (n_leaves > stride)
        return 5;
    for (k = 0; k < count; start = leaf_end[k++]) {
        int status;
        if (leaf_end[k] < start || leaf_end[k] > n_leaves)
            return 5;
        status = check_plan(height, width, reference, plan + start, stride,
                            leaf_end[k] - start, &res);
        if (status)
            return status;
    }
    for (k = 0, start = 0; k < count; start = leaf_end[k++])
        reconstruct_slice(recon + k * height * width,
                          mask + k * height * width, height, width, reference,
                          plan + start, stride, leaf_end[k] - start, &res);
    return 0;
}
