/* Native batched RD costing for pass 1 of the two-pass search.
 *
 *   llm265_cost_pick         for every block the best candidate mode and
 *                            its RD cost, and nothing else -- the
 *                            (blocks * modes, width) candidate tensor,
 *                            its levels and its errors never exist
 *                            outside one candidate row.
 *   llm265_cost_pick_scalar  the same pick through the scalar row alone
 *                            (tests hold the two bitwise equal).
 *
 * Per candidate row:
 *
 *   level[i]   trunc(x + copysign(0.5 - deadzone, x)), or rint(x) when
 *              deadzone == 0 (round-half-even under FE_TONEAREST);
 *              bitwise np.trunc / np.copysign / np.rint.
 *   rate       sum of rate_table[min(|level|, table_len - 1)], an int64
 *              fixed-point (2^15-scaled log2(m + 1)) sum that is
 *              order-independent and therefore exactly equal to numpy's
 *              np.take(...).sum().  rate_table[0] must be 0 (a table
 *              whose entry 0 is not is refused): zero levels add
 *              nothing, so a body may sum them or skip them.
 *   nnz, last  count of nonzero levels and the highest nonzero index
 *              (-1 for an all-zero row).
 *
 * llm265_cost_pick forms x = (coeffs[b][i] - pred[b][m][i]) *
 * inv_step[b] element by element and also needs the distortion
 * sum((level - x)^2), a float sum whose order matters.  The order is
 * part of the definition: four strided lanes (i mod 4), each summed
 * sequentially in i, combined (l0 + l1) + (l2 + l3) -- in numpy,
 * np.cumsum(e2.reshape(rows, -1, 4), axis=1)[:, -1] on a zero-padded
 * row.  Then, in the twin's order,
 *
 *   bits = nnz ? (5 + last) + (rate / 2^14 + 2 * nnz) : 1
 *   cost = (sse * step2[b] + lambda[b] * bits) + lambda[b] * mode_bits[m]
 *
 * and the first minimum in candidate order wins.  Every operation is an
 * exactly-rounded IEEE one (no libm transcendental, no BLAS; built with
 * -ffp-contract=off), so best_mode / best_cost are bitwise those of
 * repro.codec.pass1._pass1_pick's numpy form on any machine.
 *
 * Two bodies compute a row.  row_scalar, quantize_row + level_stats, is
 * the definition and runs everywhere.  row_avx2 (_simd_kernel.c: chosen
 * per call when the CPU has AVX2) is one fused sweep with the four
 * lanes in one __m256d: x, level, error and the lane sums per quad,
 * then a movemask of |level| > 0 -- an all-zero quad adds nothing
 * else; otherwise a gather of its four rate entries, a popcount into
 * nnz and the top set bit into last -- and the scalar tail feeding
 * lane[i & 3].  Every lane sees the scalar row's operations in the
 * scalar row's order, so the two bodies agree bit for bit.
 *
 * Built on demand by repro.codec.entropy.native (GIL released).
 * Return status: 0 = ok, 1 = refused (a row wider than the stack level
 * buffer, no mode, or a rate table that is empty, longer than 2^31 or
 * whose entry 0 is not 0); the wrapper falls back to numpy and no
 * output was written.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Largest n * n of any profile (64 x 64 CTU). */
#define MAX_WIDTH 4096

static inline double quantize(double x, double off, int dead)
{
    return dead ? trunc(x + copysign(off, x)) : rint(x);
}

static inline void level_stats(
    const double *lv, int64_t width,
    const int64_t *rate_table, int64_t table_len,
    int64_t *rate, int64_t *nnz, int64_t *last)
{
    double top = (double)(table_len - 1);
    int64_t row_rate = 0, row_nnz = 0, row_last = width - 1, i;
    while (row_last >= 0 && !(fabs(lv[row_last]) > 0.0))
        row_last--;
    for (i = 0; i <= row_last; i++) {
        double mag = fabs(lv[i]);
        /* Clamp before the cast: magnitudes beyond the table share its
         * top entry, and casting a double above INT64_MAX would be
         * undefined. */
        row_rate += rate_table[(int64_t)(mag < top ? mag : top)];
        row_nnz += mag > 0.0;
    }
    *rate = row_rate;
    *nnz = row_nnz;
    *last = row_last;
}

/* Levels of one candidate row into `lv`; returns its lane-ordered SSE. */
static inline double quantize_row(
    const double *c, const double *p, double inv, double off, int dead,
    int64_t width, double *lv)
{
    double lane[4] = {0.0, 0.0, 0.0, 0.0};
    int64_t i, j;
    for (i = 0; i + 4 <= width; i += 4)
        for (j = 0; j < 4; j++) {
            double x = (c[i + j] - p[i + j]) * inv;
            double e = (lv[i + j] = quantize(x, off, dead)) - x;
            lane[j] += e * e;
        }
    for (j = 0; i + j < width; j++) {
        double x = (c[i + j] - p[i + j]) * inv;
        double e = (lv[i + j] = quantize(x, off, dead)) - x;
        lane[j] += e * e;
    }
    return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

/* One candidate row: returns its SSE and fills rate / nnz / last.  `lv`
 * is a MAX_WIDTH level buffer a body may use. */
typedef double (*row_fn)(
    const double *c, const double *p, double inv, double off, int dead,
    int64_t width, const int64_t *rate_table, int64_t table_len, double *lv,
    int64_t *rate, int64_t *nnz, int64_t *last);

static double row_scalar(
    const double *c, const double *p, double inv, double off, int dead,
    int64_t width, const int64_t *rate_table, int64_t table_len, double *lv,
    int64_t *rate, int64_t *nnz, int64_t *last)
{
    double sse = dead ? quantize_row(c, p, inv, off, 1, width, lv)
                      : quantize_row(c, p, inv, off, 0, width, lv);
    level_stats(lv, width, rate_table, table_len, rate, nnz, last);
    return sse;
}

#ifdef HAVE_AVX2_BODY
static inline __attribute__((always_inline)) SIMD_AVX2 double row_avx2_at(
    const double *c, const double *p, double inv, double off, const int dead,
    int64_t width, const int64_t *rate_table, int64_t table_len,
    int64_t *rate, int64_t *nnz, int64_t *last)
{
    const __m256d sign = _mm256_set1_pd(-0.0), zero = _mm256_setzero_pd();
    const __m256d vinv = _mm256_set1_pd(inv);
    const __m256d voff = _mm256_set1_pd(fabs(off));
    const __m256d vtop = _mm256_set1_pd((double)(table_len - 1));
    const long long *table = (const long long *)rate_table;
    __m256d acc = zero;
    __m256i vrate = _mm256_setzero_si256();
    double lane[4], top = (double)(table_len - 1);
    int64_t row_rate, row_nnz = 0, row_last = -1, i;
    int64_t sums[4];

    for (i = 0; i + 4 <= width; i += 4) {
        __m256d x = _mm256_mul_pd(
            _mm256_sub_pd(_mm256_loadu_pd(c + i), _mm256_loadu_pd(p + i)), vinv);
        /* copysign(off, x): |off| with x's sign bit. */
        __m256d l = dead
            ? _mm256_round_pd(_mm256_add_pd(x, _mm256_or_pd(voff, _mm256_and_pd(sign, x))),
                              _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC)
            : _mm256_round_pd(x, _MM_FROUND_CUR_DIRECTION);
        __m256d e = _mm256_sub_pd(l, x);
        __m256d mag = _mm256_andnot_pd(sign, l);
        int quad = _mm256_movemask_pd(_mm256_cmp_pd(mag, zero, _CMP_GT_OQ));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(e, e));
        if (quad) {
            /* mag < top ? mag : top, then the cast; top < 2^31. */
            __m128i idx = _mm256_cvttpd_epi32(_mm256_min_pd(mag, vtop));
            vrate = _mm256_add_epi64(vrate, _mm256_i32gather_epi64(table, idx, 8));
            row_nnz += __builtin_popcount(quad);
            row_last = i + 31 - __builtin_clz(quad);
        }
    }
    _mm256_storeu_pd(lane, acc);
    _mm256_storeu_si256((__m256i *)sums, vrate);
    row_rate = (sums[0] + sums[1]) + (sums[2] + sums[3]);
    for (; i < width; i++) {
        double x = (c[i] - p[i]) * inv;
        double l = quantize(x, off, dead), e = l - x, mag = fabs(l);
        lane[i & 3] += e * e;
        if (mag > 0.0) {
            row_rate += rate_table[(int64_t)(mag < top ? mag : top)];
            row_nnz++;
            row_last = i;
        }
    }
    *rate = row_rate;
    *nnz = row_nnz;
    *last = row_last;
    return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

static SIMD_AVX2 double row_avx2(
    const double *c, const double *p, double inv, double off, int dead,
    int64_t width, const int64_t *rate_table, int64_t table_len, double *lv,
    int64_t *rate, int64_t *nnz, int64_t *last)
{
    (void)lv; /* levels never leave registers */
    return dead ? row_avx2_at(c, p, inv, off, 1, width, rate_table, table_len,
                              rate, nnz, last)
                : row_avx2_at(c, p, inv, off, 0, width, rate_table, table_len,
                              rate, nnz, last);
}
#endif

/* What a pick refuses: a row wider than the stack level buffer, no
 * mode, or a rate table that is empty, longer than 2^31 or whose entry
 * 0 is not 0. */
static int pick_refuses(int64_t width, int64_t n_modes,
                        const int64_t *rate_table, int64_t table_len)
{
    return width < 1 || width > MAX_WIDTH || n_modes < 1 || table_len < 1
        || table_len > INT32_MAX || rate_table[0] != 0;
}

/* The row body this machine runs. */
static row_fn pick_row(void)
{
#ifdef HAVE_AVX2_BODY
    if (simd_avx2())
        return row_avx2;
#endif
    return row_scalar;
}

/* RD cost of candidate row p against source row c at one block's step
 * and Lagrangian, in the twin's order. */
static inline double row_cost(
    row_fn row, const double *c, const double *p, double inv, double step2,
    double lambda, double mode_bits, double off, int dead, int64_t width,
    const int64_t *rate_table, int64_t table_len, double *lv)
{
    int64_t rate, nnz, last;
    double sse = row(c, p, inv, off, dead, width, rate_table, table_len, lv,
                     &rate, &nnz, &last);
    double bits = 1.0;
    if (nnz > 0)
        bits = (5.0 + (double)last)
            + ((double)rate / 16384.0 + 2.0 * (double)nnz);
    return (sse * step2 + lambda * bits) + lambda * mode_bits;
}

static int64_t pick(
    row_fn row,
    const double *coeffs, const double *pred,
    int64_t n_blocks, int64_t n_modes, int64_t width,
    const double *inv_step, const double *step2, const double *lambda,
    const double *mode_bits, double deadzone,
    const int64_t *rate_table, int64_t table_len,
    int64_t *best_mode, double *best_cost)
{
    double off = 0.5 - deadzone;
    double lv[MAX_WIDTH];
    int dead = deadzone != 0.0;
    int64_t b, m;

    if (pick_refuses(width, n_modes, rate_table, table_len))
        return 1;
    for (b = 0; b < n_blocks; b++) {
        const double *c = coeffs + b * width;
        for (m = 0; m < n_modes; m++) {
            double cost = row_cost(
                row, c, pred + (b * n_modes + m) * width, inv_step[b],
                step2[b], lambda[b], mode_bits[m], off, dead, width,
                rate_table, table_len, lv);
            /* The first minimum in candidate order wins. */
            if (m == 0 || cost < best_cost[b]) {
                best_cost[b] = cost;
                best_mode[b] = m;
            }
        }
    }
    return 0;
}

int64_t llm265_cost_pick(
    const double *coeffs, const double *pred,
    int64_t n_blocks, int64_t n_modes, int64_t width,
    const double *inv_step, const double *step2, const double *lambda,
    const double *mode_bits, double deadzone,
    const int64_t *rate_table, int64_t table_len,
    int64_t *best_mode, double *best_cost)
{
    return pick(pick_row(), coeffs, pred, n_blocks, n_modes, width, inv_step,
                step2, lambda, mode_bits, deadzone, rate_table, table_len,
                best_mode, best_cost);
}

int64_t llm265_cost_pick_scalar(
    const double *coeffs, const double *pred,
    int64_t n_blocks, int64_t n_modes, int64_t width,
    const double *inv_step, const double *step2, const double *lambda,
    const double *mode_bits, double deadzone,
    const int64_t *rate_table, int64_t table_len,
    int64_t *best_mode, double *best_cost)
{
    return pick(row_scalar, coeffs, pred, n_blocks, n_modes, width, inv_step,
                step2, lambda, mode_bits, deadzone, rate_table, table_len,
                best_mode, best_cost);
}

/* Pass 1 of a group of frames at one CU size (llm265_pass1_group).
 *
 * planes holds `count` padded source planes of height x width samples
 * (float64), both multiples of n.  For every n x n block, frame by
 * frame in raster order:
 *
 *   window      top[t] = plane[clamp(y0 - 1)][clamp(x0 - 1 + t)] and
 *               left[t] = plane[clamp(y0 - 1 + t)][clamp(x0 - 1)] for
 *               t = 0 .. 2n, clamped to the plane (pass1._window_index);
 *   source      the block's ordered DCT (_transform_kernel.c) in zigzag
 *               order;
 *   candidates  each mode's prediction from the window (predict, the
 *               reconstruction's predictors), its ordered DCT in zigzag
 *               order.
 *
 * With coeffs and pred (C-contiguous (blocks, n^2) and (blocks,
 * n_modes, n^2) doubles) the rows are written there -- a rate search's
 * held analysis.  With best_mode / best_cost each block's candidates
 * are ranked as llm265_cost_pick ranks them, at its own inv_step /
 * step2 / lambda: without coeffs and pred only one source row and one
 * candidate row of scratch exist at a time.  Every step is block-local,
 * so no block's numbers depend on the blocks beside it, and each is
 * the numpy twin's (pass1._analyse_twin + _pass1_pick) bit for bit --
 * checked when the library loads (native._check_pass1).
 *
 * Status: 0 = ok, 1 = refused (a size the codec does not have, a plane
 * that is not a whole number of blocks, a mode or zigzag entry out of
 * range, nothing to write, or what llm265_cost_pick refuses), 2 = no
 * memory for the scratch rows; nothing was written on a refusal. */
int64_t llm265_pass1_group(
    const double *planes, int64_t count, int64_t height, int64_t width,
    int64_t n, const int64_t *modes, int64_t n_modes,
    const double *basis, const int64_t *zigzag,
    const double *inv_step, const double *step2, const double *lambda,
    const double *mode_bits, double deadzone,
    const int64_t *rate_table, int64_t table_len,
    int64_t *best_mode, double *best_cost,
    double *coeffs, double *pred)
{
    double basis_t[MAX_LEAF * MAX_LEAF], top[2 * MAX_LEAF + 1],
        left[2 * MAX_LEAF + 1];
    double off = 0.5 - deadzone, *scratch;
    int dead = deadzone != 0.0, rank = best_mode != 0;
    int64_t nn = n * n, rows, cols, b = 0, k, by, bx, y, t, m;
    row_fn row = pick_row();
    mm_fn mm = ordered_mm();

    if (size_class(n) < 0 || count < 0 || height < n || width < n
        || height % n || width % n || n_modes < 1 || (!coeffs != !pred)
        || (!rank && !coeffs))
        return 1;
    if (rank && pick_refuses(nn, n_modes, rate_table, table_len))
        return 1;
    for (m = 0; m < n_modes; m++)
        if (modes[m] < 0 || modes[m] > ANGULAR_LAST)
            return 1;
    for (t = 0; t < nn; t++)
        if (zigzag[t] < 0 || zigzag[t] >= nn)
            return 1;
    /* The block, its transform, a prediction, the zigzagged source and
     * candidate rows, the pick's levels. */
    scratch = malloc(6 * nn * sizeof(double));
    if (!scratch)
        return 2;
    transpose(basis, basis_t, n);
    rows = height / n;
    cols = width / n;
    for (k = 0; k < count; k++) {
        const double *plane = planes + k * height * width;
        for (by = 0; by < rows; by++) {
            int64_t y0 = by * n, above = y0 > 0 ? y0 - 1 : 0;
            for (bx = 0; bx < cols; bx++, b++) {
                int64_t x0 = bx * n, beside = x0 > 0 ? x0 - 1 : 0;
                double *block = scratch, *dct = scratch + nn,
                       *guess = scratch + 2 * nn, *lv = scratch + 5 * nn;
                double *c = coeffs ? coeffs + b * nn : scratch + 3 * nn;
                double best = 0.0;
                int64_t pick_m = 0;

                for (t = 0; t <= 2 * n; t++) {
                    int64_t along = x0 - 1 + t, down = y0 - 1 + t;
                    along = along < 0 ? 0 : along < width ? along : width - 1;
                    down = down < 0 ? 0 : down < height ? down : height - 1;
                    top[t] = plane[above * width + along];
                    left[t] = plane[down * width + beside];
                }
                for (y = 0; y < n; y++)
                    for (t = 0; t < n; t++)
                        block[y * n + t] = plane[(y0 + y) * width + x0 + t];
                dct2(mm, block, dct, n, basis, basis_t, 0);
                for (t = 0; t < nn; t++)
                    c[t] = dct[zigzag[t]];
                for (m = 0; m < n_modes; m++) {
                    double *p = pred ? pred + (b * n_modes + m) * nn
                                     : scratch + 4 * nn;
                    predict(top, left, (int)modes[m], n, guess);
                    dct2(mm, guess, dct, n, basis, basis_t, 0);
                    for (t = 0; t < nn; t++)
                        p[t] = dct[zigzag[t]];
                    if (rank) {
                        double cost = row_cost(
                            row, c, p, inv_step[b], step2[b], lambda[b],
                            mode_bits[m], off, dead, nn, rate_table,
                            table_len, lv);
                        if (m == 0 || cost < best) {
                            best = cost;
                            pick_m = m;
                        }
                    }
                }
                if (rank) {
                    best_mode[b] = pick_m;
                    best_cost[b] = best;
                }
            }
        }
    }
    free(scratch);
    return 0;
}
