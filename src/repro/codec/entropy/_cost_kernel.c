/* Native batched RD costing for pass 1 of the two-pass search.
 *
 *   llm265_cost_pick    for every block the best candidate mode and its
 *                       RD cost, and nothing else -- the
 *                       (blocks * modes, width) candidate tensor, its
 *                       levels and its errors never exist outside one
 *                       L1-resident row.
 *
 * Per candidate row:
 *
 *   level[i]   trunc(x + copysign(0.5 - deadzone, x)), or rint(x) when
 *              deadzone == 0 (round-half-even under FE_TONEAREST);
 *              bitwise np.trunc / np.copysign / np.rint.
 *   rate       sum of rate_table[min(|level|, table_len - 1)], an int64
 *              fixed-point (2^15-scaled log2(m + 1)) sum that is
 *              order-independent and therefore exactly equal to numpy's
 *              np.take(...).sum().  rate_table[0] must be 0: zeros up to
 *              the last nonzero are summed, not skipped, so the
 *              accumulation has no branch.
 *   nnz, last  count of nonzero levels and the highest nonzero index
 *              (-1 for an all-zero row), found by a scan from the end.
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
 * repro.codec.encoder._pass1_pick's numpy form on any machine.
 *
 * Built on demand by repro.codec.entropy.native (GIL released).
 * Return status: 0 = ok, 1 = a row wider than the stack level buffer
 * (the wrapper falls back to numpy; no output was written).
 */

#include <math.h>
#include <stdint.h>

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

int64_t llm265_cost_pick(
    const double *coeffs, const double *pred,
    int64_t n_blocks, int64_t n_modes, int64_t width,
    const double *inv_step, const double *step2, const double *lambda,
    const double *mode_bits, double deadzone,
    const int64_t *rate_table, int64_t table_len,
    int64_t *best_mode, double *best_cost)
{
    double off = 0.5 - deadzone;
    double lv[MAX_WIDTH];
    int64_t b, m;

    if (width < 1 || width > MAX_WIDTH || n_modes < 1)
        return 1;
    for (b = 0; b < n_blocks; b++) {
        const double *c = coeffs + b * width;
        for (m = 0; m < n_modes; m++) {
            const double *p = pred + (b * n_modes + m) * width;
            int64_t rate, nnz, last;
            double sse = deadzone != 0.0
                ? quantize_row(c, p, inv_step[b], off, 1, width, lv)
                : quantize_row(c, p, inv_step[b], off, 0, width, lv);
            double bits = 1.0, cost;
            level_stats(lv, width, rate_table, table_len, &rate, &nnz, &last);
            if (nnz > 0)
                bits = (5.0 + (double)last)
                    + ((double)rate / 16384.0 + 2.0 * (double)nnz);
            cost = (sse * step2[b] + lambda[b] * bits) + lambda[b] * mode_bits[m];
            if (m == 0 || cost < best_cost[b]) {
                best_cost[b] = cost;
                best_mode[b] = m;
            }
        }
    }
    return 0;
}
