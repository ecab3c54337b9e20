/* The codec's one order-defined 2-D DCT pair, shared by the reconstruct
 * and encode kernels (no kernel of its own; _kernels.c includes it).
 *
 * Forward basis @ x @ basis.T, inverse basis.T @ x @ basis, evaluated
 * left to right as two plain matrix products in which every output is
 * accumulated from +0.0 sequentially in k, every product rounded to
 * double before it is added.  The loop below vectorises across outputs
 * (j), four at a time at either vector width, never across k, and the
 * build forbids fused multiply-add (-ffp-contract=off), so the result
 * is bit-identical to the numpy definition in
 * transform._ordered_matmul -- checked when the library is loaded
 * (native._check_dct).  The encoder's reconstruction and the decoder's
 * residual stage run this one body, so the float64 plane the encoder
 * builds is the plane the decoder reconstructs, bit for bit.
 *
 * llm265_dct2_batch (and its baseline-only twin, for the tests) is the
 * batch entry repro.codec.transform reaches through native.dct2.
 */

#include <stdint.h>

#define MAX_LEAF 64
#define N_CLASSES 5 /* block sizes 4, 8, 16, 32, 64 */

/* Rows i..i+3, columns j..j+w-1 (w = 4 or 8) of out = a @ r for n x n
 * row-major matrices (out aliases neither): out[i][j] = ((0 + a[i][0]
 * r[0][j]) + a[i][1] r[1][j]) + ...  The tile is accumulated across the
 * k loop, one row of it per broadcast a[i + t][k]; the compiler keeps
 * each tile row in vector registers.  Lanes are independent outputs,
 * so the tile's shape changes the speed and never a bit of the
 * result. */
static inline __attribute__((always_inline)) void ordered_mm_tile(
    const double *a, const double *r, double *out, int64_t n, int64_t i,
    int64_t j, const int w)
{
    double acc[4][8] = {{0.0}};
    int64_t k;
    int t, l;

    for (k = 0; k < n; k++) {
        const double *row = r + k * n + j;
        _Pragma("GCC unroll 4") for (t = 0; t < 4; t++) {
            double s = a[(i + t) * n + k];
            _Pragma("GCC unroll 8") for (l = 0; l < w; l++)
                acc[t][l] += s * row[l];
        }
    }
    _Pragma("GCC unroll 4") for (t = 0; t < 4; t++)
        _Pragma("GCC unroll 8") for (l = 0; l < w; l++)
            out[(i + t) * n + j + l] = acc[t][l];
}

/* out = a @ r, n a multiple of 4, in tiles w columns wide: 4 at the
 * baseline (a tile row is two SSE halves), 8 in the AVX2 body (two
 * registers a row, so eight independent sums hide the add latency).
 * The same text compiled twice (GCC 12+ and clang vectorise it at -O2;
 * an older GCC emits scalar code); the body is chosen per call
 * (_simd_kernel.c). */
static inline __attribute__((always_inline)) void ordered_mm_body(
    const double *a, const double *r, double *out, int64_t n, const int w)
{
    int64_t i, j;

    for (i = 0; i < n; i += 4) {
        for (j = 0; j + w <= n; j += w)
            ordered_mm_tile(a, r, out, n, i, j, w);
        for (; j < n; j += 4)
            ordered_mm_tile(a, r, out, n, i, j, 4);
    }
}

typedef void (*mm_fn)(const double *a, const double *r, double *out,
                      int64_t n);

static void ordered_mm_default(const double *a, const double *r, double *out,
                               int64_t n)
{
    ordered_mm_body(a, r, out, n, 4);
}

#ifdef HAVE_AVX2_BODY
static SIMD_AVX2 void ordered_mm_avx2(const double *a, const double *r,
                                      double *out, int64_t n)
{
    ordered_mm_body(a, r, out, n, 8);
}
#endif

/* The widest body this machine runs. */
static mm_fn ordered_mm(void)
{
#ifdef HAVE_AVX2_BODY
    if (simd_avx2())
        return ordered_mm_avx2;
#endif
    return ordered_mm_default;
}

static void transpose(const double *m, double *out, int64_t n)
{
    int64_t i, j;
    for (i = 0; i < n; i++)
        for (j = 0; j < n; j++)
            out[j * n + i] = m[i * n + j];
}

/* Forward: basis @ x @ basis.T; inverse: basis.T @ x @ basis. */
static void dct2(mm_fn mm, const double *x, double *out, int64_t n,
                 const double *basis, const double *basis_t, int inverse)
{
    double tmp[MAX_LEAF * MAX_LEAF];
    mm(inverse ? basis_t : basis, x, tmp, n);
    mm(tmp, inverse ? basis : basis_t, out, n);
}

static int size_class(int64_t n)
{
    switch (n) {
    case 4: return 0;
    case 8: return 1;
    case 16: return 2;
    case 32: return 3;
    case 64: return 4;
    default: return -1;
    }
}

/* The transposed bases of one call, made on first use of a class. */
typedef struct {
    double t[16 + 64 + 256 + 1024 + 4096];
    int have[N_CLASSES];
} transposes;

static const double *basis_t_of(transposes *cache, const double *basis,
                                int cls)
{
    static const int BASE[N_CLASSES] = {0, 16, 80, 336, 1360};
    double *t = cache->t + BASE[cls];

    if (!cache->have[cls]) {
        transpose(basis, t, (int64_t)4 << cls);
        cache->have[cls] = 1;
    }
    return t;
}

static int64_t dct2_batch(mm_fn mm, const double *x, double *out,
                          int64_t count, int64_t n, const double *basis,
                          int64_t inverse)
{
    double basis_t[MAX_LEAF * MAX_LEAF];
    int64_t b;

    if (size_class(n) < 0)
        return 1;
    transpose(basis, basis_t, n);
    for (b = 0; b < count; b++)
        dct2(mm, x + b * n * n, out + b * n * n, n, basis, basis_t,
             inverse != 0);
    return 0;
}

/* `count` n x n blocks of x into out (x != out).  Status 1 =
 * unsupported size.  The _default entry runs the baseline body whatever
 * the machine (tests hold the two bitwise equal). */
int64_t llm265_dct2_batch(const double *x, double *out, int64_t count,
                          int64_t n, const double *basis, int64_t inverse)
{
    return dct2_batch(ordered_mm(), x, out, count, n, basis, inverse);
}

int64_t llm265_dct2_batch_default(const double *x, double *out, int64_t count,
                                  int64_t n, const double *basis,
                                  int64_t inverse)
{
    return dct2_batch(ordered_mm_default, x, out, count, n, basis, inverse);
}
