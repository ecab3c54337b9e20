/* Run-time choice of vector width, shared by the cost pick and the
 * ordered transform (no kernel of its own; _kernels.c includes it).
 *
 * native._CFLAGS stay at the architecture's baseline (plus SSE4.1 on
 * x86-64), so a cached object runs on every machine of the
 * architecture.  A kernel with a wider body compiles it as a
 * SIMD_AVX2 function and calls it only when simd_avx2() says the CPU
 * -- and the OS, which must save the ymm registers -- supports AVX2;
 * everywhere else the baseline body runs.
 *
 * Four doubles, one __m256d, is the only width that keeps the codec's
 * definitions: the pick's distortion is four strided lanes summed
 * sequentially, and the ordered transform's output tile is four columns
 * wide with every output summed sequentially in k.  Four lanes compute
 * exactly those sums; eight (AVX-512) would have to change them.
 */

#include <stdint.h>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define HAVE_AVX2_BODY 1
#define SIMD_AVX2 __attribute__((target("avx2")))
#endif

static int simd_avx2(void)
{
#ifdef HAVE_AVX2_BODY
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
#else
    return 0;
#endif
}

/* Lanes this library's vector bodies run at: 4 (AVX2), 2 (the SSE4.1
 * baseline) or 1. */
int64_t llm265_simd_lanes(void)
{
    if (simd_avx2())
        return 4;
#ifdef __SSE4_1__
    return 2;
#else
    return 1;
#endif
}
