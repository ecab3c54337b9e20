/* The codec's kernel library: one translation unit, one shared object.
 *
 * Every C file of the codec is included here exactly once, each after
 * the files it uses, and nowhere else; repro.codec.entropy.native
 * compiles this file alone and keys the cached object by a hash of
 * every _*.c file beside it and the compiler flags.
 *
 * _contexts_kernel.c   the shared layouts: coder constants, contexts,
 *                      intra modes, leaf-plan rows, the mode map
 * _simd_kernel.c       the run-time choice of vector width
 * _transform_kernel.c  the ordered DCT pair (llm265_dct2_batch)
 * _write_kernel.c      the range encoder and coefficient-block writer
 * _slice_kernel.c      whole-slice entropy decode (llm265_decode_slices)
 * _recon_kernel.c      reconstruction, reference gather, DC sum
 * _cost_kernel.c       pass 1's RD pick (llm265_cost_pick)
 * _encode_kernel.c     whole-slice intra encode (llm265_encode_slices)
 */

#include "_contexts_kernel.c"
#include "_simd_kernel.c"
#include "_transform_kernel.c"
#include "_write_kernel.c"
#include "_slice_kernel.c"
#include "_recon_kernel.c"
#include "_cost_kernel.c"
#include "_encode_kernel.c"
