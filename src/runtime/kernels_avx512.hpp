// AVX-512 vectorized GEMM kernels — two kernel families
// (runtime/kernel_family.hpp; docs/kernels.md is the author guide):
//   "avx512"       tile cores: dense 16-lane FMA over columns, N:M
//                  compressed traversal with row-grouped blocks
//   "gemv-avx512"  decode-width span entries, vectorized along k: dense
//                  16 partial sums per output in groups of <= 4
//                  columns, N:M window decode + register select in
//                  groups of <= 8 columns
//
// Bit-exactness model: the tile cores match the AVX2 family
// (kernels_avx2.hpp) — every output element accumulates along a single
// k-ascending (dense) / stored-value-ascending (N:M) chain of *fused*
// multiply-adds, with sub-vector column tails running the same chain
// through __mmask16 masked vector ops. Because a 512-bit FMA performs
// the same rounded scalar fma per lane as a 256-bit FMA, "avx512" lands
// in the SAME rounding family as "avx2": bit-identical to it (and to its
// own serial/batched runs), float-tolerance-close to the scalar mul+add
// cores. The GEMV family is its own rounding family: each output's 16
// fused partial sums reduce through one fixed tree, so it is bit-exact
// across thread counts and batching but only bound-close to the others.
// The differential property sweep
// (tests/runtime/test_kernel_differential.cpp) pins all three claims.
//
// This translation unit is compiled with -mavx512f -mavx512bw (see
// src/CMakeLists.txt); kernel_families() lists both families only when
// tasd::avx512_available() says the executing CPU/OS can run them
// (CPUID F+BW, OS saves ZMM/opmask state, TASD_DISABLE_AVX512 unset).
#pragma once

#include "runtime/kernel_family.hpp"

namespace tasd::rt {

/// Dense C += A*B restricted to an (output-row, output-column) tile;
/// AVX-512 analogue of dense_gemm_tile with the same any-disjoint-tiling
/// bit-exactness property (within the FMA family).
void dense_gemm_tile_avx512(const MatrixF& a, const MatrixF& b, MatrixF& c,
                            Index row_begin, Index row_end, Index col_begin,
                            Index col_end);

/// Compressed N:M C += A*B restricted to a tile; AVX-512 analogue of
/// nm_gemm_tile.
void nm_gemm_tile_avx512(const sparse::NMSparseMatrix& a, const MatrixF& b,
                         MatrixF& c, Index row_begin, Index row_end,
                         Index col_begin, Index col_end);

/// The GEMV family's dense entry (a DenseFn): the right-hand sides are
/// transposed into k-contiguous columns once per call.
void dense_gemv_avx512(const MatrixF& a, std::span<const MatrixF> bs,
                       std::span<MatrixF> cs, ThreadPool& pool);

/// The GEMV family's N:M entry (an NmFn).
void nm_gemv_avx512(const sparse::NMSparseMatrix& a,
                    std::span<const MatrixF> bs, std::span<MatrixF> cs,
                    ThreadPool& pool);

}  // namespace tasd::rt
