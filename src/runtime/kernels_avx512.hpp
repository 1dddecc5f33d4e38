// AVX-512 vectorized GEMM kernels — the 16-lane SIMD backend of
// GemmDispatch.
//
// Registered names (see docs/kernels.md for the author guide):
//   dense       "dense-avx512"        row-parallel, 16-lane FMA
//   N:M         "nm-avx512"           compressed traversal, 16-lane FMA
//   dense batch "dense-batch-avx512"  packed (row, batch-column) tile grid
//   N:M batch   "nm-batch-avx512"     same grid over the compressed core
// and the decode-width GEMV family, vectorized along k:
//   dense       "dense-gemv-avx512"        16 partial sums per output
//   N:M         "nm-gemv-avx512"           window decode + register select
//   dense batch "dense-batch-gemv-avx512"  groups of <= 4 columns
//   N:M batch   "nm-batch-gemv-avx512"     groups of <= 8 columns
//
// Bit-exactness model: identical to the AVX2 family (kernels_avx2.hpp) —
// every output element accumulates along a single k-ascending (dense) /
// stored-value-ascending (N:M) chain of *fused* multiply-adds, with
// sub-vector column tails running the same chain through __mmask16
// masked vector ops. Because a 512-bit FMA performs the same rounded
// scalar fma per lane as a 256-bit FMA, the AVX-512 kernels land in the
// SAME rounding family as the AVX2 ones: bit-identical to them (and to
// their own serial/batched runs), float-tolerance-close to the scalar
// mul+add kernels. The GEMV family is its own rounding family: each
// output's 16 fused partial sums reduce through one fixed tree, so it is
// bit-exact across thread counts and batching but only bound-close to
// the others. The differential property sweep
// (tests/runtime/test_kernel_differential.cpp) pins all three claims.
//
// This translation unit is compiled with -mavx512f -mavx512bw (see
// src/CMakeLists.txt); GemmDispatch registers the kernels only when
// tasd::avx512_available() says the executing CPU/OS can run them
// (CPUID F+BW, OS saves ZMM/opmask state, TASD_DISABLE_AVX512 unset).
#pragma once

#include "runtime/gemm_dispatch.hpp"

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

/// Register all eight AVX-512 kernels under their names. Called once by
/// GemmDispatch's constructor when avx512_available(); never changes the
/// registry defaults.
void register_avx512_kernels(GemmDispatch& dispatch);

}  // namespace tasd::rt
