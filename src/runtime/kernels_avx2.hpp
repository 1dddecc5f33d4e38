// AVX2/FMA vectorized GEMM tile cores — the "avx2" kernel family
// (runtime/kernel_family.hpp; docs/kernels.md is the author guide):
//   dense  8-lane FMA over columns, 4-row register blocking
//   N:M    compressed traversal, 8-lane FMA
//
// Bit-exactness model: every output element accumulates along a single
// k-ascending (dense) / stored-value-ascending (N:M) chain of *fused*
// multiply-adds; sub-vector column tails run the same chain through
// masked vector ops, one rounding per step. The per-element value is
// therefore a pure function of the operands, independent of thread count,
// tile shape, column offset, and batch packing: each AVX2 kernel is
// bit-identical to its own serial run and a batched call is bit-identical
// to looping the single-RHS call. The FMA chain rounds differently
// from the scalar mul+add cores, so AVX2 and scalar form two
// internally-consistent rounding families that agree to
// float tolerance, not bitwise (the property tests pin both claims).
//
// This translation unit is compiled with -mavx2 -mfma (see
// src/CMakeLists.txt); kernel_families() lists the family only when
// tasd::avx2_available() says the executing CPU/OS can run it.
#pragma once

#include "runtime/kernel_family.hpp"

namespace tasd::rt {

/// Dense C += A*B restricted to an (output-row, output-column) tile;
/// AVX2/FMA analogue of dense_gemm_tile with the same any-disjoint-tiling
/// bit-exactness property (within the AVX2 family).
void dense_gemm_tile_avx2(const MatrixF& a, const MatrixF& b, MatrixF& c,
                          Index row_begin, Index row_end, Index col_begin,
                          Index col_end);

/// Compressed N:M C += A*B restricted to a tile; AVX2/FMA analogue of
/// nm_gemm_tile.
void nm_gemm_tile_avx2(const sparse::NMSparseMatrix& a, const MatrixF& b,
                       MatrixF& c, Index row_begin, Index row_end,
                       Index col_begin, Index col_end);

}  // namespace tasd::rt
