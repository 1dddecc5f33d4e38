// KernelFamily: the fixed table of GEMM backends every GEMM path runs
// through.
//
// A family is one dense entry plus one N:M entry, both over a span of
// right-hand sides (a single-RHS call is the 1-item batch), and the
// rounding family its outputs belong to. The table is fixed at build
// time and filtered once per process by CPUID and the TASD_DISABLE_*
// escape hatches:
//
//   "scalar"       mul+add tile cores (always available; the default)
//   "avx2"         AVX2/FMA tile cores (tasd::avx2_available())
//   "avx512"       AVX-512 tile cores (tasd::avx512_available())
//   "gemv-avx512"  the decode-width GEMV cores, vectorized along k
//                  (tasd::avx512_available())
//
// A tile family is its two tile cores plus one shared driver: the rows
// partition over the pool at full width, and a multi-item batch is
// packed once into one wide right-hand side and runs that same schedule
// over the packed pair. Every family partitions work by output row with
// no shared float accumulation, and its per-element MAC order does not
// depend on the column range, so each family is bit-identical at every
// thread count and a batched call is bit-identical to looping the
// single-RHS call over the items. Three rounding families agree to
// float tolerance, not bitwise: "scalar" (mul+add), "fma" (AVX2 and
// AVX-512 issue one fused multiply-add per step; the two vector widths
// are bit-identical to each other) and "gemv" (16 fused partial sums per
// output, then a fixed tree). best_family() is the static chain
// CompileOptions' "auto" binds per layer; per-layer autotuning
// (runtime/autotune.hpp) refines that choice by measurement.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "common/parallel.hpp"
#include "sparse/nm_matrix.hpp"
#include "tensor/matrix.hpp"

namespace tasd::rt {

/// cs[i] += A * bs[i] for every item (ragged widths allowed; every item
/// has A.cols() rows and its cs[i] is A.rows() x bs[i].cols()).
using DenseFn = void (*)(const MatrixF& a, std::span<const MatrixF> bs,
                         std::span<MatrixF> cs, ThreadPool& pool);

/// cs[i] += A * bs[i] for a compressed A, same contract.
using NmFn = void (*)(const sparse::NMSparseMatrix& a,
                      std::span<const MatrixF> bs, std::span<MatrixF> cs,
                      ThreadPool& pool);

/// One backend: a named pair of entry points and its rounding family.
struct KernelFamily {
  const char* name;
  const char* rounding;  ///< "scalar", "fma" or "gemv"
  DenseFn dense;
  NmFn nm;
};

/// How a GEMM call executes: which pool and which family. Null pool =
/// the process default pool; null family = the scalar family.
struct ExecPolicy {
  ThreadPool* pool = nullptr;
  const KernelFamily* family = nullptr;
};

/// Widest right-hand side (a layer's positions) "auto" binds to the
/// decode-width GEMV family.
inline constexpr Index kGemvMaxWidth = 8;

ThreadPool& resolve_pool(const ExecPolicy& policy);
const KernelFamily& resolve_family(const ExecPolicy& policy);

/// The families this process can run, in table order (scalar first).
const std::vector<const KernelFamily*>& kernel_families();

/// The always-available scalar family.
const KernelFamily& scalar_family();

/// The available family called `name`, or nullptr.
const KernelFamily* find_family(std::string_view name);

/// Static choice for a layer's right-hand-side width (its positions;
/// 0 = unknown): the GEMV family for widths 1..kGemvMaxWidth when
/// available, otherwise avx512 > avx2 > scalar.
const KernelFamily& best_family(Index width = 0);

// ------------------------------------------------------------ tile cores
// The serial units the tile families partition over.

/// Dense C += A*B restricted to output rows [row_begin, row_end) and
/// output columns [col_begin, col_end): j-tiled, 4-wide k-unrolled,
/// every MAC executed (no zero skip). Per-element MAC order (k
/// ascending, 4-wide) is the same for every tile shape, so any disjoint
/// tiling of the output reproduces the full-range result bit-for-bit.
void dense_gemm_tile(const MatrixF& a, const MatrixF& b, MatrixF& c,
                     Index row_begin, Index row_end, Index col_begin,
                     Index col_end);

/// Compressed N:M C += A*B restricted to an (output-row, output-column)
/// tile, same bit-exactness property as dense_gemm_tile.
void nm_gemm_tile(const sparse::NMSparseMatrix& a, const MatrixF& b,
                  MatrixF& c, Index row_begin, Index row_end,
                  Index col_begin, Index col_end);

// Packed batch layout: items' columns laid side by side in one wide
// matrix, packed(r, off[i] + j) == item_i(r, j). Pack/unpack are exact
// copies, so callers that run many GEMMs over the same batch (a TASD
// series' term loop) can pack once, pass the packed pair as a 1-item
// batch, and unpack once.

/// Prefix sums of item widths; off.back() is the packed column count.
std::vector<Index> batch_offsets(std::span<const MatrixF> items);

/// Copy items (all with equal row counts) into one packed wide matrix.
MatrixF pack_batch(std::span<const MatrixF> items,
                   const std::vector<Index>& off);

/// Copy packed columns back out into the per-item matrices.
void unpack_batch(const MatrixF& packed, const std::vector<Index>& off,
                  std::span<MatrixF> items);

}  // namespace tasd::rt
