// AVX-512 GEMM kernels. Compiled with -mavx512f -mavx512bw; executed
// only when runtime detection (tasd::avx512_available) lists their
// families.
//
// The bit-exactness discipline (docs/kernels.md): one accumulator chain
// per output element, advanced by exactly one fused multiply-add per
// k-step (dense) or stored value (N:M), k/value order ascending. A ZMM
// FMA rounds each lane exactly like a YMM FMA rounds each of its lanes,
// so these kernels are bit-identical to the AVX2 family, not merely
// tolerance-close — the two SIMD backends form one rounding family and
// the autotuner can swap between them per layer without changing a bit
// of output. Sub-vector column tails run the same chain through
// __mmask16 masked loads/stores (zero-masked loads never fault on and
// never read the disabled lanes).
//
// The dense core mirrors kernels_avx2.cpp: a 512-column macro tile
// processed for a whole block of output rows, accumulating 4 rows per
// pass. The N:M core goes further than its AVX2 twin: output rows
// advance through the k blocks as a group (so a block's B slab is
// L1-hot for every row after the first) and row pairs take 128-column
// register blocks, because the compressed traversal is bound by loads
// and per-stored-value overhead (broadcast + index fetch), not FMA
// throughput. On narrow shapes (GEMV, width ≤ 8) almost everything
// would run through the masked tail, so "auto" binds those layers to the
// k-vectorized GEMV family at the end of this file instead (its own
// rounding family: 16 partial sums per output, then a fixed tree).
#include "runtime/kernels_avx512.hpp"

#include <immintrin.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace tasd::rt {

namespace {

// Column macro tile: keeps B rows' 2 KB segments cache-resident while a
// row block passes over them (matches the other families' kTileN).
constexpr Index kMacroTileN = 512;

/// Opmask enabling the first `tail` (1..15) of 16 lanes.
inline __mmask16 tail_mask(Index tail) {
  return static_cast<__mmask16>((1U << tail) - 1U);
}

// ------------------------------------------------------------ dense core

/// Accumulate kRows consecutive output rows of C over columns [c0, c1):
/// 32-column register blocks (kRows x 2 vector accumulators) so each
/// loaded B vector feeds kRows FMA chains, then a 16-column block and a
/// masked-vector tail with the identical per-element chain.
template <int kRows>
void dense_rows_avx512(const float* __restrict arow, Index k, const float* bd,
                       Index n, float* __restrict crow, Index c0, Index c1) {
  Index j = c0;
  for (; j + 32 <= c1; j += 32) {
    __m512 acc0[kRows], acc1[kRows];
    for (int r = 0; r < kRows; ++r) {
      acc0[r] = _mm512_loadu_ps(crow + r * n + j);
      acc1[r] = _mm512_loadu_ps(crow + r * n + j + 16);
    }
    for (Index p = 0; p < k; ++p) {
      const __m512 b0 = _mm512_loadu_ps(bd + p * n + j);
      const __m512 b1 = _mm512_loadu_ps(bd + p * n + j + 16);
      for (int r = 0; r < kRows; ++r) {
        const __m512 av = _mm512_set1_ps(arow[r * k + p]);
        acc0[r] = _mm512_fmadd_ps(av, b0, acc0[r]);
        acc1[r] = _mm512_fmadd_ps(av, b1, acc1[r]);
      }
    }
    for (int r = 0; r < kRows; ++r) {
      _mm512_storeu_ps(crow + r * n + j, acc0[r]);
      _mm512_storeu_ps(crow + r * n + j + 16, acc1[r]);
    }
  }
  for (; j + 16 <= c1; j += 16) {
    __m512 acc[kRows];
    for (int r = 0; r < kRows; ++r) acc[r] = _mm512_loadu_ps(crow + r * n + j);
    for (Index p = 0; p < k; ++p) {
      const __m512 bv = _mm512_loadu_ps(bd + p * n + j);
      for (int r = 0; r < kRows; ++r)
        acc[r] = _mm512_fmadd_ps(_mm512_set1_ps(arow[r * k + p]), bv, acc[r]);
    }
    for (int r = 0; r < kRows; ++r) _mm512_storeu_ps(crow + r * n + j, acc[r]);
  }
  if (j < c1) {
    // Sub-vector column tail: one masked-vector pass, the same
    // k-ascending fused chain per element as the full blocks (disabled
    // lanes stay zero through the chain and are never stored).
    const __mmask16 mask = tail_mask(c1 - j);
    __m512 acc[kRows];
    for (int r = 0; r < kRows; ++r)
      acc[r] = _mm512_maskz_loadu_ps(mask, crow + r * n + j);
    for (Index p = 0; p < k; ++p) {
      const __m512 bv = _mm512_maskz_loadu_ps(mask, bd + p * n + j);
      for (int r = 0; r < kRows; ++r)
        acc[r] = _mm512_fmadd_ps(_mm512_set1_ps(arow[r * k + p]), bv, acc[r]);
    }
    for (int r = 0; r < kRows; ++r)
      _mm512_mask_storeu_ps(crow + r * n + j, mask, acc[r]);
  }
}

// -------------------------------------------------------------- N:M core

/// Accumulate kVecs*16 columns of a group of kRows consecutive C rows
/// from each row's compressed stored values. The group advances through
/// the k blocks together, so the block's B slab is L1-hot for every row
/// after the first — the single-row traversal was B-bandwidth-bound and
/// gained almost nothing from the wider vectors. Each output element
/// still accumulates its own register chain in stored-value order, so
/// the row grouping changes no bit of output.
template <int kRows, int kVecs>
void nm_rows_block_avx512(const sparse::NMSparseMatrix& a, const float* bd,
                          float* __restrict cd, Index r0, Index n, Index j) {
  const auto m = static_cast<Index>(a.pattern().m);
  const auto& values = a.values();
  const auto& idx = a.in_block_index();
  const auto& offsets = a.block_offsets();
  const Index blocks_per_row = a.blocks_per_row();

  __m512 acc[kRows][kVecs];
  for (int r = 0; r < kRows; ++r)
    for (int v = 0; v < kVecs; ++v)
      acc[r][v] = _mm512_loadu_ps(cd + (r0 + r) * n + j + 16 * v);
  for (Index blk = 0; blk < blocks_per_row; ++blk) {
    const Index k_base = blk * m;
    for (int r = 0; r < kRows; ++r) {
      const Index group = (r0 + r) * blocks_per_row + blk;
      for (Index s = offsets[group]; s < offsets[group + 1]; ++s) {
        const __m512 av = _mm512_set1_ps(values[s]);
        const float* brow = bd + (k_base + idx[s]) * n + j;
        for (int v = 0; v < kVecs; ++v)
          acc[r][v] =
              _mm512_fmadd_ps(av, _mm512_loadu_ps(brow + 16 * v), acc[r][v]);
      }
    }
  }
  for (int r = 0; r < kRows; ++r)
    for (int v = 0; v < kVecs; ++v)
      _mm512_storeu_ps(cd + (r0 + r) * n + j + 16 * v, acc[r][v]);
}

/// Masked sub-vector column tail of the same row-group traversal (a
/// width < 16 call runs entirely through here, where the shared B
/// columns make the group's L1 reuse total).
template <int kRows>
void nm_rows_tail_avx512(const sparse::NMSparseMatrix& a, const float* bd,
                         float* __restrict cd, Index r0, Index n, Index j,
                         __mmask16 mask) {
  const auto m = static_cast<Index>(a.pattern().m);
  const auto& values = a.values();
  const auto& idx = a.in_block_index();
  const auto& offsets = a.block_offsets();
  const Index blocks_per_row = a.blocks_per_row();

  __m512 acc[kRows];
  for (int r = 0; r < kRows; ++r)
    acc[r] = _mm512_maskz_loadu_ps(mask, cd + (r0 + r) * n + j);
  for (Index blk = 0; blk < blocks_per_row; ++blk) {
    const Index k_base = blk * m;
    for (int r = 0; r < kRows; ++r) {
      const Index group = (r0 + r) * blocks_per_row + blk;
      for (Index s = offsets[group]; s < offsets[group + 1]; ++s) {
        const __m512 bv =
            _mm512_maskz_loadu_ps(mask, bd + (k_base + idx[s]) * n + j);
        acc[r] = _mm512_fmadd_ps(_mm512_set1_ps(values[s]), bv, acc[r]);
      }
    }
  }
  for (int r = 0; r < kRows; ++r)
    _mm512_mask_storeu_ps(cd + (r0 + r) * n + j, mask, acc[r]);
}

/// One row group (kRows consecutive rows) across columns [jt, je).
template <int kRows>
void nm_rows_avx512(const sparse::NMSparseMatrix& a, const float* bd, float* cd,
                    Index r0, Index n, Index jt, Index je) {
  Index j = jt;
  // Pairs of rows take 128-column blocks (16 accumulators): each stored
  // value's fixed overhead (broadcast + index fetch) then feeds 8 FMAs
  // instead of 4, which matters because the traversal is load-port
  // bound, not FMA bound.
  if constexpr (kRows <= 2) {
    for (; j + 128 <= je; j += 128)
      nm_rows_block_avx512<kRows, 8>(a, bd, cd, r0, n, j);
  }
  for (; j + 64 <= je; j += 64) nm_rows_block_avx512<kRows, 4>(a, bd, cd, r0, n, j);
  if (j + 32 <= je) {
    nm_rows_block_avx512<kRows, 2>(a, bd, cd, r0, n, j);
    j += 32;
  }
  if (j + 16 <= je) {
    nm_rows_block_avx512<kRows, 1>(a, bd, cd, r0, n, j);
    j += 16;
  }
  if (j < je) nm_rows_tail_avx512<kRows>(a, bd, cd, r0, n, j, tail_mask(je - j));
}

}  // namespace

void dense_gemm_tile_avx512(const MatrixF& a, const MatrixF& b, MatrixF& c,
                            Index row_begin, Index row_end, Index col_begin,
                            Index col_end) {
  const Index k = a.cols(), n = b.cols();
  for (Index jt = col_begin; jt < col_end; jt += kMacroTileN) {
    const Index je = std::min(col_end, jt + kMacroTileN);
    Index i = row_begin;
    for (; i + 4 <= row_end; i += 4)
      dense_rows_avx512<4>(a.data() + i * k, k, b.data(), n, c.data() + i * n,
                           jt, je);
    for (; i + 2 <= row_end; i += 2)
      dense_rows_avx512<2>(a.data() + i * k, k, b.data(), n, c.data() + i * n,
                           jt, je);
    if (i < row_end)
      dense_rows_avx512<1>(a.data() + i * k, k, b.data(), n, c.data() + i * n,
                           jt, je);
  }
}

void nm_gemm_tile_avx512(const sparse::NMSparseMatrix& a, const MatrixF& b,
                         MatrixF& c, Index row_begin, Index row_end,
                         Index col_begin, Index col_end) {
  const Index n = b.cols();
  const float* bd = b.data();
  float* cd = c.data();

  // Each (row group, block width) pair costs one traversal of the
  // group's compressed storage, so take 4-row groups and the widest
  // column block that fits (64/32/16, then the masked tail) — the row
  // group shares each k block's B slab through L1, the wide block
  // amortizes each traversal.
  for (Index jt = col_begin; jt < col_end; jt += kMacroTileN) {
    const Index je = std::min(col_end, jt + kMacroTileN);
    Index r = row_begin;
    if (je - jt >= 128) {
      // Wide spans: row pairs, so most columns run the 128-wide block.
      for (; r + 2 <= row_end; r += 2)
        nm_rows_avx512<2>(a, bd, cd, r, n, jt, je);
    } else {
      for (; r + 4 <= row_end; r += 4)
        nm_rows_avx512<4>(a, bd, cd, r, n, jt, je);
      if (r + 2 <= row_end) {
        nm_rows_avx512<2>(a, bd, cd, r, n, jt, je);
        r += 2;
      }
    }
    if (r < row_end) nm_rows_avx512<1>(a, bd, cd, r, n, jt, je);
  }
}

namespace {

// ---------------------------------------------- decode-width GEMV family
// k-vectorized: every output element (row r, column j) owns 16 partial
// sums. Each 16-lane step adds one product per lane with a fused
// multiply-add, a fixed tree reduces the 16 lanes, and the total is
// added to C once. Which lane a product lands in depends only on the
// weight's layout (dense: k mod 16; N:M: the stored value's slot in its
// window), never on the column group, the row range or the thread
// count, so batched == looped and every thread count agree bitwise.

/// Columns one pass over a weight row serves (the register budget).
constexpr int kGemvMaxGroup = 8;

/// Row-chunk work floor, in dense 16-lane steps times columns: a smaller
/// chunk would cost less than the pool's fork/join, so small decode
/// GEMVs stay on the calling thread.
constexpr Index kGemvChunkSteps = Index{1} << 15;

/// Cost of one N:M window (decode + select + FMA) in dense steps, as
/// measured on 512x512 2:4 GEMVs (AVX-512 Xeon): the grain then sizes by
/// stored-value slots rather than by rows.
constexpr Index kWindowSteps = 4;

/// The right-hand sides of one call, transposed so each column is
/// contiguous along k (zero padded past k, so windowed x loads never
/// leave the buffer), with each column's C element (0, j) and row stride.
struct GemvColumns {
  Index kpad = 0;
  std::vector<float> x;
  std::vector<float*> out;
  std::vector<Index> stride;

  GemvColumns(Index k, std::span<const MatrixF> bs, std::span<MatrixF> cs)
      : kpad((k + 15) / 16 * 16 + 32) {
    const Index cols = batch_offsets(bs).back();
    out.reserve(cols);
    stride.reserve(cols);
    for (std::size_t i = 0; i < bs.size(); ++i)
      for (Index j = 0; j < bs[i].cols(); ++j) {
        out.push_back(cs[i].data() + j);
        stride.push_back(cs[i].cols());
      }
    x.assign(out.size() * kpad, 0.0F);
    float* col = x.data();
    for (const MatrixF& b : bs) {
      for (Index j = 0; j < b.cols(); ++j, col += kpad)
        for (Index p = 0; p < k; ++p) col[p] = b(p, j);
    }
  }

  [[nodiscard]] Index cols() const { return out.size(); }
  [[nodiscard]] const float* column(Index j) const {
    return x.data() + j * kpad;
  }
  float& at(Index r, Index j) const { return out[j][r * stride[j]]; }
};

/// The fixed reduction tree: 16 -> 8 -> 4 -> 2 -> 1 lanes. (Zero-masked
/// shuffles throughout: GCC 12 flags the unmasked forms' undefined
/// pass-through operand under -Wuninitialized.)
inline float tree_sum(__m512 v) {
  v = _mm512_add_ps(v, _mm512_maskz_shuffle_f32x4(0xFFFF, v, v, 0x4E));
  v = _mm512_add_ps(v, _mm512_maskz_shuffle_f32x4(0xFFFF, v, v, 0xB1));
  v = _mm512_add_ps(v, _mm512_maskz_permute_ps(0xFFFF, v, 0x4E));
  v = _mm512_add_ps(v, _mm512_maskz_permute_ps(0xFFFF, v, 0xB1));
  return _mm512_cvtss_f32(v);
}

/// Zero-extend the 16 bytes at `p` to 16 i32 lanes, reading only the
/// first `count` when fewer than 16 remain in the array.
inline __m512i load_index_bytes(const std::uint8_t* p, Index count) {
  if (count >= 16)
    return _mm512_maskz_cvtepu8_epi32(
        0xFFFF, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  const __m512i bytes =
      _mm512_maskz_loadu_epi8((std::uint64_t{1} << count) - 1, p);
  return _mm512_maskz_cvtepu8_epi32(
      0xFFFF, _mm512_maskz_extracti32x4_epi32(0xF, bytes, 0));
}

/// Call f(j, group) over [0, cols) in groups of kMax (4 or 8) columns,
/// then the 4/2/1 remainder; `group` is a std::integral_constant<int, G>.
template <int kMax, class F>
void for_column_groups(Index cols, F&& f) {
  static_assert(kMax == 4 || kMax == kGemvMaxGroup);
  Index j = 0;
  for (; j + kMax <= cols; j += kMax)
    f(j, std::integral_constant<int, kMax>{});
  if (kMax == 8 && j + 4 <= cols) {
    f(j, std::integral_constant<int, 4>{});
    j += 4;
  }
  if (j + 2 <= cols) {
    f(j, std::integral_constant<int, 2>{});
    j += 2;
  }
  if (j < cols) f(j, std::integral_constant<int, 1>{});
}

/// Partition [0, rows) over the pool with chunks of at least
/// kGemvChunkSteps steps (`row_steps` 16-lane steps per row and column).
void gemv_rows_parallel(ThreadPool& pool, Index rows, Index row_steps,
                        Index cols,
                        const std::function<void(Index, Index)>& body) {
  const Index per_row = std::max<Index>(1, row_steps * cols);
  const Index grain = std::max<Index>(1, kGemvChunkSteps / per_row);
  pool.parallel_for(0, rows, grain, body);
}

/// Dense GEMV core: kRows consecutive rows x kCols columns, one 16-lane
/// accumulator each.
template <int kRows, int kCols>
void dense_gemv_block(const MatrixF& a, Index r0, const GemvColumns& xc,
                      Index j0) {
  const Index k = a.cols();
  const float* x[kCols];
  for (int c = 0; c < kCols; ++c) x[c] = xc.column(j0 + c);
  const float* w[kRows];
  for (int r = 0; r < kRows; ++r) w[r] = a.data() + (r0 + r) * k;
  __m512 acc[kRows][kCols];
  for (int r = 0; r < kRows; ++r)
    for (int c = 0; c < kCols; ++c) acc[r][c] = _mm512_setzero_ps();
  Index p = 0;
  for (; p + 16 <= k; p += 16) {
    __m512 xv[kCols];
    for (int c = 0; c < kCols; ++c) xv[c] = _mm512_loadu_ps(x[c] + p);
    for (int r = 0; r < kRows; ++r) {
      const __m512 wv = _mm512_loadu_ps(w[r] + p);
      for (int c = 0; c < kCols; ++c)
        acc[r][c] = _mm512_fmadd_ps(wv, xv[c], acc[r][c]);
    }
  }
  if (p < k) {
    const __mmask16 mask = tail_mask(k - p);
    for (int r = 0; r < kRows; ++r) {
      const __m512 wv = _mm512_maskz_loadu_ps(mask, w[r] + p);
      for (int c = 0; c < kCols; ++c)
        acc[r][c] = _mm512_mask3_fmadd_ps(wv, _mm512_loadu_ps(x[c] + p),
                                          acc[r][c], mask);
    }
  }
  for (int r = 0; r < kRows; ++r)
    for (int c = 0; c < kCols; ++c)
      xc.at(r0 + r, j0 + c) += tree_sum(acc[r][c]);
}

}  // namespace

void dense_gemv_avx512(const MatrixF& a, std::span<const MatrixF> bs,
                       std::span<MatrixF> cs, ThreadPool& pool) {
  const GemvColumns xc(a.cols(), bs, cs);
  if (xc.cols() == 0) return;
  gemv_rows_parallel(
      pool, a.rows(), (a.cols() + 15) / 16, xc.cols(),
      [&](Index r0, Index r1) {
        // Four rows at a time through every column group of at most
        // four columns: the rows' weights stay in L1 across the groups,
        // and each loaded x vector feeds four FMA chains.
        Index r = r0;
        for (; r + 4 <= r1; r += 4)
          for_column_groups<4>(xc.cols(), [&](Index j, auto group) {
            dense_gemv_block<4, decltype(group)::value>(a, r, xc, j);
          });
        for (; r < r1; ++r)
          for_column_groups<4>(xc.cols(), [&](Index j, auto group) {
            dense_gemv_block<1, decltype(group)::value>(a, r, xc, j);
          });
      });
}

namespace {

/// Decode constants of one N:M pattern with N <= 16: a window is
/// 16 / N blocks, whose stored values fill 16 slots (N per block).
struct NmWindow {
  Index blocks = 0;     ///< blocks per window
  Index m = 0;          ///< block size
  bool select = false;  ///< window spans <= 32 k: x from registers
  __m512i count_lane;   ///< slot s -> i32 lane of its block's count
  __m512i slot_rank;    ///< slot s -> s mod N, INT_MAX when unused
  __m512i block_k;      ///< slot s -> (s / N) * M

  explicit NmWindow(const sparse::NMPattern& pattern)
      : blocks(16 / pattern.n), m(static_cast<Index>(pattern.m)),
        select(blocks * m <= 32) {
    alignas(64) std::int32_t lane[16], rank[16], base[16];
    for (int s = 0; s < 16; ++s) {
      const bool used = s < static_cast<int>(blocks) * pattern.n;
      lane[s] = used ? 2 * (s / pattern.n) : 0;
      rank[s] = used ? s % pattern.n : INT_MAX;
      base[s] = used ? (s / pattern.n) * pattern.m : 0;
    }
    count_lane = _mm512_load_si512(lane);
    slot_rank = _mm512_load_si512(rank);
    block_k = _mm512_load_si512(base);
  }
};

/// One row of a windowed N:M term against kCols columns. Per window:
/// block counts -> a 16-slot mask; values and in-block indices
/// expand-load into their slots; x lanes come from two register-
/// resident slices by vpermt2ps (or a gather when the window is wider
/// than 32 k); one masked FMA per column.
template <int kCols, bool kSelect>
void nm_gemv_row(const sparse::NMSparseMatrix& a, const NmWindow& win,
                 Index r, const GemvColumns& xc, Index j0) {
  const Index bpr = a.blocks_per_row();
  const Index* off = a.block_offsets().data() + r * bpr;
  const float* values = a.values().data();
  const std::uint8_t* idx = a.in_block_index().data();
  const Index nnz = a.nnz();
  const float* x[kCols];
  for (int c = 0; c < kCols; ++c) x[c] = xc.column(j0 + c);
  __m512 acc[kCols];
  for (int c = 0; c < kCols; ++c) acc[c] = _mm512_setzero_ps();

  // Block counts of a window as i64 lanes (blocks 0..7, and 8..15 for
  // 1:M); the masks cut a row's last window short, and its missing
  // blocks load as zero-count.
  const auto window = [&](Index blk, __mmask8 lo, __mmask8 hi) {
    const __m512i cnt0 =
        _mm512_sub_epi64(_mm512_maskz_loadu_epi64(lo, off + blk + 1),
                         _mm512_maskz_loadu_epi64(lo, off + blk));
    __m512i cnt1 = _mm512_setzero_si512();
    if (hi != 0)
      cnt1 = _mm512_sub_epi64(_mm512_maskz_loadu_epi64(hi, off + blk + 9),
                              _mm512_maskz_loadu_epi64(hi, off + blk + 8));
    const __mmask16 slots = _mm512_cmpgt_epi32_mask(
        _mm512_permutex2var_epi32(cnt0, win.count_lane, cnt1), win.slot_rank);

    const Index s0 = off[blk];
    const __m512 v = _mm512_maskz_expandloadu_ps(slots, values + s0);
    const __m512i bytes = load_index_bytes(idx + s0, nnz - s0);
    const __m512i kpos = _mm512_add_epi32(
        _mm512_maskz_expand_epi32(slots, bytes), win.block_k);
    const Index kb = blk * win.m;
    for (int c = 0; c < kCols; ++c) {
      __m512 xs;
      if constexpr (kSelect) {
        xs = _mm512_permutex2var_ps(_mm512_loadu_ps(x[c] + kb), kpos,
                                    _mm512_loadu_ps(x[c] + kb + 16));
      } else {
        xs = _mm512_mask_i32gather_ps(_mm512_setzero_ps(), slots, kpos,
                                      x[c] + kb, 4);
      }
      acc[c] = _mm512_mask3_fmadd_ps(v, xs, acc[c], slots);
    }
  };
  const auto lo_mask = [](Index blocks) {
    return static_cast<__mmask8>(blocks >= 8 ? 0xFF : (1U << blocks) - 1);
  };
  const auto hi_mask = [](Index blocks) {
    return static_cast<__mmask8>(blocks > 8 ? (1U << (blocks - 8)) - 1 : 0);
  };
  const Index full = bpr - bpr % win.blocks;
  const __mmask8 lo = lo_mask(win.blocks), hi = hi_mask(win.blocks);
  for (Index blk = 0; blk < full; blk += win.blocks) window(blk, lo, hi);
  if (full < bpr) window(full, lo_mask(bpr - full), hi_mask(bpr - full));
  for (int c = 0; c < kCols; ++c) xc.at(r, j0 + c) += tree_sum(acc[c]);
}

/// One row of an N > 16 term: each block's stored values in chunks of
/// 16 consecutive slots, x by gather.
template <int kCols>
void nm_gemv_row_chunked(const sparse::NMSparseMatrix& a, Index r,
                         const GemvColumns& xc, Index j0) {
  const Index bpr = a.blocks_per_row();
  const auto m = static_cast<Index>(a.pattern().m);
  const Index* off = a.block_offsets().data() + r * bpr;
  const float* values = a.values().data();
  const std::uint8_t* idx = a.in_block_index().data();
  const float* x[kCols];
  for (int c = 0; c < kCols; ++c) x[c] = xc.column(j0 + c);
  __m512 acc[kCols];
  for (int c = 0; c < kCols; ++c) acc[c] = _mm512_setzero_ps();

  for (Index blk = 0; blk < bpr; ++blk) {
    for (Index s = off[blk]; s < off[blk + 1]; s += 16) {
      const Index stored = std::min<Index>(16, off[blk + 1] - s);
      const auto slots = static_cast<__mmask16>((1U << stored) - 1U);
      const __m512 v = _mm512_maskz_loadu_ps(slots, values + s);
      const __m512i kpos = load_index_bytes(idx + s, stored);
      for (int c = 0; c < kCols; ++c) {
        const __m512 xs = _mm512_mask_i32gather_ps(
            _mm512_setzero_ps(), slots, kpos, x[c] + blk * m, 4);
        acc[c] = _mm512_mask3_fmadd_ps(v, xs, acc[c], slots);
      }
    }
  }
  for (int c = 0; c < kCols; ++c) xc.at(r, j0 + c) += tree_sum(acc[c]);
}

}  // namespace

void nm_gemv_avx512(const sparse::NMSparseMatrix& a,
                    std::span<const MatrixF> bs, std::span<MatrixF> cs,
                    ThreadPool& pool) {
  if (a.nnz() == 0) return;  // also every 0:M term
  const GemvColumns xc(a.cols(), bs, cs);
  if (xc.cols() == 0) return;
  const auto& pattern = a.pattern();
  if (pattern.n > 16) {
    const Index chunks = a.blocks_per_row() * ((pattern.n + 15) / 16);
    gemv_rows_parallel(pool, a.rows(), kWindowSteps * chunks, xc.cols(),
                       [&](Index r0, Index r1) {
                         for (Index r = r0; r < r1; ++r)
                           for_column_groups<kGemvMaxGroup>(
                               xc.cols(), [&](Index j, auto group) {
                                 nm_gemv_row_chunked<decltype(group)::value>(
                                     a, r, xc, j);
                               });
                       });
    return;
  }
  const NmWindow win(pattern);
  const Index windows = (a.blocks_per_row() + win.blocks - 1) / win.blocks;
  gemv_rows_parallel(
      pool, a.rows(), kWindowSteps * windows, xc.cols(),
      [&](Index r0, Index r1) {
        for (Index r = r0; r < r1; ++r)
          for_column_groups<kGemvMaxGroup>(
              xc.cols(), [&](Index j, auto group) {
                constexpr int kCols = decltype(group)::value;
                if (win.select)
                  nm_gemv_row<kCols, true>(a, win, r, xc, j);
                else
                  nm_gemv_row<kCols, false>(a, win, r, xc, j);
              });
      });
}

}  // namespace tasd::rt
