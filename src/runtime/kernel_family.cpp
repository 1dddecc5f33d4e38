#include "runtime/kernel_family.hpp"

#include <algorithm>
#include <functional>

#include "common/cpu_features.hpp"

#ifdef TASD_HAVE_AVX2_KERNELS
#include "runtime/kernels_avx2.hpp"
#endif
#ifdef TASD_HAVE_AVX512_KERNELS
#include "runtime/kernels_avx512.hpp"
#endif

namespace tasd::rt {

// ------------------------------------------------------------ tile cores

void dense_gemm_tile(const MatrixF& a, const MatrixF& b, MatrixF& c,
                     Index row_begin, Index row_end, Index col_begin,
                     Index col_end) {
  const Index k = a.cols(), n = b.cols();
  // j-tile sized to keep the C row segment plus four B row segments in
  // L1 while streaming; per-element accumulation order (k ascending,
  // 4-wide) is independent of the tile size.
  constexpr Index kTileN = 512;
  for (Index i = row_begin; i < row_end; ++i) {
    float* __restrict crow = c.data() + i * n;
    const float* arow = a.data() + i * k;
    for (Index jt = col_begin; jt < col_end; jt += kTileN) {
      const Index je = std::min(col_end, jt + kTileN);
      Index p = 0;
      for (; p + 4 <= k; p += 4) {
        const float a0 = arow[p], a1 = arow[p + 1];
        const float a2 = arow[p + 2], a3 = arow[p + 3];
        const float* __restrict b0 = b.data() + p * n;
        const float* __restrict b1 = b0 + n;
        const float* __restrict b2 = b1 + n;
        const float* __restrict b3 = b2 + n;
        for (Index j = jt; j < je; ++j)
          crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
      }
      for (; p < k; ++p) {
        const float av = arow[p];
        const float* __restrict brow = b.data() + p * n;
        for (Index j = jt; j < je; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

void nm_gemm_tile(const sparse::NMSparseMatrix& a, const MatrixF& b,
                  MatrixF& c, Index row_begin, Index row_end,
                  Index col_begin, Index col_end) {
  const Index n = b.cols();
  const auto m = static_cast<Index>(a.pattern().m);
  const auto& values = a.values();
  const auto& idx = a.in_block_index();
  const auto& offsets = a.block_offsets();
  const Index blocks_per_row = a.blocks_per_row();

  for (Index r = row_begin; r < row_end; ++r) {
    float* __restrict crow = c.data() + r * n;
    Index group = r * blocks_per_row;
    for (Index blk = 0; blk < blocks_per_row; ++blk, ++group) {
      const Index k_base = blk * m;
      for (Index s = offsets[group]; s < offsets[group + 1]; ++s) {
        const float av = values[s];
        const float* __restrict brow = b.data() + (k_base + idx[s]) * n;
        for (Index j = col_begin; j < col_end; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

// ------------------------------------------------- packed batch layout
// A multi-item call lays the batch items' columns side by side in one
// wide matrix: packed(r, off[i] + j) == item_i(r, j). Packing and
// unpacking are exact copies, and every tile core accumulates each
// output element with a fixed k-ascending MAC order regardless of the
// column range, so running the cores on the packed pair is bit-identical
// to looping the single-RHS call over the items — while the inner j
// loops span the whole batch, amortizing per-k-step overhead (the whole
// point of the serving path on small per-query widths).

std::vector<Index> batch_offsets(std::span<const MatrixF> items) {
  std::vector<Index> off(items.size() + 1, 0);
  for (std::size_t i = 0; i < items.size(); ++i)
    off[i + 1] = off[i] + items[i].cols();
  return off;
}

MatrixF pack_batch(std::span<const MatrixF> items,
                   const std::vector<Index>& off) {
  const Index rows = items.empty() ? 0 : items[0].rows();
  MatrixF packed(rows, off.back());
  for (Index r = 0; r < rows; ++r) {
    float* prow = packed.data() + r * off.back();
    for (std::size_t i = 0; i < items.size(); ++i)
      std::copy_n(items[i].data() + r * items[i].cols(), items[i].cols(),
                  prow + off[i]);
  }
  return packed;
}

void unpack_batch(const MatrixF& packed, const std::vector<Index>& off,
                  std::span<MatrixF> items) {
  for (Index r = 0; r < packed.rows(); ++r) {
    const float* prow = packed.data() + r * off.back();
    for (std::size_t i = 0; i < items.size(); ++i)
      std::copy_n(prow + off[i], items[i].cols(),
                  items[i].data() + r * items[i].cols());
  }
}

namespace {

// Row grain: below this many rows per chunk the fork/join overhead beats
// the win; partitioning stays deterministic either way.
constexpr std::size_t kRowGrain = 8;

/// The shared driver of the tile families: rows(b, c, r0, r1) over a
/// row partition of the pool at full width. A multi-item batch packs B
/// and C once, runs the same schedule over the packed pair, and
/// unpacks; a 1-item batch runs in place.
void run_rows(Index rows, std::span<const MatrixF> bs, std::span<MatrixF> cs,
              ThreadPool& pool,
              const std::function<void(const MatrixF&, MatrixF&, Index,
                                       Index)>& body) {
  if (bs.size() == 1) {
    pool.parallel_for(0, rows, kRowGrain,
                      [&](Index r0, Index r1) { body(bs[0], cs[0], r0, r1); });
    return;
  }
  const auto off = batch_offsets(bs);
  if (off.back() == 0) return;
  const MatrixF bp = pack_batch(bs, off);
  MatrixF cp = pack_batch({cs.data(), cs.size()}, off);
  pool.parallel_for(0, rows, kRowGrain,
                    [&](Index r0, Index r1) { body(bp, cp, r0, r1); });
  unpack_batch(cp, off, cs);
}

/// A tile family's entry: its tile core `kTile` under run_rows.
template <class A, void (*kTile)(const A&, const MatrixF&, MatrixF&, Index,
                                 Index, Index, Index)>
void tiles(const A& a, std::span<const MatrixF> bs, std::span<MatrixF> cs,
           ThreadPool& pool) {
  run_rows(a.rows(), bs, cs, pool,
           [&a](const MatrixF& b, MatrixF& c, Index r0, Index r1) {
             kTile(a, b, c, r0, r1, 0, b.cols());
           });
}

using Nm = sparse::NMSparseMatrix;

bool always_available() { return true; }

struct TableRow {
  KernelFamily family;
  bool (*available)();
};

// The fixed family table, in the order kernel_families() lists it.
const TableRow kTable[] = {
    {{"scalar", "scalar", tiles<MatrixF, dense_gemm_tile>,
      tiles<Nm, nm_gemm_tile>},
     always_available},
#ifdef TASD_HAVE_AVX2_KERNELS
    {{"avx2", "fma", tiles<MatrixF, dense_gemm_tile_avx2>,
      tiles<Nm, nm_gemm_tile_avx2>},
     avx2_available},
#endif
#ifdef TASD_HAVE_AVX512_KERNELS
    {{"avx512", "fma", tiles<MatrixF, dense_gemm_tile_avx512>,
      tiles<Nm, nm_gemm_tile_avx512>},
     avx512_available},
    {{"gemv-avx512", "gemv", dense_gemv_avx512, nm_gemv_avx512},
     avx512_available},
#endif
};

}  // namespace

ThreadPool& resolve_pool(const ExecPolicy& policy) {
  return policy.pool ? *policy.pool : default_pool();
}

const KernelFamily& resolve_family(const ExecPolicy& policy) {
  return policy.family ? *policy.family : scalar_family();
}

const std::vector<const KernelFamily*>& kernel_families() {
  static const std::vector<const KernelFamily*> families = [] {
    std::vector<const KernelFamily*> out;
    for (const TableRow& row : kTable)
      if (row.available()) out.push_back(&row.family);
    return out;
  }();
  return families;
}

const KernelFamily& scalar_family() { return kTable[0].family; }

const KernelFamily* find_family(std::string_view name) {
  for (const KernelFamily* f : kernel_families())
    if (name == f->name) return f;
  return nullptr;
}

const KernelFamily& best_family(Index width) {
  if (width >= 1 && width <= kGemvMaxWidth)
    if (const KernelFamily* f = find_family("gemv-avx512")) return *f;
  for (const char* name : {"avx512", "avx2"})
    if (const KernelFamily* f = find_family(name)) return *f;
  return scalar_family();
}

}  // namespace tasd::rt
