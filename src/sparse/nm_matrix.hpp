// Compressed N:M structured sparse matrix.
//
// Storage mirrors what real structured-sparse hardware consumes (e.g.
// NVIDIA sparse tensor core metadata): for every M-aligned block we keep at
// most N (value, in-block-index) pairs. Unlike the hardware format, blocks
// with fewer than N non-zeros store only those: an 8-byte offset per block
// (block_offsets, a prefix sum of the per-block counts) delimits each
// block's values, so the real footprint is 4 + 1 bytes per stored value
// plus 8 bytes per block. The metadata bit cost model in src/accel/ (and
// storage_bytes()) charges the full N slots and ceil(log2(M))*N bits the
// way hardware would.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/pattern.hpp"
#include "tensor/matrix.hpp"

namespace tasd::sparse {

/// Compressed N:M matrix. Immutable after construction.
class NMSparseMatrix {
 public:
  NMSparseMatrix() = default;

  /// Compress `dense`, which must satisfy `pattern` (throws otherwise —
  /// use nm_view()/decomposition to make a conforming matrix first).
  NMSparseMatrix(const MatrixF& dense, NMPattern pattern);

  /// Assemble from pre-compressed storage (the direct-compression
  /// decomposition path builds these arrays without a dense
  /// intermediate). The arrays must obey the grouping invariant
  /// documented on the accessors below; sizes are checked.
  static NMSparseMatrix from_parts(NMPattern pattern, Index rows, Index cols,
                                   std::vector<float> values,
                                   std::vector<std::uint8_t> in_block_index,
                                   std::vector<Index> block_offsets);

  [[nodiscard]] const NMPattern& pattern() const { return pattern_; }
  [[nodiscard]] Index rows() const { return rows_; }
  [[nodiscard]] Index cols() const { return cols_; }

  /// Number of stored non-zeros.
  [[nodiscard]] Index nnz() const { return values_.size(); }

  /// Sparsity degree of the stored matrix (fraction of zeros).
  [[nodiscard]] double sparsity() const;

  /// Decompress back to dense (exact: compression stores values verbatim).
  [[nodiscard]] MatrixF to_dense() const;

  /// Storage footprint in bytes under a hardware-style encoding:
  /// 4B per retained slot (N slots per block whether used or not) plus
  /// metadata bits (N * ceil(log2(M)) bits per block, rounded up per row).
  [[nodiscard]] Index storage_bytes() const;

  /// Dense storage footprint for comparison.
  [[nodiscard]] Index dense_bytes() const { return rows_ * cols_ * 4; }

  // --- low-level access for the compressed GEMM kernels ---

  /// Number of M-aligned blocks per row.
  [[nodiscard]] Index blocks_per_row() const { return blocks_per_row_; }

  /// values / in-block column offsets, grouped per (row, block) with
  /// block_offsets delimiting groups: group g spans
  /// [block_offsets[g], block_offsets[g+1]).
  [[nodiscard]] const std::vector<float>& values() const { return values_; }
  [[nodiscard]] const std::vector<std::uint8_t>& in_block_index() const {
    return in_block_index_;
  }
  [[nodiscard]] const std::vector<Index>& block_offsets() const {
    return block_offsets_;
  }

 private:
  NMPattern pattern_{};
  Index rows_ = 0;
  Index cols_ = 0;
  Index blocks_per_row_ = 0;
  std::vector<float> values_;
  std::vector<std::uint8_t> in_block_index_;
  std::vector<Index> block_offsets_;  // (rows*blocks_per_row)+1 entries
};

}  // namespace tasd::sparse
