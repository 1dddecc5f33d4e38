// Structured sparse GEMM over compressed N:M operands — the CPU analogue
// of a sparse tensor core: it executes one MAC per *stored* value, so a
// 2:4-compressed operand does half the work of the dense kernel through
// the same inner loop.
//
// Execution routes through a KernelFamily (the scalar family by
// default, bit-identical at every thread count). TASD series can run
// from a cached DecompositionPlan so the weights are decomposed and
// compressed exactly once.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/decompose.hpp"
#include "core/plan_cache.hpp"
#include "runtime/kernel_family.hpp"
#include "sparse/nm_matrix.hpp"
#include "tensor/matrix.hpp"

namespace tasd::rt {

/// C = A_compressed * B.
MatrixF nm_gemm(const sparse::NMSparseMatrix& a, const MatrixF& b,
                const ExecPolicy& policy = {});

/// C += A_compressed * B.
void nm_gemm_accumulate(const sparse::NMSparseMatrix& a, const MatrixF& b,
                        MatrixF& c, const ExecPolicy& policy = {});

/// cs[i] = A_compressed * bs[i] for a batch of right-hand sides (ragged
/// widths allowed). Bit-identical to calling nm_gemm per item, at every
/// thread count and batch size.
std::vector<MatrixF> nm_gemm_batch(const sparse::NMSparseMatrix& a,
                                   std::span<const MatrixF> bs,
                                   const ExecPolicy& policy = {});

/// cs[i] += A_compressed * bs[i] into preallocated accumulators.
void nm_gemm_batch_accumulate(const sparse::NMSparseMatrix& a,
                              std::span<const MatrixF> bs,
                              std::span<MatrixF> cs,
                              const ExecPolicy& policy = {});

/// C = Σ_i term_i * B over a whole TASD series (distributive execution of
/// the decomposed GEMM, paper §3.2). Terms are pre-compressed once.
class TasdSeriesGemm {
 public:
  /// Compress the decomposition's terms for repeated execution.
  explicit TasdSeriesGemm(const Decomposition& decomposition);

  /// Execute a cached plan's terms (shares the plan's compressed storage;
  /// no copy, no re-decomposition).
  explicit TasdSeriesGemm(std::shared_ptr<const DecompositionPlan> plan);

  /// Execute against a dense right-hand side. Row-parallel: each output
  /// row accumulates its terms in series order, matching the serial
  /// term-major loop bit-for-bit.
  [[nodiscard]] MatrixF multiply(const MatrixF& b,
                                 const ExecPolicy& policy = {}) const;

  /// Execute against a batch of dense right-hand sides (ragged widths
  /// allowed), sharing this series' one decomposition plan across every
  /// item. The batch is packed once and every term runs over the
  /// packed pair as a 1-item call of the policy's family; output
  /// is bit-identical to calling multiply() per item — the serving-path
  /// invariant — at every thread count and batch size.
  [[nodiscard]] std::vector<MatrixF> multiply_batch(
      std::span<const MatrixF> bs, const ExecPolicy& policy = {}) const;

  /// Stored non-zeros across terms.
  [[nodiscard]] Index nnz() const;

  [[nodiscard]] Index rows() const { return rows_; }
  [[nodiscard]] Index cols() const { return cols_; }
  [[nodiscard]] std::size_t term_count() const { return terms().size(); }

 private:
  [[nodiscard]] const std::vector<sparse::NMSparseMatrix>& terms() const {
    return plan_ ? plan_->terms : owned_terms_;
  }

  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<sparse::NMSparseMatrix> owned_terms_;
  std::shared_ptr<const DecompositionPlan> plan_;
};

}  // namespace tasd::rt
