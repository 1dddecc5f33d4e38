#include "runtime/nm_gemm.hpp"

#include "common/error.hpp"

namespace tasd::rt {

MatrixF nm_gemm(const sparse::NMSparseMatrix& a, const MatrixF& b,
                const ExecPolicy& policy) {
  MatrixF c(a.rows(), b.cols());
  nm_gemm_accumulate(a, b, c, policy);
  return c;
}

void nm_gemm_accumulate(const sparse::NMSparseMatrix& a, const MatrixF& b,
                        MatrixF& c, const ExecPolicy& policy) {
  TASD_CHECK_MSG(a.cols() == b.rows(), "N:M GEMM inner dim mismatch");
  TASD_CHECK(c.rows() == a.rows() && c.cols() == b.cols());
  resolve_family(policy).nm(a, {&b, 1}, {&c, 1}, resolve_pool(policy));
}

std::vector<MatrixF> nm_gemm_batch(const sparse::NMSparseMatrix& a,
                                   std::span<const MatrixF> bs,
                                   const ExecPolicy& policy) {
  std::vector<MatrixF> cs;
  cs.reserve(bs.size());
  for (const MatrixF& b : bs) cs.emplace_back(a.rows(), b.cols());
  nm_gemm_batch_accumulate(a, bs, cs, policy);
  return cs;
}

void nm_gemm_batch_accumulate(const sparse::NMSparseMatrix& a,
                              std::span<const MatrixF> bs,
                              std::span<MatrixF> cs,
                              const ExecPolicy& policy) {
  TASD_CHECK_MSG(bs.size() == cs.size(), "batch GEMM item count mismatch");
  for (std::size_t i = 0; i < bs.size(); ++i) {
    TASD_CHECK_MSG(a.cols() == bs[i].rows(),
                   "N:M batch GEMM inner dim mismatch at item " << i);
    TASD_CHECK(cs[i].rows() == a.rows() && cs[i].cols() == bs[i].cols());
  }
  if (bs.empty()) return;
  resolve_family(policy).nm(a, bs, cs, resolve_pool(policy));
}

TasdSeriesGemm::TasdSeriesGemm(const Decomposition& decomposition)
    : rows_(decomposition.residual.rows()),
      cols_(decomposition.residual.cols()) {
  owned_terms_.reserve(decomposition.terms.size());
  for (const auto& t : decomposition.terms)
    owned_terms_.push_back(t.compressed());
}

TasdSeriesGemm::TasdSeriesGemm(std::shared_ptr<const DecompositionPlan> plan)
    : rows_(plan->rows), cols_(plan->cols), plan_(std::move(plan)) {}

MatrixF TasdSeriesGemm::multiply(const MatrixF& b,
                                 const ExecPolicy& policy) const {
  TASD_CHECK_MSG(cols_ == b.rows(),
                 "TASD series GEMM shape mismatch: series is "
                     << rows_ << "x" << cols_ << ", so b needs " << cols_
                     << " rows, got " << b.rows() << "x" << b.cols());
  MatrixF c(rows_, b.cols());
  // Term-major through the policy's family. Per output element the
  // accumulation order is terms in series order, k ascending within a
  // term — identical at every thread count.
  const NmFn nm = resolve_family(policy).nm;
  ThreadPool& pool = resolve_pool(policy);
  for (const auto& t : terms()) nm(t, {&b, 1}, {&c, 1}, pool);
  return c;
}

std::vector<MatrixF> TasdSeriesGemm::multiply_batch(
    std::span<const MatrixF> bs, const ExecPolicy& policy) const {
  std::vector<MatrixF> cs;
  cs.reserve(bs.size());
  for (std::size_t i = 0; i < bs.size(); ++i) {
    TASD_CHECK_MSG(cols_ == bs[i].rows(),
                   "TASD series batch GEMM shape mismatch: series is "
                       << rows_ << "x" << cols_ << ", so every item needs "
                       << cols_ << " rows, got " << bs[i].rows() << "x"
                       << bs[i].cols() << " at item " << i);
    cs.emplace_back(rows_, bs[i].cols());
  }
  if (bs.empty()) return cs;
  // Pack the batch once and run every term against the packed pair as a
  // 1-item call (re-packing per term would waste copies on the serving
  // hot path). Term-major: per output element the accumulation order is
  // terms in series order, k ascending within a term — exactly
  // multiply()'s order — and no family's per-element order depends on
  // column position, so the batch is bit-identical to a per-item loop.
  const NmFn nm = resolve_family(policy).nm;
  ThreadPool& pool = resolve_pool(policy);
  const auto off = batch_offsets(bs);
  if (off.back() == 0) return cs;
  const MatrixF bp = pack_batch(bs, off);
  MatrixF cp(rows_, off.back());
  for (const auto& t : terms()) nm(t, {&bp, 1}, {&cp, 1}, pool);
  unpack_batch(cp, off, cs);
  return cs;
}

Index TasdSeriesGemm::nnz() const {
  Index total = 0;
  for (const auto& t : terms()) total += t.nnz();
  return total;
}

}  // namespace tasd::rt
