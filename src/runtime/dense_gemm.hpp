// Timed dense GEMM kernel — the "dense tensor core / dense TensorRT
// engine" stand-in for the real-system experiment (paper §5.5).
//
// Unlike tensor::gemm_ref (which honestly skips zero A elements as a
// correctness oracle), this kernel performs *every* MAC, exactly like
// dense hardware: the speed-up of the N:M kernel over this one comes only
// from structured compression, which is the effect the paper measures.
//
// Execution routes through a KernelFamily; pass an ExecPolicy to pick a
// pool or family, or take the defaults (default pool, scalar family).
// Results are bit-identical at every thread count.
#pragma once

#include <span>
#include <vector>

#include "runtime/kernel_family.hpp"
#include "tensor/matrix.hpp"

namespace tasd::rt {

/// C = A * B with no zero-skipping; A is MxK, B is KxN.
MatrixF dense_gemm(const MatrixF& a, const MatrixF& b,
                   const ExecPolicy& policy = {});

/// C += A * B into a preallocated accumulator.
void dense_gemm_accumulate(const MatrixF& a, const MatrixF& b, MatrixF& c,
                           const ExecPolicy& policy = {});

/// cs[i] = A * bs[i] for a batch of right-hand sides (ragged widths
/// allowed; every bs[i] must have A.cols() rows). Bit-identical to
/// calling dense_gemm per item, at every thread count and batch size.
std::vector<MatrixF> dense_gemm_batch(const MatrixF& a,
                                      std::span<const MatrixF> bs,
                                      const ExecPolicy& policy = {});

/// cs[i] += A * bs[i] into preallocated accumulators.
void dense_gemm_batch_accumulate(const MatrixF& a, std::span<const MatrixF> bs,
                                 std::span<MatrixF> cs,
                                 const ExecPolicy& policy = {});

}  // namespace tasd::rt
