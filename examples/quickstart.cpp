// Quickstart: decompose an unstructured sparse matrix into a TASD series
// and execute an approximated matrix multiplication — the paper's Fig. 4
// walked end to end through the public API.
//
//   build/examples/quickstart
#include <cstdio>
#include <iostream>

#include "artifact/artifact.hpp"
#include "common/table.hpp"
#include "core/approx_stats.hpp"
#include "core/tasd_gemm.hpp"
#include "dnn/layer_binding.hpp"
#include "runtime/compiled_network.hpp"
#include "runtime/nm_gemm.hpp"
#include "tensor/gemm_ref.hpp"
#include "tensor/norms.hpp"

using namespace tasd;

namespace {

void print_matrix(const char* label, const MatrixF& m) {
  std::cout << label << ":\n";
  for (Index r = 0; r < m.rows(); ++r) {
    for (Index c = 0; c < m.cols(); ++c)
      std::cout << ' ' << static_cast<int>(m(r, c));
    std::cout << '\n';
  }
}

}  // namespace

int main() {
  print_banner("TASD quickstart");

  // The paper's 2x8 example matrix (Fig. 4).
  const MatrixF a(2, 8,
                  {1, 3, 0, 0, 2, 4, 4, 1,
                   2, 0, 0, 0, 0, 3, 1, 4});
  print_matrix("A (37.5% sparse, unstructured)", a);

  // 1. Decompose into a 2:4 + 2:8 series.
  const TasdConfig cfg = TasdConfig::parse("2:4+2:8");
  const Decomposition d = decompose(a, cfg);
  print_matrix("\nterm 1 (2:4 view)", d.terms[0].dense);
  print_matrix("\nterm 2 (2:8 view of the residual)", d.terms[1].dense);
  std::cout << "\nlossless: " << (d.lossless() ? "yes" : "no")
            << " (A == term1 + term2 exactly)\n";

  // 2. Quality statistics of the one-term approximation.
  const auto one_term = approx_stats(a, TasdConfig::parse("2:4"));
  std::cout << "\nwith one 2:4 term only: keeps "
            << TextTable::pct(one_term.nnz_coverage()) << " of non-zeros, "
            << TextTable::pct(one_term.magnitude_coverage())
            << " of magnitude (paper: 70% / 84%)\n";

  // 3. Approximated GEMM via the distributive property.
  MatrixF b(8, 3);
  for (Index r = 0; r < 8; ++r)
    for (Index c = 0; c < 3; ++c)
      b(r, c) = static_cast<float>((r + c) % 3) - 1.0F;
  const MatrixF exact = gemm_ref(a, b);
  const MatrixF approx = tasd_gemm(a, b, TasdConfig::parse("2:4"));
  std::cout << "\none-term GEMM relative error: "
            << relative_frobenius_error(exact, approx) << '\n';

  // 4. The compressed structured kernel a sparse tensor core would run.
  const rt::TasdSeriesGemm series(d);
  const MatrixF hw_result = series.multiply(b);
  std::cout << "two-term compressed-kernel error vs exact: "
            << relative_frobenius_error(exact, hw_result)
            << " (lossless series)\n"
            << "stored non-zeros across terms: " << series.nnz() << " of "
            << a.size() << " slots\n";

  // 5. Compile once, execute many (§5.5 deployment): bind A's series into
  // an immutable artifact whose plan is decomposed exactly once, then
  // serve right-hand sides through it repeatedly.
  std::vector<dnn::LayerBinding> bindings(1);
  bindings[0].name = "fig4";
  bindings[0].weight = a;
  bindings[0].positions = b.cols();
  bindings[0].config = cfg;
  const rt::CompiledNetwork engine =
      rt::compile("quickstart", std::move(bindings), {});
  const MatrixF served = engine.run(0, b);
  const auto batch_out = engine.run_batch(0, std::vector<MatrixF>{b, b});
  // run() must be bit-exact to the direct series multiply under the
  // layer's kernel family ("auto" binds per layer width: the
  // decode-width GEMV family for these 3 positions on AVX-512 hosts,
  // else the widest SIMD family the CPU supports, scalar last).
  const bool run_exact =
      served == series.multiply(b, engine.layer_policy(0));
  const bool batch_exact = batch_out[0] == served && batch_out[1] == served;
  std::cout << "\ncompiled artifact: " << engine.layer_count() << " layer, "
            << engine.plan_bytes() << " plan bytes resident ("
            << engine.artifact_bytes() << " with weights); kernel family: "
            << engine.layer(0).kernel << "; run() == "
            << "direct series multiply: "
            << (run_exact ? "bit-exact" : "MISMATCH")
            << ", run_batch() == run(): "
            << (batch_exact ? "bit-exact" : "MISMATCH") << '\n';

  // 6. Save the artifact and reload it cold — the deployment hand-off.
  // load_artifact() rebuilds the plan from the serialized compressed
  // terms (zero decompositions) and must reproduce run() bit-for-bit.
  const std::string path = "quickstart.tasdart";
  rt::save_artifact(engine, path);
  const rt::CompiledNetwork reloaded = rt::load_artifact(path);
  const bool reload_exact = reloaded.run(0, b) == served;
  std::cout << "saved " << rt::inspect_artifact(path).file_bytes
            << "-byte artifact; reloaded run() == saved run(): "
            << (reload_exact ? "bit-exact" : "MISMATCH") << '\n';
  std::remove(path.c_str());
  return run_exact && batch_exact && reload_exact ? 0 : 1;
}
