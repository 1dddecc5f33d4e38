// Round-trip and corruption-matrix tests for the TASDART1 artifact
// store (ISSUE 9 acceptance): a load either reproduces the compiled
// network bit-for-bit with zero decompositions, or fails with the
// documented error code — never a silently-wrong network.
#include "artifact/artifact.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>

#include "artifact/format.hpp"
#include "common/rng.hpp"
#include "core/plan_cache.hpp"
#include "dnn/workloads.hpp"
#include "tensor/generator.hpp"
#include "tensor/io.hpp"

namespace tasd::rt {
namespace {

/// Two sparse layers plus one dense layer; seeds distinct from every
/// other suite so cross-suite PlanCache hits can't mask the counters.
dnn::NetworkWorkload tiny_net() {
  dnn::NetworkWorkload net;
  net.name = "tiny-artifact";
  net.sparse_weights = true;
  dnn::GemmWorkload l1;
  l1.name = "a";
  l1.m = 48;
  l1.k = 256;
  l1.n = 32;
  l1.weight_density = 0.1;
  l1.weight_seed = 9105;
  dnn::GemmWorkload l2 = l1;
  l2.name = "b";
  l2.m = 96;
  l2.k = 120;  // ragged final 2:8 block: cols % 8 != 0
  l2.weight_seed = 9106;
  dnn::GemmWorkload l3 = l1;
  l3.name = "c-dense";
  l3.m = 32;
  l3.k = 64;
  l3.weight_density = 1.0;
  l3.weight_seed = 9107;
  net.layers = {l1, l2, l3};
  return net;
}

std::vector<std::optional<TasdConfig>> mixed_configs() {
  return {TasdConfig::parse("2:4"), TasdConfig::parse("2:8+1:8"),
          std::nullopt};
}

/// RAII temp file path (removed on destruction).
struct TempPath {
  std::string path;
  explicit TempPath(const std::string& name)
      : path(testing::TempDir() + name) {}
  ~TempPath() { std::remove(path.c_str()); }
};

/// The error code a callable fails with (nullopt = it didn't throw).
template <typename Fn>
std::optional<Error::Code> failure_code(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.code();
  }
  return std::nullopt;
}

void patch_u32(std::vector<unsigned char>& bytes, std::size_t offset,
               std::uint32_t v) {
  const std::uint32_t le = io::to_little_endian(v);
  std::memcpy(bytes.data() + offset, &le, sizeof le);
}

void patch_u64(std::vector<unsigned char>& bytes, std::size_t offset,
               std::uint64_t v) {
  const std::uint64_t le = io::to_little_endian(v);
  std::memcpy(bytes.data() + offset, &le, sizeof le);
}

std::uint64_t peek_u64(const std::vector<unsigned char>& bytes,
                       std::size_t offset) {
  std::uint64_t v;
  std::memcpy(&v, bytes.data() + offset, sizeof v);
  return io::from_little_endian(v);
}

/// Save tiny_net once and return the file bytes for patching.
std::vector<unsigned char> saved_bytes(const TempPath& tmp) {
  const auto engine = compile(tiny_net(), mixed_configs(), {});
  save_artifact(engine, tmp.path);
  return io::read_file(tmp.path);
}

TEST(Artifact, RoundTripIsBitExactAtEveryThreadCount) {
  const auto net = tiny_net();
  const auto cfgs = mixed_configs();
  TempPath tmp("tasd_roundtrip.tasdart");

  Rng rng(921);
  std::vector<MatrixF> inputs;
  for (std::size_t i = 0; i < net.layers.size(); ++i)
    inputs.push_back(
        random_dense(net.layers[i].k, 9, Dist::kNormalStd1, rng));
  std::vector<MatrixF> batch;
  for (const Index cols : {1u, 7u, 0u, 16u})
    batch.push_back(
        random_dense(net.layers[0].k, cols, Dist::kNormalStd1, rng));

  for (const std::size_t threads : {0u, 1u, 2u, 5u, 8u}) {
    CompileOptions opt;
    opt.measure.num_threads = threads;
    const auto engine = compile(net, cfgs, opt);
    save_artifact(engine, tmp.path);
    const auto loaded = load_artifact(tmp.path, opt);

    ASSERT_EQ(loaded.layer_count(), engine.layer_count());
    EXPECT_EQ(loaded.name(), engine.name());
    EXPECT_EQ(loaded.configured_count(), engine.configured_count());
    EXPECT_EQ(loaded.plan_bytes(), engine.plan_bytes());
    EXPECT_EQ(loaded.artifact_bytes(), engine.artifact_bytes());
    for (std::size_t i = 0; i < net.layers.size(); ++i) {
      const auto& a = engine.layer(i);
      const auto& b = loaded.layer(i);
      EXPECT_EQ(b.name, a.name);
      EXPECT_EQ(b.weight, a.weight) << "layer " << i;
      EXPECT_EQ(b.config.has_value(), a.config.has_value());
      EXPECT_DOUBLE_EQ(b.kept_nnz_fraction, a.kept_nnz_fraction);
      EXPECT_EQ(loaded.run(i, inputs[i]), engine.run(i, inputs[i]))
          << "layer " << i << " threads=" << threads;
    }
    const auto want = engine.run_batch(0, batch);
    const auto got = loaded.run_batch(0, batch);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t q = 0; q < want.size(); ++q)
      EXPECT_EQ(got[q], want[q]) << "threads=" << threads << " item=" << q;
  }
}

TEST(Artifact, LoadPerformsZeroDecompositions) {
  TempPath tmp("tasd_zerodecomp.tasdart");
  const auto engine = compile(tiny_net(), mixed_configs(), {});
  save_artifact(engine, tmp.path);

  // Start cold: no resident plans for these weights.
  plan_cache().clear();
  const auto before = plan_cache().stats();
  const auto loaded = load_artifact(tmp.path, {});
  const auto after = plan_cache().stats();
  EXPECT_EQ(after.decompositions, before.decompositions)
      << "load_artifact must reconstruct plans, never rebuild them";
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.preloads, before.preloads + 2)
      << "one preload per configured layer";
  EXPECT_EQ(loaded.configured_count(), 2u);
  for (std::size_t i = 0; i < loaded.layer_count(); ++i)
    EXPECT_EQ(bool(loaded.layer(i).series), bool(loaded.layer(i).config));
}

TEST(Artifact, LoadAdoptsPlansSoLaterCompilesHit) {
  TempPath tmp("tasd_adopt.tasdart");
  const auto net = tiny_net();
  const auto cfgs = mixed_configs();
  save_artifact(compile(net, cfgs, {}), tmp.path);

  plan_cache().clear();
  const auto loaded = load_artifact(tmp.path, {});
  const auto before = plan_cache().stats();
  const auto recompiled = compile(net, cfgs, {});
  const auto after = plan_cache().stats();
  EXPECT_EQ(after.decompositions, before.decompositions)
      << "compiling weights an artifact preloaded must hit the cache";
  EXPECT_EQ(after.hits, before.hits + 2);
  // Same resident plan object on both sides.
  EXPECT_EQ(recompiled.layer(0).plan.get(), loaded.layer(0).plan.get());
}

TEST(Artifact, CacheOptOutLoadStaysPrivate) {
  TempPath tmp("tasd_private.tasdart");
  save_artifact(compile(tiny_net(), mixed_configs(), {}), tmp.path);
  plan_cache().clear();
  CompileOptions opt;
  opt.measure.use_plan_cache = false;
  const auto before = plan_cache().stats();
  const auto loaded = load_artifact(tmp.path, opt);
  const auto after = plan_cache().stats();
  EXPECT_EQ(after.preloads, before.preloads);
  EXPECT_EQ(plan_cache().size(), 0u);
  EXPECT_EQ(loaded.configured_count(), 2u);
}

TEST(Artifact, InspectReportsHeaderAndToc) {
  TempPath tmp("tasd_inspect.tasdart");
  const auto bytes = saved_bytes(tmp);
  const auto info = inspect_artifact(tmp.path);
  EXPECT_EQ(info.version, artifact::kVersion);
  EXPECT_EQ(info.name, "tiny-artifact");
  EXPECT_EQ(info.file_bytes, bytes.size());
  ASSERT_EQ(info.layers.size(), 3u);
  EXPECT_TRUE(info.layers[0].configured);
  EXPECT_TRUE(info.layers[1].configured);
  EXPECT_FALSE(info.layers[2].configured);
  for (const auto& l : info.layers) {
    EXPECT_EQ(l.section_offset % artifact::kSectionAlign, 0u);
    EXPECT_GT(l.section_size, 0u);
    EXPECT_LE(l.section_offset + l.section_size, bytes.size());
  }
}

TEST(Artifact, UnopenablePathIsInvalidArgument) {
  EXPECT_EQ(failure_code([] {
              (void)load_artifact("/nonexistent/dir/net.tasdart", {});
            }),
            Error::Code::kInvalidArgument);
}

TEST(Artifact, BadMagicIsFailedPrecondition) {
  TempPath tmp("tasd_badmagic.tasdart");
  auto bytes = saved_bytes(tmp);
  bytes[0] = 'X';
  io::write_file(tmp.path, bytes);
  EXPECT_EQ(failure_code([&] { (void)load_artifact(tmp.path, {}); }),
            Error::Code::kFailedPrecondition);
}

TEST(Artifact, UnsupportedVersionIsFailedPrecondition) {
  TempPath tmp("tasd_version.tasdart");
  auto bytes = saved_bytes(tmp);
  patch_u32(bytes, artifact::kHeaderVersionOffset, artifact::kVersion + 1);
  io::write_file(tmp.path, bytes);
  EXPECT_EQ(failure_code([&] { (void)load_artifact(tmp.path, {}); }),
            Error::Code::kFailedPrecondition);
}

TEST(Artifact, VersionOneFileIsFailedPrecondition) {
  // Version 1 stored separate single-RHS and batch kernel names in its
  // tuning section; this reader speaks version 2 only. A v1 header (the
  // rest of the layout is unchanged) must be rejected as not ours, not
  // parsed as corrupt.
  static_assert(artifact::kVersion == 2);
  TempPath tmp("tasd_version1.tasdart");
  auto bytes = saved_bytes(tmp);
  patch_u32(bytes, artifact::kHeaderVersionOffset, 1);
  io::write_file(tmp.path, bytes);
  EXPECT_EQ(failure_code([&] { (void)load_artifact(tmp.path, {}); }),
            Error::Code::kFailedPrecondition);
  EXPECT_EQ(failure_code([&] { (void)inspect_artifact(tmp.path); }),
            Error::Code::kFailedPrecondition);
}

TEST(Artifact, FlippedPayloadBitIsInternal) {
  // A single flipped bit inside the last section: the section CRC (not
  // the TOC CRC, which never covers payloads) must catch it.
  TempPath tmp("tasd_bitflip.tasdart");
  auto bytes = saved_bytes(tmp);
  bytes.back() ^= 0x10;
  io::write_file(tmp.path, bytes);
  EXPECT_EQ(failure_code([&] { (void)load_artifact(tmp.path, {}); }),
            Error::Code::kInternal);
}

TEST(Artifact, TruncationIsInternal) {
  TempPath tmp("tasd_trunc.tasdart");
  const auto bytes = saved_bytes(tmp);
  // Mid-TOC truncation and a stub shorter than the magic.
  for (const std::size_t keep : {artifact::kHeaderBytes + 8, std::size_t{4}}) {
    io::write_file(tmp.path, std::span(bytes).subspan(0, keep));
    EXPECT_EQ(failure_code([&] { (void)load_artifact(tmp.path, {}); }),
              Error::Code::kInternal)
        << "kept " << keep << " bytes";
  }
}

TEST(Artifact, FingerprintMismatchIsInternal) {
  // Re-point layer 0's TOC entry at a fingerprint that does not hash its
  // weight, fixing up the TOC CRC so only the fingerprint gate can fire:
  // the load must refuse to pair a weight with someone else's plan.
  TempPath tmp("tasd_fp.tasdart");
  auto bytes = saved_bytes(tmp);
  const std::uint64_t toc_offset =
      peek_u64(bytes, artifact::kHeaderTocOffsetOffset);
  const std::uint64_t fp_lo =
      peek_u64(bytes, toc_offset + artifact::kTocFpLoOffset);
  patch_u64(bytes, toc_offset + artifact::kTocFpLoOffset, fp_lo ^ 1);
  const std::size_t toc_bytes = 3 * artifact::kTocEntryBytes;
  patch_u32(bytes, artifact::kHeaderTocCrcOffset,
            artifact::crc32(bytes.data() + toc_offset, toc_bytes));
  io::write_file(tmp.path, bytes);
  EXPECT_EQ(failure_code([&] { (void)load_artifact(tmp.path, {}); }),
            Error::Code::kInternal);
}

TEST(Artifact, ArtifactBytesCoversWeightsAndPlans) {
  const auto engine = compile(tiny_net(), mixed_configs(), {});
  Index weight_bytes = 0;
  for (std::size_t i = 0; i < engine.layer_count(); ++i)
    weight_bytes += engine.layer(i).weight.size() * sizeof(float);
  EXPECT_GT(engine.artifact_bytes(), engine.plan_bytes());
  EXPECT_GT(engine.artifact_bytes(), weight_bytes);
  EXPECT_LE(engine.artifact_bytes(),
            weight_bytes + engine.plan_bytes() + 4096)
      << "metadata overhead should stay small for a tiny net";
}

}  // namespace
}  // namespace tasd::rt
