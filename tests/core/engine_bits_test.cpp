// Pins the exact bits CgxEngine::allreduce produces. Each case runs a few
// steps over a world of threads and folds every rank's reduced gradient,
// step by step, into one FNV-1a hash. The expected hashes were recorded
// from the engine before its monolithic step was rerouted through the
// bucket entry points, so any drift in arithmetic order, RNG draw order,
// compressor binding or averaging shows up here. The three- and four-node
// two-level pins were recorded before the leader exchange became the flat
// SRA run over the node leaders. The hashes are the same under
// CGX_SIMD=off/auto and CGX_NUMA=off (the kernels and NUMA placement are
// bit-identical by contract).
#include "core/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "comm/fault.h"
#include "comm/transports.h"
#include "comm/world.h"

namespace cgx::core {
namespace {

constexpr int kSteps = 3;

tensor::LayerLayout bits_layout() {
  tensor::LayerLayout layout;
  layout.add_layer("embed.weight", tensor::Shape{300, 16});
  layout.add_layer("block0.attn.weight", tensor::Shape{16, 48});
  layout.add_layer("block0.attn.bias", tensor::Shape{48});
  layout.add_layer("block0.ln.weight", tensor::Shape{16});
  layout.add_layer("block0.ffn.weight", tensor::Shape{16, 40});
  layout.add_layer("head.weight", tensor::Shape{16, 24});
  return layout;
}

// cgx_default plus one error-feedback layer, so residual carry-over
// between steps is part of what the hash pins.
CompressionConfig bits_config() {
  CompressionConfig config = CompressionConfig::cgx_default();
  LayerCompression ef;
  ef.method = Method::Qsgd;
  ef.bits = 3;
  ef.bucket_size = 64;
  ef.error_feedback = true;
  config.set_layer_exact("block0.ffn.weight", ef);
  return config;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t run_hash(int world, const EngineOptions& options) {
  const tensor::LayerLayout layout = bits_layout();
  CgxEngine engine(layout, bits_config(), world, options);
  // outputs[step][rank]
  std::vector<std::vector<std::vector<float>>> outputs(
      kSteps, std::vector<std::vector<float>>(static_cast<std::size_t>(world)));
  comm::ShmTransport transport(world);
  comm::run_world(transport, [&](comm::Comm& comm) {
    const int r = comm.rank();
    util::Rng rng(900 + static_cast<std::uint64_t>(r));
    for (int step = 0; step < kSteps; ++step) {
      util::Rng data(7000 + 100 * static_cast<std::uint64_t>(step) +
                     static_cast<std::uint64_t>(r));
      std::vector<float> grad(layout.total_numel());
      for (float& v : grad) v = static_cast<float>(data.next_gaussian());
      engine.allreduce(comm, grad, rng);
      EXPECT_TRUE(engine.last_step_report(r).ok);
      outputs[static_cast<std::size_t>(step)][static_cast<std::size_t>(r)] =
          std::move(grad);
    }
  });
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& step : outputs) {
    for (const auto& out : step) {
      h = fnv1a(h, out.data(), out.size() * sizeof(float));
    }
  }
  return h;
}

struct FlatCase {
  comm::ReductionScheme scheme;
  int world;
  std::uint64_t hash;
};

TEST(EngineBits, FlatSchemesAndWorldsMatchRecordedHashes) {
  constexpr auto kSra = comm::ReductionScheme::ScatterReduceAllgather;
  constexpr auto kRing = comm::ReductionScheme::Ring;
  constexpr auto kTree = comm::ReductionScheme::Tree;
  const FlatCase cases[] = {
      {kSra, 2, 18141612559624491589ull},
      {kSra, 4, 12732479121844911061ull},
      {kRing, 2, 17501584219810712721ull},
      {kRing, 4, 7677349117683751845ull},
      {kTree, 2, 13319578719794923889ull},
      {kTree, 4, 62822595754685725ull},
  };
  for (const FlatCase& c : cases) {
    EngineOptions options;
    options.scheme = c.scheme;
    EXPECT_EQ(run_hash(c.world, options), c.hash)
        << comm::reduction_scheme_name(c.scheme) << " world " << c.world;
  }
}

TEST(EngineBits, TwoLevelTwoByTwoMatchesRecordedHash) {
  EngineOptions options;
  options.node_of = {0, 0, 1, 1};
  EXPECT_EQ(run_hash(4, options), 7586766135932794597ull);
}

TEST(EngineBits, TwoLevelUnevenInterleavedNodesMatchRecordedHashes) {
  // Three nodes of two, two and three ranks with non-contiguous ids whose
  // ranks interleave: leaders 0, 2 and 3 run a three-member leader SRA, so
  // the leader fold order, uneven member counts and the intra hop's own
  // compressor (compress_intra) are all part of the pinned bits.
  const std::uint64_t hashes[] = {750376774018967074ull,
                                  13623153823845277146ull};
  for (const bool compress_intra : {false, true}) {
    EngineOptions options;
    options.node_of = {5, 5, 2, 9, 2, 9, 9};
    options.compress_intra = compress_intra;
    EXPECT_EQ(run_hash(7, options), hashes[compress_intra ? 1 : 0])
        << "compress_intra " << compress_intra;
  }
}

TEST(EngineBits, TwoLevelOneRankPerNodeMatchesRecordedHash) {
  // Every rank its own leader: no intra hop, and the leader SRA is the
  // flat SRA over the whole world — so the pin is the flat world-4 hash.
  EngineOptions options;
  options.node_of = {4, 1, 9, 2};
  EXPECT_EQ(run_hash(4, options), 12732479121844911061ull);
}

TEST(EngineBits, RetriedRoundMatchesRecordedHash) {
  comm::FaultInjector injector(/*seed=*/1, /*world=*/4);
  injector.schedule_round_failure(/*round=*/1);
  EngineOptions options;
  options.max_round_retries = 1;
  options.injector = &injector;
  // The retried round is rolled back and rerun, so it reproduces the clean
  // flat SRA world-4 hash.
  EXPECT_EQ(run_hash(4, options), 12732479121844911061ull);
}

}  // namespace
}  // namespace cgx::core
