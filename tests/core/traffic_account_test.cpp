// The engine's traffic account is exact: after one fault-free step, the
// cached per-rank wire bytes times the world equal the bytes the transport
// recorded. Covers the flat schemes at even and uneven chunk splits, the
// two-level schedule (uneven, interleaved nodes, with and without a
// compressed intra hop) and the streaming engine's multi-lane buckets, all
// under a policy that mixes QSGD, NUQ, DGC top-k and fused FP32 layers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/transports.h"
#include "comm/world.h"
#include "core/async_engine.h"
#include "core/engine.h"

namespace cgx::core {
namespace {

tensor::LayerLayout account_layout() {
  tensor::LayerLayout layout;
  layout.add_layer("embed.weight", tensor::Shape{300, 16});
  layout.add_layer("block0.attn.weight", tensor::Shape{16, 48});
  layout.add_layer("block0.attn.bias", tensor::Shape{48});
  layout.add_layer("block0.ln.weight", tensor::Shape{16});
  layout.add_layer("block0.ffn.weight", tensor::Shape{37, 13});
  layout.add_layer("head.weight", tensor::Shape{16, 25});
  return layout;
}

// cgx_default (QSGD 4-bit, biases and norms in the FP32 packet) plus a
// DGC top-k embedding, an NUQ attention matrix and a 3-bit error-feedback
// QSGD layer whose length splits unevenly over every world tested.
CompressionConfig account_config() {
  CompressionConfig config = CompressionConfig::cgx_default();
  LayerCompression dgc;
  dgc.method = Method::TopK;
  dgc.topk_ratio = 0.01;
  dgc.dgc = true;
  config.set_layer_exact("embed.weight", dgc);
  LayerCompression nuq;
  nuq.method = Method::Nuq;
  nuq.bits = 4;
  nuq.bucket_size = 128;
  config.set_layer_exact("block0.attn.weight", nuq);
  LayerCompression ef;
  ef.method = Method::Qsgd;
  ef.bits = 3;
  ef.bucket_size = 64;
  ef.error_feedback = true;
  config.set_layer_exact("block0.ffn.weight", ef);
  return config;
}

// The byte count the cached per-rank mean stands for. The mean of an odd
// world need not be a double (116320 / 7 is not), so the product is rounded
// back to whole bytes; any missing or extra byte still shows.
std::size_t account_total(const CgxEngine& engine) {
  return static_cast<std::size_t>(
      std::llround(engine.cached_wire_bytes() * engine.active_world()));
}

// Runs one step of `engine` over a fresh SHM world and returns the bytes
// the transport recorded. Checks every rank's report against the cache.
template <typename Engine>
std::size_t recorded_step_bytes(Engine& engine, CgxEngine& cgx,
                                const tensor::LayerLayout& layout,
                                int world) {
  comm::ShmTransport transport(world);
  comm::run_world(transport, [&](comm::Comm& comm) {
    const int r = comm.rank();
    util::Rng rng(400 + static_cast<std::uint64_t>(r));
    util::Rng data(800 + static_cast<std::uint64_t>(r));
    std::vector<float> grad(layout.total_numel());
    for (float& v : grad) v = static_cast<float>(data.next_gaussian());
    engine.allreduce(comm, grad, rng);
    EXPECT_TRUE(engine.last_step_report(r).ok);
    EXPECT_EQ(engine.last_step_report(r).wire_bytes, cgx.cached_wire_bytes());
  });
  return transport.recorder().total_bytes();
}

void expect_exact(int world, const EngineOptions& options) {
  const tensor::LayerLayout layout = account_layout();
  CgxEngine engine(layout, account_config(), world, options);
  ASSERT_FALSE(engine.filtered_layers().empty());
  const std::size_t recorded =
      recorded_step_bytes(engine, engine, layout, world);
  ASSERT_GT(recorded, 0u);
  EXPECT_EQ(account_total(engine), recorded);
  EXPECT_EQ(engine.wire_bytes_per_rank(), engine.cached_wire_bytes());
  EXPECT_LT(engine.wire_bytes_per_rank(), engine.raw_wire_bytes_per_rank());
}

TEST(TrafficAccount, FlatSchemesMatchRecordedBytes) {
  for (const auto scheme : {comm::ReductionScheme::ScatterReduceAllgather,
                            comm::ReductionScheme::Ring,
                            comm::ReductionScheme::Tree}) {
    for (const int world : {2, 3, 4}) {
      SCOPED_TRACE(std::string(comm::reduction_scheme_name(scheme)) +
                   " world " + std::to_string(world));
      EngineOptions options;
      options.scheme = scheme;
      expect_exact(world, options);
    }
  }
}

TEST(TrafficAccount, TwoLevelMatchesRecordedBytes) {
  const std::vector<std::vector<int>> placements = {
      {0, 0, 1, 1}, {5, 5, 2, 9, 2, 9, 9}};
  for (const auto& node_of : placements) {
    for (const bool compress_intra : {false, true}) {
      SCOPED_TRACE("world " + std::to_string(node_of.size()) +
                   " compress_intra " + std::to_string(compress_intra));
      EngineOptions options;
      options.node_of = node_of;
      options.compress_intra = compress_intra;
      expect_exact(static_cast<int>(node_of.size()), options);
    }
  }
}

TEST(TrafficAccount, StreamedBucketsMatchRecordedBytes) {
  const tensor::LayerLayout layout = account_layout();
  constexpr int kWorld = 3;
  for (const int lanes : {1, 2}) {
    SCOPED_TRACE("comm_lanes " + std::to_string(lanes));
    AsyncOptions aopts;
    aopts.bucket_bytes = 1024;  // one bucket per compressed layer
    aopts.overlap = true;
    aopts.comm_lanes = lanes;
    AsyncGradientEngine engine(
        std::make_unique<CgxEngine>(layout, account_config(), kWorld), aopts);
    ASSERT_GE(engine.plan().buckets.size(), 3u);
    const std::size_t recorded =
        recorded_step_bytes(engine, engine.inner(), layout, kWorld);
    EXPECT_EQ(account_total(engine.inner()), recorded);
  }
}

}  // namespace
}  // namespace cgx::core
