#include "core/hierarchical.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "comm/topology.h"
#include "comm/transports.h"
#include "core/async_engine.h"
#include "core/compressed_allreduce.h"
#include "core/compression_config.h"
#include "core/engine.h"
#include "simgpu/machines.h"
#include "tensor/tensor_ops.h"

namespace cgx::core {
namespace {

std::vector<float> rank_input(int rank, std::size_t d) {
  util::Rng rng(8800 + static_cast<std::uint64_t>(rank));
  std::vector<float> v(d);
  for (auto& x : v) x = static_cast<float>(rng.next_gaussian());
  return v;
}

std::vector<float> true_sum(int n, std::size_t d) {
  std::vector<float> sum(d, 0.0f);
  for (int r = 0; r < n; ++r) tensor::add_inplace(sum, rank_input(r, d));
  return sum;
}

struct PerRank {
  std::vector<std::vector<std::unique_ptr<Compressor>>> state;
  PerRank(int n, const LayerCompression& cfg) {
    state.resize(static_cast<std::size_t>(n));
    for (auto& c : state) {
      for (int i = 0; i < n; ++i) c.push_back(make_compressor(cfg, 0));
    }
  }
  std::vector<Compressor*> rank(int r) {
    std::vector<Compressor*> ptrs;
    for (auto& c : state[static_cast<std::size_t>(r)]) ptrs.push_back(c.get());
    return ptrs;
  }
};

TEST(LeaderOf, LowestRankOfNode) {
  const comm::Topology topo({0, 0, 1, 1, 0, 2});
  EXPECT_EQ(topo.leader(0), 0);
  EXPECT_EQ(topo.leader(1), 0);
  EXPECT_EQ(topo.leader(2), 2);
  EXPECT_EQ(topo.leader(3), 2);
  EXPECT_EQ(topo.leader(4), 0);
  EXPECT_EQ(topo.leader(5), 5);
  EXPECT_EQ(topo.leaders(), (std::vector<int>{0, 2, 5}));
}

TEST(Hierarchical, LosslessMatchesPlainSum) {
  constexpr int kWorld = 8;
  constexpr std::size_t kD = 999;
  LayerCompression none;
  none.method = Method::None;
  PerRank compressors(kWorld, none);
  const auto want = true_sum(kWorld, kD);
  const comm::Topology topo({0, 0, 0, 0, 1, 1, 1, 1});
  comm::ShmTransport transport(kWorld);
  comm::run_world(transport, [&](comm::Comm& comm) {
    auto data = rank_input(comm.rank(), kD);
    util::Rng rng(1 + static_cast<std::uint64_t>(comm.rank()));
    auto chunks = compressors.rank(comm.rank());
    hierarchical_allreduce(comm, data, chunks, rng, topo);
    for (std::size_t i = 0; i < kD; ++i) {
      EXPECT_NEAR(data[i], want[i], 1e-4f) << "rank " << comm.rank();
    }
  });
}

class HierarchicalModes : public ::testing::TestWithParam<bool> {};

TEST_P(HierarchicalModes, AllRanksBitIdenticalWithQuantization) {
  const bool compress_intra = GetParam();
  constexpr int kWorld = 8;
  constexpr std::size_t kD = 2048;
  LayerCompression qsgd;  // 4/128
  PerRank compressors(kWorld, qsgd);
  const comm::Topology topo({0, 0, 0, 0, 1, 1, 1, 1});
  HierarchicalOptions options;
  options.compress_intra = compress_intra;
  std::vector<std::vector<float>> results(kWorld);
  std::mutex mutex;
  comm::ShmTransport transport(kWorld);
  comm::run_world(transport, [&](comm::Comm& comm) {
    auto data = rank_input(comm.rank(), kD);
    util::Rng rng(50 + static_cast<std::uint64_t>(comm.rank()));
    auto chunks = compressors.rank(comm.rank());
    hierarchical_allreduce(comm, data, chunks, rng, topo, options);
    std::lock_guard<std::mutex> lock(mutex);
    results[static_cast<std::size_t>(comm.rank())] = std::move(data);
  });
  for (int r = 1; r < kWorld; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], results[0])
        << "rank " << r;
  }
  // And the result is close to the true sum (quantization error bounded).
  const auto want = true_sum(kWorld, kD);
  std::vector<float> diff(kD);
  tensor::sub(results[0], want, diff);
  EXPECT_LT(tensor::l2_norm(diff), 1.5 * tensor::l2_norm(want));
}

INSTANTIATE_TEST_SUITE_P(IntraModes, HierarchicalModes,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "CompressedIntra"
                                             : "Fp32Intra";
                         });

TEST(Hierarchical, CutsCrossNodeTraffic) {
  // The whole point of the two-level schedule: only the compressed leader
  // exchange crosses the node boundary.
  constexpr int kWorld = 8;
  constexpr std::size_t kD = 8192;
  const std::vector<int> node_of = {0, 0, 0, 0, 1, 1, 1, 1};
  LayerCompression qsgd;

  auto cross_node_bytes = [&](bool hierarchical) {
    PerRank compressors(kWorld, qsgd);
    comm::ShmTransport transport(kWorld);
    comm::run_world(transport, [&](comm::Comm& comm) {
      auto data = rank_input(comm.rank(), kD);
      util::Rng rng(60 + static_cast<std::uint64_t>(comm.rank()));
      auto chunks = compressors.rank(comm.rank());
      if (hierarchical) {
        hierarchical_allreduce(comm, data, chunks, rng,
                               comm::Topology(node_of));
      } else {
        compressed_allreduce(comm, data, chunks, rng,
                             comm::ReductionScheme::ScatterReduceAllgather);
      }
    });
    std::size_t cross = 0;
    for (int a = 0; a < kWorld; ++a) {
      for (int b = 0; b < kWorld; ++b) {
        if (a == b || node_of[a] == node_of[b]) continue;
        cross += transport.recorder().bytes_between(a, b);
      }
    }
    return cross;
  };

  const std::size_t flat = cross_node_bytes(false);
  const std::size_t two_level = cross_node_bytes(true);
  EXPECT_LT(two_level, flat / 3);
  EXPECT_GT(two_level, 0u);
}

TEST(Hierarchical, SingleNodeDegeneratesToIntraOnly) {
  constexpr int kWorld = 4;
  constexpr std::size_t kD = 64;
  LayerCompression none;
  none.method = Method::None;
  PerRank compressors(kWorld, none);
  const comm::Topology topo = comm::Topology::single_node(kWorld);
  const auto want = true_sum(kWorld, kD);
  comm::ShmTransport transport(kWorld);
  comm::run_world(transport, [&](comm::Comm& comm) {
    auto data = rank_input(comm.rank(), kD);
    util::Rng rng(2);
    auto chunks = compressors.rank(comm.rank());
    hierarchical_allreduce(comm, data, chunks, rng, topo);
    for (std::size_t i = 0; i < kD; ++i) {
      EXPECT_NEAR(data[i], want[i], 1e-4f);
    }
  });
}

TEST(Hierarchical, OneRankPerNode) {
  // Every rank its own leader: no intra hops at all, the schedule is pure
  // leader-level SRA — and it must still agree bit-for-bit across ranks
  // under quantization.
  constexpr int kWorld = 4;
  constexpr std::size_t kD = 777;
  LayerCompression qsgd;
  PerRank compressors(kWorld, qsgd);
  const comm::Topology topo({0, 1, 2, 3});
  EXPECT_EQ(topo.num_nodes(), kWorld);
  std::vector<std::vector<float>> results(kWorld);
  std::mutex mutex;
  comm::ShmTransport transport(kWorld);
  comm::run_world(transport, [&](comm::Comm& comm) {
    auto data = rank_input(comm.rank(), kD);
    util::Rng rng(80 + static_cast<std::uint64_t>(comm.rank()));
    auto chunks = compressors.rank(comm.rank());
    hierarchical_allreduce(comm, data, chunks, rng, topo);
    std::lock_guard<std::mutex> lock(mutex);
    results[static_cast<std::size_t>(comm.rank())] = std::move(data);
  });
  for (int r = 1; r < kWorld; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], results[0])
        << "rank " << r;
  }
}

TEST(Hierarchical, OneRankPerNodeIsFlatSra) {
  // With every rank its own node the two-level schedule is exactly the
  // leader exchange, and that exchange is the flat compressed SRA run over
  // the leaders — here the whole world. Identically seeded compressors and
  // RNGs must therefore land the same bits, step after step, with
  // error-feedback residuals carrying over between steps.
  constexpr int kWorld = 5;
  constexpr int kSteps = 3;
  constexpr std::size_t kD = 777;
  LayerCompression qsgd_ef;
  qsgd_ef.method = Method::Qsgd;
  qsgd_ef.bits = 3;
  qsgd_ef.bucket_size = 64;
  qsgd_ef.error_feedback = true;
  const comm::Topology topo({4, 1, 9, 2, 0});

  const auto run = [&](bool two_level) {
    PerRank compressors(kWorld, qsgd_ef);
    std::vector<std::vector<float>> results(kWorld * kSteps);
    comm::ShmTransport transport(kWorld);
    comm::run_world(transport, [&](comm::Comm& comm) {
      const int r = comm.rank();
      util::Rng rng(40 + static_cast<std::uint64_t>(r));
      auto chunks = compressors.rank(r);
      CollectiveWorkspace ws;
      for (int step = 0; step < kSteps; ++step) {
        auto data = rank_input(10 * step + r, kD);
        if (two_level) {
          hierarchical_allreduce(comm, data, chunks, rng, topo, {}, ws);
        } else {
          compressed_allreduce_sra(comm, data, chunks, rng, ws);
        }
        results[static_cast<std::size_t>(step * kWorld + r)] =
            std::move(data);
      }
    });
    return results;
  };

  const auto two_level = run(true);
  const auto flat = run(false);
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(two_level[i], flat[i]) << "step " << i / kWorld << " rank "
                                     << i % kWorld;
  }
}

TEST(Hierarchical, NonContiguousNodeIds) {
  // Raw node ids are arbitrary labels; leaders and chunk assignments come
  // from rank order, not from the ids' numeric values.
  constexpr int kWorld = 6;
  constexpr std::size_t kD = 321;
  LayerCompression none;
  none.method = Method::None;
  PerRank compressors(kWorld, none);
  const comm::Topology topo({7, 7, 3, 3, 9, 9});
  EXPECT_EQ(topo.leader(1), 0);
  EXPECT_EQ(topo.leader(3), 2);
  EXPECT_EQ(topo.leader(5), 4);
  EXPECT_EQ(topo.num_nodes(), 3);
  const auto want = true_sum(kWorld, kD);
  comm::ShmTransport transport(kWorld);
  comm::run_world(transport, [&](comm::Comm& comm) {
    auto data = rank_input(comm.rank(), kD);
    util::Rng rng(4);
    auto chunks = compressors.rank(comm.rank());
    hierarchical_allreduce(comm, data, chunks, rng, topo);
    for (std::size_t i = 0; i < kD; ++i) {
      EXPECT_NEAR(data[i], want[i], 1e-4f) << "rank " << comm.rank();
    }
  });
}

TEST(Hierarchical, BeginFinishSplitMatchesMonolithic) {
  // The overlap entry points on a non-zero bucket lane compute exactly
  // what the monolithic call computes on lane 0: the tag lane shifts the
  // wire traffic, never the arithmetic.
  constexpr int kWorld = 8;
  constexpr std::size_t kD = 1024;
  LayerCompression qsgd;
  const comm::Topology topo({0, 0, 0, 0, 1, 1, 1, 1});

  const auto run = [&](bool split) {
    PerRank compressors(kWorld, qsgd);
    std::vector<std::vector<float>> results(kWorld);
    std::mutex mutex;
    comm::ShmTransport transport(kWorld);
    comm::run_world(transport, [&](comm::Comm& comm) {
      auto data = rank_input(comm.rank(), kD);
      util::Rng rng(90 + static_cast<std::uint64_t>(comm.rank()));
      auto chunks = compressors.rank(comm.rank());
      CollectiveWorkspace ws;
      if (split) {
        hierarchical_begin(comm, data, chunks, rng, topo, {}, ws,
                           /*bucket=*/3);
        hierarchical_finish(comm, data, chunks, rng, topo, {}, ws,
                            /*bucket=*/3);
      } else {
        hierarchical_allreduce(comm, data, chunks, rng, topo, {}, ws,
                               /*bucket=*/0);
      }
      std::lock_guard<std::mutex> lock(mutex);
      results[static_cast<std::size_t>(comm.rank())] = std::move(data);
    });
    return results;
  };

  const auto split = run(true);
  const auto mono = run(false);
  for (int r = 0; r < kWorld; ++r) {
    EXPECT_EQ(split[static_cast<std::size_t>(r)],
              mono[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
}

TEST(Hierarchical, UnevenNodeSizes) {
  constexpr int kWorld = 7;
  constexpr std::size_t kD = 333;
  LayerCompression none;
  none.method = Method::None;
  PerRank compressors(kWorld, none);
  const comm::Topology topo({0, 0, 0, 1, 1, 2, 2});
  const auto want = true_sum(kWorld, kD);
  comm::ShmTransport transport(kWorld);
  comm::run_world(transport, [&](comm::Comm& comm) {
    auto data = rank_input(comm.rank(), kD);
    util::Rng rng(3);
    auto chunks = compressors.rank(comm.rank());
    hierarchical_allreduce(comm, data, chunks, rng, topo);
    for (std::size_t i = 0; i < kD; ++i) {
      EXPECT_NEAR(data[i], want[i], 1e-4f);
    }
  });
}

TEST(CgxEngineHierarchical, EndToEndGradientAverage) {
  tensor::LayerLayout layout;
  layout.add_layer("w1", tensor::Shape{64, 32});
  layout.add_layer("b1", tensor::Shape{32});
  layout.add_layer("w2", tensor::Shape{32, 16});
  EngineOptions options;
  options.node_of = {0, 0, 1, 1};
  CgxEngine engine(layout, CompressionConfig::cgx_default(), 4, options);

  std::vector<float> want(layout.total_numel(), 0.0f);
  for (int r = 0; r < 4; ++r) {
    tensor::add_inplace(want, rank_input(100 + r, layout.total_numel()));
  }
  tensor::scale(want, 0.25f);

  std::vector<std::vector<float>> results(4);
  std::mutex mutex;
  comm::ShmTransport transport(4);
  comm::run_world(transport, [&](comm::Comm& comm) {
    auto grad = rank_input(100 + comm.rank(), layout.total_numel());
    util::Rng rng(70 + static_cast<std::uint64_t>(comm.rank()));
    engine.allreduce(comm, grad, rng);
    std::lock_guard<std::mutex> lock(mutex);
    results[static_cast<std::size_t>(comm.rank())] = std::move(grad);
  });
  for (int r = 1; r < 4; ++r) EXPECT_EQ(results[r], results[0]);
  std::vector<float> diff(want.size());
  tensor::sub(results[0], want, diff);
  EXPECT_LT(tensor::l2_norm(diff), 1.5 * tensor::l2_norm(want));
  // Filtered layer (b1) exact.
  const auto b1 = layout.slice(std::span<const float>(results[0]), 1);
  const auto b1_want = layout.slice(std::span<const float>(want), 1);
  for (std::size_t i = 0; i < b1.size(); ++i) {
    EXPECT_NEAR(b1[i], b1_want[i], 1e-4f);
  }
}

TEST(CgxEngineHierarchical, MisSizedNodeMapThrowsAtConstruction) {
  // A node map that does not cover the world is rejected when the engine
  // is built — never by an abort inside the first compressed layer.
  tensor::LayerLayout layout;
  layout.add_layer("w", tensor::Shape{64, 32});
  for (const std::vector<int>& node_of :
       {std::vector<int>{0, 0, 1}, std::vector<int>{0, 0, 1, 1, 2}}) {
    EngineOptions options;
    options.node_of = node_of;
    EXPECT_THROW(CgxEngine(layout, CompressionConfig::cgx_default(), 4,
                           options),
                 std::invalid_argument)
        << node_of.size() << " ranks";
    EXPECT_THROW(AsyncGradientEngine(
                     std::make_unique<CgxEngine>(
                         layout, CompressionConfig::cgx_default(), 4,
                         options)),
                 std::invalid_argument)
        << node_of.size() << " ranks";
  }
}

TEST(CgxEngineHierarchical, PlanFasterThanFlatOnCluster) {
  // The two-level schedule pays full-precision intra hops to keep the NICs
  // compressed-only, so it wins exactly when the intra fabric is much
  // faster than the NICs (NVLink-class nodes behind slow networks). On
  // Genesis-class nodes, whose contended PCIe fabric is WEAKER than the
  // NICs, flat SRA remains the right choice — which is why the engine
  // leaves the mode opt-in.
  tensor::LayerLayout layout;
  layout.add_layer("big.weight", tensor::Shape{2048, 1024});
  const simgpu::Machine cluster{
      .name = "4x NVLink nodes, 5 GBps NICs",
      .gpu = simgpu::GpuKind::V100,
      .topology = simgpu::make_multinode_topology(
          "nvlink-cluster", 4, 4, /*intra_link_gbps=*/80.0,
          /*intra_fabric_gbps=*/160.0, /*intra_latency_us=*/2.0,
          /*nic_gbps=*/5.0, /*inter_latency_us=*/30.0),
      .price_per_hour_usd = 0.0};
  comm::ShmTransport shm(16);
  const simgpu::CostModel cost(cluster.topology, shm.profile());

  EngineOptions flat;
  CgxEngine flat_engine(layout, CompressionConfig::cgx_default(), 16, flat);
  EngineOptions two_level;
  for (int r = 0; r < 16; ++r) two_level.node_of.push_back(r / 4);
  CgxEngine h_engine(layout, CompressionConfig::cgx_default(), 16,
                     two_level);

  const double flat_s = flat_engine.comm_plan(cost, 200.0).per_layer_s[0];
  const double h_s = h_engine.comm_plan(cost, 200.0).per_layer_s[0];
  EXPECT_LT(h_s, flat_s);
}

}  // namespace
}  // namespace cgx::core
