// End-to-end two-level collectives over the simulated multi-node fabric:
// all-rank bit-identity at cluster scale, overlap↔inline equivalence of
// the streamed two-level schedule, fault injection on the leader links,
// and a multi-seed delay soak (comm/simnet.h, core/hierarchical.h,
// core/async_engine.h).
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <exception>
#include <mutex>
#include <vector>

#include "comm/fault.h"
#include "comm/simnet.h"
#include "comm/tagspace.h"
#include "comm/transports.h"
#include "comm/world.h"
#include "core/async_engine.h"
#include "core/hierarchical.h"
#include "tensor/tensor_ops.h"

namespace cgx::core {
namespace {

using namespace std::chrono_literals;

std::vector<float> rank_input(int rank, std::size_t d) {
  util::Rng rng(8800 + static_cast<std::uint64_t>(rank));
  std::vector<float> v(d);
  for (auto& x : v) x = static_cast<float>(rng.next_gaussian());
  return v;
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

std::vector<int> grouped_node_of(int world, int ranks_per_node) {
  std::vector<int> node_of(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    node_of[static_cast<std::size_t>(r)] = r / ranks_per_node;
  }
  return node_of;
}

TEST(Multinode, HierarchicalOverSimNetBitIdenticalAcrossRanksAndRuns) {
  // 2 nodes x 8 ranks over the simulated 10 Gb/s fabric: every rank lands
  // the same bytes, and a fresh identically-seeded run reproduces both the
  // results and the modelled epoch exactly.
  constexpr int kWorld = 16;
  constexpr std::size_t kD = 4096;
  LayerCompression qsgd;
  const comm::Topology topo = comm::Topology::grouped(kWorld, 8);

  const auto run_once = [&](std::vector<std::vector<float>>* results) {
    PerRank compressors(kWorld, qsgd);
    comm::ShmTransport shm(kWorld);
    comm::SimNetTransport net(shm, topo, comm::SimNetParams{});
    results->assign(static_cast<std::size_t>(kWorld), {});
    std::mutex mutex;
    comm::run_world(net, [&](comm::Comm& comm) {
      auto data = rank_input(comm.rank(), kD);
      util::Rng rng(50 + static_cast<std::uint64_t>(comm.rank()));
      auto chunks = compressors.rank(comm.rank());
      hierarchical_allreduce(comm, data, chunks, rng, topo);
      std::lock_guard<std::mutex> lock(mutex);
      (*results)[static_cast<std::size_t>(comm.rank())] = std::move(data);
    });
    return net.clock().elapsed_ns();
  };

  std::vector<std::vector<float>> first, second;
  const std::uint64_t elapsed_first = run_once(&first);
  const std::uint64_t elapsed_second = run_once(&second);
  for (int r = 1; r < kWorld; ++r) {
    EXPECT_EQ(first[static_cast<std::size_t>(r)], first[0]) << "rank " << r;
  }
  for (int r = 0; r < kWorld; ++r) {
    EXPECT_EQ(second[static_cast<std::size_t>(r)],
              first[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
  EXPECT_GT(elapsed_first, 0u);
  EXPECT_EQ(elapsed_first, elapsed_second);
}

class TwoLevelStreaming : public ::testing::TestWithParam<bool> {};

TEST_P(TwoLevelStreaming, OverlapBitIdenticalToInline) {
  // The streamed two-level pipeline (members post bucket k+1 while bucket
  // k's inter-node exchange drains) must compute exactly what the
  // synchronous submission-order path computes, and must not deadlock.
  const bool compress_intra = GetParam();
  constexpr int kWorld = 8;
  tensor::LayerLayout layout;
  layout.add_layer("embed.weight", tensor::Shape{1500, 32});
  layout.add_layer("block0.attn.weight", tensor::Shape{32, 160});
  layout.add_layer("block0.attn.bias", tensor::Shape{160});
  layout.add_layer("block0.ffn.weight", tensor::Shape{32, 224});
  layout.add_layer("head.weight", tensor::Shape{32, 80});

  const auto run_mode = [&](bool overlap) {
    EngineOptions options;
    options.node_of = grouped_node_of(kWorld, 4);
    options.compress_intra = compress_intra;
    AsyncOptions aopts;
    aopts.bucket_bytes = std::size_t{32} << 10;
    aopts.overlap = overlap;
    AsyncGradientEngine engine(
        std::make_unique<CgxEngine>(layout, CompressionConfig::cgx_default(),
                                    kWorld, options),
        aopts);
    comm::ShmTransport transport(kWorld);
    std::vector<std::vector<float>> result(static_cast<std::size_t>(kWorld));
    comm::run_world(transport, [&](comm::Comm& comm) {
      util::Rng rng(6000 + static_cast<std::uint64_t>(comm.rank()));
      std::vector<float> grad;
      for (int round = 0; round < 2; ++round) {
        util::Rng grad_rng(4000 + 100 * static_cast<std::uint64_t>(round) +
                           static_cast<std::uint64_t>(comm.rank()));
        grad.resize(layout.total_numel());
        for (auto& v : grad) v = static_cast<float>(grad_rng.next_gaussian());
        engine.allreduce(comm, grad, rng);
      }
      result[static_cast<std::size_t>(comm.rank())] = grad;
    });
    return result;
  };

  const auto streamed = run_mode(/*overlap=*/true);
  const auto inlined = run_mode(/*overlap=*/false);
  for (int r = 0; r < kWorld; ++r) {
    EXPECT_EQ(streamed[static_cast<std::size_t>(r)],
              inlined[static_cast<std::size_t>(r)])
        << "rank " << r;
    EXPECT_EQ(streamed[static_cast<std::size_t>(r)], streamed[0])
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(IntraModes, TwoLevelStreaming,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "CompressedIntra"
                                             : "Fp32Intra";
                         });

TEST(MultinodeFault, DroppedLeaderLinkRaisesTimeoutNamingIt) {
  // Every frame from leader 2 to leader 0 vanishes on the simulated
  // inter-node link: rank 0's drain must surface a TimeoutError that names
  // exactly that leader link, within twice the configured deadline.
  constexpr int kWorld = 4;
  constexpr auto kDeadline = 150ms;
  const comm::Topology topo({0, 0, 1, 1});

  comm::ShmTransport shm(kWorld);
  comm::FaultInjector injector(/*seed=*/3, kWorld);
  comm::FaultSpec drop;
  drop.drop_prob = 1.0;
  injector.set_link(2, 0, drop);
  comm::FaultyTransport faulty(shm, injector);
  comm::SimNetTransport net(faulty, topo, comm::SimNetParams{});
  comm::CommPolicy pol;
  pol.timeout = kDeadline;
  // Drops bite the CRC-verified copy-out path, and the retry budget must
  // outlast the deadline so the failure surfaces as a *timeout* on the
  // starved link rather than a retries-exhausted checksum error.
  pol.checksums = true;
  pol.max_retries = 1 << 20;
  net.set_policy(pol);

  LayerCompression none;
  none.method = Method::None;
  PerRank compressors(kWorld, none);

  try {
    comm::run_world(net, [&](comm::Comm& comm) {
      auto data = rank_input(comm.rank(), 512);
      util::Rng rng(9 + static_cast<std::uint64_t>(comm.rank()));
      auto chunks = compressors.rank(comm.rank());
      hierarchical_allreduce(comm, data, chunks, rng, topo);
    });
    FAIL() << "expected WorkerError";
  } catch (const comm::WorkerError& e) {
    EXPECT_EQ(e.rank, 0);  // the starved leader is the lowest failing rank
    ASSERT_TRUE(e.original);
    try {
      std::rethrow_exception(e.original);
    } catch (const comm::TimeoutError& t) {
      EXPECT_EQ(t.src, 2);  // the remote leader...
      EXPECT_EQ(t.dst, 0);  // ...starving this one
      EXPECT_EQ(t.tag, comm::hier_inter_scatter_tag(0));
      EXPECT_LT(t.waited, 2 * kDeadline);
    }
  }
}

TEST(MultinodeFault, DelayedFabricSoakBitIdenticalAcrossSeeds) {
  // Eight differently-seeded delay patterns on every link: wall-clock
  // jitter reshuffles thread timing but can never change the reduced bytes
  // or the modelled virtual time.
  constexpr int kWorld = 8;
  constexpr std::size_t kD = 2048;
  LayerCompression qsgd;
  const comm::Topology topo = comm::Topology::grouped(kWorld, 4);

  const auto run_once = [&](comm::FaultInjector* injector,
                            std::uint64_t* elapsed_ns) {
    PerRank compressors(kWorld, qsgd);
    comm::ShmTransport shm(kWorld);
    comm::FaultInjector no_faults(/*seed=*/1, kWorld);
    comm::FaultyTransport faulty(shm, injector ? *injector : no_faults);
    comm::SimNetTransport net(faulty, topo, comm::SimNetParams{});
    std::vector<std::vector<float>> results(static_cast<std::size_t>(kWorld));
    std::mutex mutex;
    comm::run_world(net, [&](comm::Comm& comm) {
      auto data = rank_input(comm.rank(), kD);
      util::Rng rng(50 + static_cast<std::uint64_t>(comm.rank()));
      auto chunks = compressors.rank(comm.rank());
      hierarchical_allreduce(comm, data, chunks, rng, topo);
      std::lock_guard<std::mutex> lock(mutex);
      results[static_cast<std::size_t>(comm.rank())] = std::move(data);
    });
    *elapsed_ns = net.clock().elapsed_ns();
    return results;
  };

  std::uint64_t clean_elapsed = 0;
  const auto clean = run_once(nullptr, &clean_elapsed);
  for (int r = 1; r < kWorld; ++r) {
    ASSERT_EQ(clean[static_cast<std::size_t>(r)], clean[0]) << "rank " << r;
  }

  comm::FaultSpec jitter;
  jitter.delay_prob = 0.5;
  jitter.delay = 200us;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    comm::FaultInjector injector(seed, kWorld);
    injector.set_all_links(jitter);
    std::uint64_t elapsed = 0;
    const auto soaked = run_once(&injector, &elapsed);
    for (int r = 0; r < kWorld; ++r) {
      EXPECT_EQ(soaked[static_cast<std::size_t>(r)],
                clean[static_cast<std::size_t>(r)])
          << "seed " << seed << " rank " << r;
    }
    EXPECT_EQ(elapsed, clean_elapsed) << "seed " << seed;
  }
}

TEST(Multinode, EngineOverSimNetDeterministic) {
  // Full engine path (filtered packet + compressed hierarchical layers)
  // over the simulated fabric: ranks agree, and a fresh run reproduces the
  // gradient and the modelled time bit for bit.
  constexpr int kWorld = 8;
  tensor::LayerLayout layout;
  layout.add_layer("w1", tensor::Shape{256, 64});
  layout.add_layer("b1", tensor::Shape{64});
  layout.add_layer("w2", tensor::Shape{64, 48});
  EngineOptions options;
  options.node_of = grouped_node_of(kWorld, 4);

  const auto run_once = [&](std::vector<float>* rank0,
                            std::uint64_t* elapsed_ns) {
    CgxEngine engine(layout, CompressionConfig::cgx_default(), kWorld,
                     options);
    comm::ShmTransport shm(kWorld);
    comm::SimNetTransport net(shm, comm::Topology(options.node_of),
                              comm::SimNetParams{});
    std::vector<std::vector<float>> results(static_cast<std::size_t>(kWorld));
    std::mutex mutex;
    comm::run_world(net, [&](comm::Comm& comm) {
      auto grad = rank_input(300 + comm.rank(), layout.total_numel());
      util::Rng rng(70 + static_cast<std::uint64_t>(comm.rank()));
      engine.allreduce(comm, grad, rng);
      std::lock_guard<std::mutex> lock(mutex);
      results[static_cast<std::size_t>(comm.rank())] = std::move(grad);
    });
    for (int r = 1; r < kWorld; ++r) {
      EXPECT_EQ(results[static_cast<std::size_t>(r)], results[0])
          << "rank " << r;
    }
    *rank0 = std::move(results[0]);
    *elapsed_ns = net.clock().elapsed_ns();
  };

  std::vector<float> first, second;
  std::uint64_t elapsed_first = 0, elapsed_second = 0;
  run_once(&first, &elapsed_first);
  run_once(&second, &elapsed_second);
  EXPECT_EQ(first, second);
  EXPECT_EQ(elapsed_first, elapsed_second);
  EXPECT_GT(elapsed_first, 0u);
}

}  // namespace
}  // namespace cgx::core
