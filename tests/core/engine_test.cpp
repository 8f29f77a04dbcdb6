#include "core/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "comm/transports.h"
#include "core/qsgd.h"
#include "simgpu/machines.h"
#include "tensor/tensor_ops.h"
#include "util/threadpool.h"

namespace cgx::core {
namespace {

tensor::LayerLayout transformer_like_layout() {
  tensor::LayerLayout layout;
  layout.add_layer("embed.weight", tensor::Shape{1000, 64});  // big, first
  layout.add_layer("block0.attn.weight", tensor::Shape{64, 192});
  layout.add_layer("block0.attn.bias", tensor::Shape{192});
  layout.add_layer("block0.ln.weight", tensor::Shape{64});
  layout.add_layer("block0.ffn.weight", tensor::Shape{64, 256});
  layout.add_layer("block0.ffn.bias", tensor::Shape{256});
  layout.add_layer("head.weight", tensor::Shape{64, 100});
  return layout;
}

std::vector<float> rank_gradient(const tensor::LayerLayout& layout,
                                 int rank) {
  util::Rng rng(4000 + static_cast<std::uint64_t>(rank));
  std::vector<float> g(layout.total_numel());
  for (auto& v : g) v = static_cast<float>(rng.next_gaussian());
  return g;
}

std::vector<float> average_gradient(const tensor::LayerLayout& layout,
                                    int n) {
  std::vector<float> avg(layout.total_numel(), 0.0f);
  for (int r = 0; r < n; ++r) {
    tensor::add_inplace(avg, rank_gradient(layout, r));
  }
  tensor::scale(avg, 1.0f / static_cast<float>(n));
  return avg;
}

TEST(CgxEngine, ResolvedPolicyAppliesFilters) {
  const auto layout = transformer_like_layout();
  CgxEngine engine(layout, CompressionConfig::cgx_default(), 4);
  const auto& resolved = engine.resolved();
  EXPECT_EQ(resolved[layout.index_of("embed.weight")].method, Method::Qsgd);
  EXPECT_EQ(resolved[layout.index_of("block0.attn.bias")].method,
            Method::None);
  EXPECT_EQ(resolved[layout.index_of("block0.ln.weight")].method,
            Method::None);
}

TEST(CgxEngine, AveragesGradientsCloseToTrueMean) {
  constexpr int kWorld = 4;
  const auto layout = transformer_like_layout();
  CgxEngine engine(layout, CompressionConfig::cgx_default(), kWorld);
  const auto want = average_gradient(layout, kWorld);
  comm::ShmTransport transport(kWorld);
  comm::run_world(transport, [&](comm::Comm& comm) {
    auto grad = rank_gradient(layout, comm.rank());
    util::Rng rng(6000 + static_cast<std::uint64_t>(comm.rank()));
    engine.allreduce(comm, grad, rng);
    // Filtered layers must be exact; compressed layers within QSGD error.
    for (std::size_t l = 0; l < layout.layer_count(); ++l) {
      const auto got = layout.slice(std::span<const float>(grad), l);
      const auto exp = layout.slice(std::span<const float>(want), l);
      const bool filtered = engine.resolved()[l].method == Method::None;
      const double norm = tensor::l2_norm(exp);
      double err = 0.0;
      for (std::size_t i = 0; i < got.size(); ++i) {
        const double d = double(got[i]) - exp[i];
        err += d * d;
      }
      if (filtered) {
        EXPECT_LT(std::sqrt(err), 1e-4 * (1.0 + norm))
            << layout.layer(l).name;
      } else {
        // 4-bit QSGD on dense Gaussian data: per-step relative error near
        // 1.0 (see CompressionError.TracksQsgdVariancePrediction); the
        // plumbing check is that it stays within the variance envelope.
        EXPECT_LT(std::sqrt(err), 1.5 * norm) << layout.layer(l).name;
        EXPECT_GT(err, 0.0) << layout.layer(l).name;
      }
    }
  });
}

TEST(CgxEngine, UncompressedConfigIsExact) {
  constexpr int kWorld = 3;
  const auto layout = transformer_like_layout();
  CgxEngine engine(layout, CompressionConfig::uncompressed(), kWorld);
  const auto want = average_gradient(layout, kWorld);
  comm::ShmTransport transport(kWorld);
  comm::run_world(transport, [&](comm::Comm& comm) {
    auto grad = rank_gradient(layout, comm.rank());
    util::Rng rng(1);
    engine.allreduce(comm, grad, rng);
    for (std::size_t i = 0; i < grad.size(); ++i) {
      EXPECT_NEAR(grad[i], want[i], 1e-4f);
    }
  });
}

TEST(CgxEngine, AllRanksIdenticalAfterAllreduce) {
  constexpr int kWorld = 4;
  const auto layout = transformer_like_layout();
  CgxEngine engine(layout, CompressionConfig::cgx_default(), kWorld);
  std::vector<std::vector<float>> results(kWorld);
  std::mutex mutex;
  comm::ShmTransport transport(kWorld);
  comm::run_world(transport, [&](comm::Comm& comm) {
    auto grad = rank_gradient(layout, comm.rank());
    util::Rng rng(6100 + static_cast<std::uint64_t>(comm.rank()));
    engine.allreduce(comm, grad, rng);
    std::lock_guard<std::mutex> lock(mutex);
    results[static_cast<std::size_t>(comm.rank())] = std::move(grad);
  });
  for (int r = 1; r < kWorld; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], results[0]);
  }
}

TEST(CgxEngine, ScratchStabilizesAfterFirstStep) {
  // The zero-allocation contract: all collective scratch lives in per-rank
  // grow-only workspaces, so after the first (warm-up) step the high-water
  // mark never moves again — steady-state allreduce makes no allocations.
  constexpr int kWorld = 4;
  const auto layout = transformer_like_layout();
  for (auto scheme : {comm::ReductionScheme::ScatterReduceAllgather,
                      comm::ReductionScheme::Ring,
                      comm::ReductionScheme::Tree}) {
    EngineOptions options;
    options.scheme = scheme;
    CgxEngine engine(layout, CompressionConfig::cgx_default(), kWorld,
                     options);
    EXPECT_EQ(engine.scratch_high_water_bytes(), 0u);
    std::size_t after_first = 0;
    for (int step = 0; step < 4; ++step) {
      comm::ShmTransport transport(kWorld);
      comm::run_world(transport, [&](comm::Comm& comm) {
        auto grad = rank_gradient(layout, comm.rank());
        util::Rng rng(6500 + static_cast<std::uint64_t>(
                                 step * kWorld + comm.rank()));
        engine.allreduce(comm, grad, rng);
      });
      if (step == 0) {
        after_first = engine.scratch_high_water_bytes();
        EXPECT_GT(after_first, 0u);
      } else {
        EXPECT_EQ(engine.scratch_high_water_bytes(), after_first)
            << "scheme=" << comm::reduction_scheme_name(scheme)
            << " step=" << step;
      }
    }
  }
}

// A helper thread in a comm thread's shape (read the doorbell, help, park)
// that counts the items it ran.
class CountingHelper {
 public:
  CountingHelper(util::ThreadPool& pool, std::atomic<int>& ran)
      : pool_(pool), ran_(ran), thread_([this] { run(); }) {}
  ~CountingHelper() {
    stop_.store(true, std::memory_order_release);
    pool_.ring();
    thread_.join();
  }

 private:
  void run() {
    while (!stop_.load(std::memory_order_acquire)) {
      const std::uint32_t seen = pool_.doorbell();
      if (stop_.load(std::memory_order_acquire)) break;
      if (pool_.help()) {
        ran_.fetch_add(1, std::memory_order_relaxed);
      } else {
        pool_.wait_doorbell(seen);
      }
    }
  }

  util::ThreadPool& pool_;
  std::atomic<int>& ran_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(CgxEngine, ThreadedCompressionPoolKeepsResultsInEnvelope) {
  // Wiring check for the rank executor: with an executor bound to every
  // rank thread, as the trainer binds one, a layer whose per-rank chunk
  // crosses the QSGD split threshold splits over it, and the engine
  // produces the same lockstep averages (bit-reproducibility of the
  // compression itself is covered by threaded_compression_test). Each
  // rank's executor is shared by its thread and two helper threads, which
  // count the items they ran: the split path must have run.
  constexpr int kWorld = 4;
  auto layout = transformer_like_layout();
  layout.add_layer("big.weight", tensor::Shape{512, 640});
  ASSERT_GE(layout.layer(layout.layer_count() - 1).numel / kWorld,
            QsgdCompressor::kSplitMinNumel);
  CgxEngine engine(layout, CompressionConfig::cgx_default(), kWorld);
  std::atomic<int> helper_items{0};
  std::vector<std::shared_ptr<util::ThreadPool>> pools;
  std::vector<std::unique_ptr<CountingHelper>> helpers;
  for (int r = 0; r < kWorld; ++r) {
    pools.push_back(std::make_shared<util::ThreadPool>(
        util::ThreadPool::CallerRuns{3}));
    for (int h = 0; h < 2; ++h) {
      helpers.push_back(
          std::make_unique<CountingHelper>(*pools.back(), helper_items));
    }
  }
  // Helpers wake on the doorbell, so on a loaded machine a round's owners
  // may finish alone; rounds repeat until a helper has run an item.
  for (int round = 0; round < 50 && helper_items.load() == 0; ++round) {
    std::vector<std::vector<float>> results(kWorld);
    std::mutex mutex;
    comm::ShmTransport transport(kWorld);
    comm::run_world(transport, [&](comm::Comm& comm) {
      util::bind_thread_executor(pools[static_cast<std::size_t>(comm.rank())]);
      auto grad = rank_gradient(layout, comm.rank());
      util::Rng rng(6100 + static_cast<std::uint64_t>(comm.rank()));
      engine.allreduce(comm, grad, rng);
      std::lock_guard<std::mutex> lock(mutex);
      results[static_cast<std::size_t>(comm.rank())] = std::move(grad);
    });
    for (int r = 1; r < kWorld; ++r) {
      EXPECT_EQ(results[static_cast<std::size_t>(r)], results[0]);
    }
  }
  helpers.clear();
  EXPECT_GT(helper_items.load(), 0) << "no codec call split over the executor";
}

TEST(CgxEngine, WireBytesBelowBaseline) {
  const auto layout = transformer_like_layout();
  CgxEngine engine(layout, CompressionConfig::cgx_default(), 8);
  const double compressed = engine.wire_bytes_per_rank();
  const double raw = engine.raw_wire_bytes_per_rank();
  EXPECT_LT(compressed, raw / 5.0);
  EXPECT_GT(compressed, raw / 10.0);
}

TEST(CgxEngine, CommPlanFasterThanBaselineOnCommodityBox) {
  // Realistically sized layers: with the baseline's bucket fusion, CGX only
  // wins where bandwidth (not per-message latency) dominates — i.e. on
  // models of real size.
  tensor::LayerLayout layout;
  layout.add_layer("embed.weight", tensor::Shape{100000, 128});
  for (int b = 0; b < 6; ++b) {
    const std::string p = "block" + std::to_string(b);
    layout.add_layer(p + ".attn.weight", tensor::Shape{512, 1536});
    layout.add_layer(p + ".attn.bias", tensor::Shape{1536});
    layout.add_layer(p + ".ffn.weight", tensor::Shape{512, 2048});
    layout.add_layer(p + ".ln.weight", tensor::Shape{512});
  }
  const auto machine = simgpu::make_rtx3090_8x();
  comm::ShmTransport shm(8);
  const simgpu::CostModel cost(machine.topology, shm.profile());

  CgxEngine cgx(layout, CompressionConfig::cgx_default(), 8);
  BaselineEngine baseline(layout, 8);
  const CommPlan cgx_plan = cgx.comm_plan(cost, 200.0);
  const CommPlan base_plan = baseline.comm_plan(cost, 200.0);
  double cgx_total = cgx_plan.fused_packet_s;
  double base_total = base_plan.fused_packet_s;
  for (double s : cgx_plan.per_layer_s) cgx_total += s;
  for (double s : base_plan.per_layer_s) base_total += s;
  EXPECT_LT(cgx_total, base_total / 3.0);
}

TEST(CgxEngine, RebuildPicksUpConfigChanges) {
  const auto layout = transformer_like_layout();
  CgxEngine engine(layout, CompressionConfig::cgx_default(), 2);
  const double before = engine.wire_bytes_per_rank();
  engine.config().set_layer_quantization("embed.weight", 2, 128);
  engine.rebuild();
  const double after = engine.wire_bytes_per_rank();
  EXPECT_LT(after, before);
  EXPECT_EQ(engine.resolved()[layout.index_of("embed.weight")].bits, 2u);
}

TEST(QncclEngine, BlobCompressionIgnoresLayerBoundaries) {
  constexpr int kWorld = 4;
  const auto layout = transformer_like_layout();
  QncclEngine engine(layout, 4, 128, kWorld);
  const auto want = average_gradient(layout, kWorld);
  comm::ShmTransport transport(kWorld);
  comm::run_world(transport, [&](comm::Comm& comm) {
    auto grad = rank_gradient(layout, comm.rank());
    util::Rng rng(6200 + static_cast<std::uint64_t>(comm.rank()));
    engine.allreduce(comm, grad, rng);
    // Bias/norm layers are NOT protected: they carry quantization error.
    const auto bias = layout.slice(std::span<const float>(grad),
                                   layout.index_of("block0.attn.bias"));
    const auto bias_want = layout.slice(std::span<const float>(want),
                                        layout.index_of("block0.attn.bias"));
    double err = 0.0;
    for (std::size_t i = 0; i < bias.size(); ++i) {
      const double d = double(bias[i]) - bias_want[i];
      err += d * d;
    }
    EXPECT_GT(err, 0.0);
  });
}

TEST(QncclEngine, HigherErrorThanCgx) {
  // QNCCL "has higher accuracy degradation because it cannot perform
  // layer-wise compression" (§6.2) and rides ring reduction.
  constexpr int kWorld = 8;
  const auto layout = transformer_like_layout();
  const auto want = average_gradient(layout, kWorld);

  auto total_error = [&](GradientEngine& engine, std::uint64_t seed) {
    std::vector<float> result;
    std::mutex mutex;
    comm::ShmTransport transport(kWorld);
    comm::run_world(transport, [&](comm::Comm& comm) {
      auto grad = rank_gradient(layout, comm.rank());
      util::Rng rng(seed + static_cast<std::uint64_t>(comm.rank()));
      engine.allreduce(comm, grad, rng);
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(mutex);
        result = std::move(grad);
      }
    });
    std::vector<float> diff(result.size());
    tensor::sub(result, want, diff);
    return tensor::squared_norm(diff);
  };

  CgxEngine cgx(layout, CompressionConfig::cgx_default(), kWorld);
  QncclEngine qnccl(layout, 4, 128, kWorld);
  double cgx_err = 0.0, qnccl_err = 0.0;
  for (std::uint64_t rep = 0; rep < 4; ++rep) {
    cgx_err += total_error(cgx, 7000 + rep * 100);
    qnccl_err += total_error(qnccl, 8000 + rep * 100);
  }
  EXPECT_LT(cgx_err, qnccl_err);
}

TEST(GraceEngine, ProducesConsistentAverage) {
  constexpr int kWorld = 4;
  const auto layout = transformer_like_layout();
  GraceEngine engine(layout, 4, kWorld);
  const auto want = average_gradient(layout, kWorld);
  std::vector<std::vector<float>> results(kWorld);
  std::mutex mutex;
  comm::ShmTransport transport(kWorld);
  comm::run_world(transport, [&](comm::Comm& comm) {
    auto grad = rank_gradient(layout, comm.rank());
    util::Rng rng(6300 + static_cast<std::uint64_t>(comm.rank()));
    engine.allreduce(comm, grad, rng);
    std::lock_guard<std::mutex> lock(mutex);
    results[static_cast<std::size_t>(comm.rank())] = std::move(grad);
  });
  for (int r = 1; r < kWorld; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], results[0]);
  }
  // GRACE quantizes whole tensors against a single norm ("less efficient
  // compression (e.g., no bucketing)", §6.2): on the 64k embedding the
  // quantization step is ||v||/7 ~ sqrt(64000)/7, i.e. a per-element error
  // many times the signal. Assert the error sits in that (bad) envelope —
  // the pathology bucketing exists to fix.
  std::vector<float> diff(want.size());
  tensor::sub(results[0], want, diff);
  const double rel = tensor::l2_norm(diff) / tensor::l2_norm(want);
  EXPECT_GT(rel, 1.0);
  EXPECT_LT(rel, 12.0);
}

TEST(GraceEngine, CommPlanSlowerThanCgx) {
  // GRACE: allgather reduction + INT8 wire -> slower than CGX (§6.2,
  // "outperforms GRACE by more than 3x").
  const auto layout = transformer_like_layout();
  const auto machine = simgpu::make_rtx3090_8x();
  comm::ShmTransport shm(8);
  const simgpu::CostModel cost(machine.topology, shm.profile());
  CgxEngine cgx(layout, CompressionConfig::cgx_default(), 8);
  GraceEngine grace(layout, 4, 8);
  const CommPlan cgx_plan = cgx.comm_plan(cost, 200.0);
  const CommPlan grace_plan = grace.comm_plan(cost, 200.0);
  double cgx_total = cgx_plan.fused_packet_s;
  double grace_total = grace_plan.fused_packet_s;
  for (double s : cgx_plan.per_layer_s) cgx_total += s;
  for (double s : grace_plan.per_layer_s) grace_total += s;
  EXPECT_GT(grace_total, 2.0 * cgx_total);
}

TEST(BaselineEngine, ExactAverage) {
  constexpr int kWorld = 4;
  const auto layout = transformer_like_layout();
  BaselineEngine engine(layout, kWorld);
  const auto want = average_gradient(layout, kWorld);
  comm::ShmTransport transport(kWorld);
  comm::run_world(transport, [&](comm::Comm& comm) {
    auto grad = rank_gradient(layout, comm.rank());
    util::Rng rng(1);
    engine.allreduce(comm, grad, rng);
    for (std::size_t i = 0; i < grad.size(); ++i) {
      EXPECT_NEAR(grad[i], want[i], 1e-4f);
    }
  });
}

TEST(BaselineEngine, Fp16WireHalvesPlanBytes) {
  const auto layout = transformer_like_layout();
  const auto machine = simgpu::make_rtx3090_8x();
  comm::ShmTransport shm(8);
  const simgpu::CostModel cost(machine.topology, shm.profile());
  BaselineEngine fp32(layout, 8, /*fp16_wire=*/false);
  BaselineEngine fp16(layout, 8, /*fp16_wire=*/true);
  EXPECT_NEAR(fp16.comm_plan(cost, 0).wire_bytes_per_rank * 2.0,
              fp32.comm_plan(cost, 0).wire_bytes_per_rank, 1.0);
}

}  // namespace
}  // namespace cgx::core
