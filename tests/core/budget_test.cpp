// Budget-planner suite (`ctest -L adaptive`, DESIGN.md §5j): menu parsing,
// solver determinism and budget feasibility, family mixing on heterogeneous
// stats, the fallback ladder, the live policy controller, and the hot-swap
// bit-identity contract on the streaming engine.
#include "core/budget.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "comm/transports.h"
#include "comm/world.h"
#include "core/async_engine.h"
#include "core/engine.h"
#include "util/rng.h"

namespace cgx::core {
namespace {

// Transformer-like heterogeneity: a huge low-signal embedding, medium
// blocks, small high-signal layers (same shape as adaptive_test.cpp).
tensor::LayerLayout heterogeneous_layout() {
  tensor::LayerLayout layout;
  layout.add_layer("embed.weight", tensor::Shape{4000, 32});
  layout.add_layer("block0.w", tensor::Shape{128, 128});
  layout.add_layer("block1.w", tensor::Shape{128, 128});
  layout.add_layer("block2.w", tensor::Shape{96, 128});
  layout.add_layer("head.w", tensor::Shape{32, 100});
  layout.add_layer("small.w", tensor::Shape{16, 16});
  return layout;
}

GradStatsCollector collected_stats(const tensor::LayerLayout& layout,
                                   int steps = 5) {
  GradStatsCollector stats(layout);
  util::Rng rng(70);
  std::vector<float> fused(layout.total_numel());
  for (int s = 0; s < steps; ++s) {
    for (std::size_t l = 0; l < layout.layer_count(); ++l) {
      const auto& info = layout.layer(l);
      float scale = 1.0f;
      if (info.name.find("embed") != std::string::npos) scale = 0.02f;
      if (info.name.find("small") != std::string::npos) scale = 5.0f;
      if (info.name.find("head") != std::string::npos) scale = 2.0f;
      auto slice = layout.slice(std::span<float>(fused), l);
      for (auto& v : slice) {
        v = scale * static_cast<float>(rng.next_gaussian());
      }
    }
    stats.accumulate(fused);
  }
  return stats;
}

std::vector<bool> all_compressible(const tensor::LayerLayout& layout) {
  return std::vector<bool>(layout.layer_count(), true);
}

TEST(BudgetMenu, ParsesFullSpec) {
  const BudgetMenu menu =
      BudgetMenu::parse("qsgd:2,4;nuq:8;topk:0.001,0.01;dgc:off");
  EXPECT_EQ(menu.qsgd_bits, (std::vector<unsigned>{2, 4}));
  EXPECT_EQ(menu.nuq_bits, (std::vector<unsigned>{8}));
  EXPECT_EQ(menu.topk_ratios, (std::vector<double>{0.001, 0.01}));
  EXPECT_FALSE(menu.dgc);
  EXPECT_EQ(menu.candidate_count(), 5u);
}

TEST(BudgetMenu, EmptyFamilyDisablesAndUnknownKeysIgnored) {
  const BudgetMenu menu = BudgetMenu::parse("topk:;bogus:1,2;qsgd:3");
  EXPECT_TRUE(menu.topk_ratios.empty());
  EXPECT_EQ(menu.qsgd_bits, (std::vector<unsigned>{3}));
  // Families absent from the spec keep their defaults.
  EXPECT_EQ(menu.nuq_bits, (std::vector<unsigned>{2, 3, 4, 6, 8}));
  EXPECT_TRUE(menu.dgc);
}

TEST(BudgetPlanner, DeterministicForSeed) {
  const auto layout = heterogeneous_layout();
  const auto stats = collected_stats(layout);
  const BudgetPlanner planner;
  util::Rng rng_a(42);
  util::Rng rng_b(42);
  const BudgetPlan a = planner.solve(stats, all_compressible(layout), rng_a);
  const BudgetPlan b = planner.solve(stats, all_compressible(layout), rng_b);
  ASSERT_EQ(a.choice.size(), b.choice.size());
  for (std::size_t l = 0; l < a.choice.size(); ++l) {
    EXPECT_EQ(a.choice[l].method, b.choice[l].method) << l;
    EXPECT_EQ(a.choice[l].bits, b.choice[l].bits) << l;
    EXPECT_EQ(a.choice[l].topk_ratio, b.choice[l].topk_ratio) << l;
    EXPECT_EQ(a.choice[l].dgc, b.choice[l].dgc) << l;
  }
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.total_sq_error, b.total_sq_error);
}

TEST(BudgetPlanner, RespectsErrorBudgetAndShrinksWire) {
  const auto layout = heterogeneous_layout();
  const auto stats = collected_stats(layout);
  const BudgetPlanner planner;
  util::Rng rng(43);
  const BudgetPlan plan =
      planner.solve(stats, all_compressible(layout), rng);
  ASSERT_GT(plan.budget_sq, 0.0);
  EXPECT_LE(plan.total_sq_error, plan.budget_sq);
  EXPECT_GT(plan.wire_bytes, 0.0);
  EXPECT_LE(plan.wire_bytes, plan.reference_wire_bytes);
}

TEST(BudgetPlanner, MixesFamiliesOnHeterogeneousStats) {
  // The planner's reason to exist: the big low-signal embedding should go
  // to sparsification while the small high-signal layers stay quantized.
  const auto layout = heterogeneous_layout();
  const auto stats = collected_stats(layout);
  const BudgetPlanner planner;
  util::Rng rng(44);
  const BudgetPlan plan =
      planner.solve(stats, all_compressible(layout), rng);
  const std::size_t embed = layout.index_of("embed.weight");
  const std::size_t small = layout.index_of("small.w");
  EXPECT_EQ(plan.choice[embed].method, Method::TopK);
  EXPECT_TRUE(plan.choice[embed].dgc);
  EXPECT_NE(plan.choice[small].method, Method::TopK);
  // The legacy bits mirror stays within the quantization surface.
  EXPECT_EQ(plan.bits[embed], planner.options().reference_bits);
}

TEST(BudgetPlanner, TinyBudgetFallsBackToReference) {
  const auto layout = heterogeneous_layout();
  const auto stats = collected_stats(layout);
  PlannerOptions popts;
  popts.alpha = 1e-4;  // nothing in the menu fits: every layer pins
  const BudgetPlanner planner(popts);
  util::Rng rng(45);
  const BudgetPlan plan =
      planner.solve(stats, all_compressible(layout), rng);
  for (std::size_t l = 0; l < layout.layer_count(); ++l) {
    EXPECT_EQ(plan.choice[l].method, Method::Qsgd) << l;
    EXPECT_EQ(plan.choice[l].bits, popts.reference_bits) << l;
  }
}

TEST(DpAssigner, CompressesAtLeastAsHardAsKmeans) {
  const auto layout = heterogeneous_layout();
  const auto stats = collected_stats(layout);
  AdaptiveOptions options;
  KMeansAssigner kmeans;
  DpAssigner dp;
  util::Rng rng_k(46);
  util::Rng rng_d(46);
  const Assignment ak =
      kmeans.assign(stats, all_compressible(layout), options, rng_k);
  const Assignment ad =
      dp.assign(stats, all_compressible(layout), options, rng_d);

  // Apply both to engines and compare actual per-rank egress.
  CgxEngine km_engine(layout, CompressionConfig::cgx_default(), 4);
  CgxEngine dp_engine(layout, CompressionConfig::cgx_default(), 4);
  apply_assignment(ak, layout, km_engine.config(), options.bucket_size);
  apply_assignment(ad, layout, dp_engine.config(), options.bucket_size);
  km_engine.rebuild();
  dp_engine.rebuild();
  const double km_wire = km_engine.wire_bytes_per_rank();
  const double dp_wire = dp_engine.wire_bytes_per_rank();
  EXPECT_LE(dp_wire, km_wire);
  // And the cached telemetry agrees with the on-demand computation.
  EXPECT_EQ(dp_engine.cached_wire_bytes(), dp_wire);
}

TEST(PolicyController, ReplanAppliesChoiceAndResetsStats) {
  const auto layout = heterogeneous_layout();
  DpAssigner dp;
  PolicyController controller(layout, dp, 10, 123);

  util::Rng grad_rng(70);
  std::vector<float> fused(layout.total_numel());
  const auto stats_src = collected_stats(layout);
  for (int s = 0; s < 5; ++s) {
    for (std::size_t l = 0; l < layout.layer_count(); ++l) {
      const auto& info = layout.layer(l);
      float scale = 1.0f;
      if (info.name.find("embed") != std::string::npos) scale = 0.02f;
      if (info.name.find("small") != std::string::npos) scale = 5.0f;
      auto slice = layout.slice(std::span<float>(fused), l);
      for (auto& v : slice) {
        v = scale * static_cast<float>(grad_rng.next_gaussian());
      }
    }
    controller.observe_step(fused);
  }
  EXPECT_FALSE(controller.due(5));   // not a period boundary
  EXPECT_TRUE(controller.due(10));
  EXPECT_FALSE(controller.due(0));

  CgxEngine engine(layout, CompressionConfig::cgx_default(), 4);
  AdaptiveOptions options;
  const double before = engine.cached_wire_bytes();
  const Assignment a = controller.replan(10, all_compressible(layout),
                                         options, engine.config(), 0.0);
  engine.rebuild();
  EXPECT_FALSE(a.choice.empty());
  EXPECT_LT(engine.cached_wire_bytes(), before);
  EXPECT_EQ(controller.stats().steps(), 0u) << "stats window must reset";
  EXPECT_FALSE(controller.due(20)) << "no observations since the replan";
}

TEST(PolicyController, ResidualRunawayRetiresMostAggressiveDensity) {
  const auto layout = heterogeneous_layout();
  DpAssigner dp;
  ASSERT_EQ(dp.menu().topk_ratios.size(), 3u);
  const double smallest =
      *std::min_element(dp.menu().topk_ratios.begin(),
                        dp.menu().topk_ratios.end());
  PolicyController controller(layout, dp, 10, 123);
  CgxEngine engine(layout, CompressionConfig::cgx_default(), 4);
  AdaptiveOptions options;
  std::vector<float> fused(layout.total_numel(), 0.5f);

  controller.observe_step(fused);
  controller.replan(10, all_compressible(layout), options, engine.config(),
                    1.0);
  controller.observe_step(fused);
  // Residual norm stayed bounded: the menu is untouched.
  controller.replan(20, all_compressible(layout), options, engine.config(),
                    1.5);
  EXPECT_EQ(dp.menu().topk_ratios.size(), 3u);
  controller.observe_step(fused);
  // Residual more than doubled: the smallest density must be gone.
  controller.replan(30, all_compressible(layout), options, engine.config(),
                    4.0);
  EXPECT_EQ(dp.menu().topk_ratios.size(), 2u);
  EXPECT_EQ(std::count(dp.menu().topk_ratios.begin(),
                       dp.menu().topk_ratios.end(), smallest),
            0);
}

TEST(HotSwap, UnchangedLayersStayBitIdenticalOnStreamingEngine) {
  // The differential-rebuild contract under a live policy swap: layers whose
  // policy did not change keep their compressors, arenas, and — on the
  // streaming engine, whose per-bucket rng streams are split independently —
  // their exact reduced values. Small bucket_bytes puts every layer in its
  // own bucket so the swapped layer shares nothing with the others.
  constexpr int kWorld = 2;
  constexpr int kSteps = 6;
  constexpr int kSwapAfter = 3;
  tensor::LayerLayout layout;
  layout.add_layer("l0", tensor::Shape{40, 32});
  layout.add_layer("l1", tensor::Shape{30, 32});
  layout.add_layer("l2", tensor::Shape{20, 32});

  const auto grad_for = [&](int rank, int step) {
    util::Rng rng(1000 + static_cast<std::uint64_t>(rank) * 100 +
                  static_cast<std::uint64_t>(step));
    std::vector<float> grad(layout.total_numel());
    for (auto& v : grad) v = static_cast<float>(rng.next_gaussian());
    return grad;
  };

  // run(swap): per step, the post-wait_all reduced slices of l1 and l2.
  const auto run = [&](bool swap) {
    AsyncOptions aopts;
    aopts.bucket_bytes = std::size_t{2} << 10;  // < any layer: no fusion
    AsyncGradientEngine engine(
        std::make_unique<CgxEngine>(layout, CompressionConfig::cgx_default(),
                                    kWorld),
        aopts);
    std::vector<std::vector<float>> reduced(kSteps);
    comm::ShmTransport transport(kWorld);
    comm::run_world(transport, [&](comm::Comm& comm) {
      const int rank = comm.rank();
      util::Rng rng(9300 + static_cast<std::uint64_t>(rank));
      for (int s = 0; s < kSteps; ++s) {
        if (s == kSwapAfter) {
          comm.barrier();
          if (rank == 0 && swap) {
            LayerCompression cfg;
            cfg.method = Method::TopK;
            cfg.topk_ratio = 0.01;
            cfg.dgc = true;
            engine.inner().config().set_layer_exact("l0", cfg);
            engine.rebuild();
          }
          comm.barrier();
        }
        std::vector<float> grad = grad_for(rank, s);
        engine.begin_step(comm, grad, rng);
        for (std::size_t l = layout.layer_count(); l-- > 0;) {
          engine.notify_layer_ready(rank, l);
        }
        engine.wait_all(rank);
        if (rank == 0) {
          const auto l1 = layout.slice(std::span<const float>(grad), 1);
          const auto l2 = layout.slice(std::span<const float>(grad), 2);
          reduced[static_cast<std::size_t>(s)].assign(l1.begin(), l1.end());
          reduced[static_cast<std::size_t>(s)].insert(
              reduced[static_cast<std::size_t>(s)].end(), l2.begin(),
              l2.end());
        }
        comm.barrier();
      }
    });
    return reduced;
  };

  const auto baseline = run(false);
  const auto swapped = run(true);
  for (int s = 0; s < kSteps; ++s) {
    ASSERT_EQ(baseline[static_cast<std::size_t>(s)].size(),
              swapped[static_cast<std::size_t>(s)].size());
    EXPECT_EQ(0, std::memcmp(baseline[static_cast<std::size_t>(s)].data(),
                             swapped[static_cast<std::size_t>(s)].data(),
                             baseline[static_cast<std::size_t>(s)].size() *
                                 sizeof(float)))
        << "step " << s
        << ": unchanged layers diverged across the policy hot-swap";
  }
}

}  // namespace
}  // namespace cgx::core
