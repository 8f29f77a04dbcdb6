#include "core/adaptive.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/engine.h"
#include "util/rng.h"

namespace cgx::core {
namespace {

// A layout with strongly heterogeneous layers (Transformer-XL-like): a huge
// low-signal embedding, medium blocks, small sensitive layers.
tensor::LayerLayout heterogeneous_layout() {
  tensor::LayerLayout layout;
  layout.add_layer("embed.weight", tensor::Shape{4000, 32});  // 128k
  layout.add_layer("block0.w", tensor::Shape{128, 128});      // 16k
  layout.add_layer("block1.w", tensor::Shape{128, 128});
  layout.add_layer("block2.w", tensor::Shape{96, 128});
  layout.add_layer("head.w", tensor::Shape{32, 100});         // 3.2k
  layout.add_layer("small.w", tensor::Shape{16, 16});         // 256
  return layout;
}

// Gradients: embedding has a LOW per-element magnitude (naturally sparse),
// small layers have a HIGH one — the heterogeneity §5 exploits.
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

TEST(GradStats, AccumulatesAcrossSteps) {
  tensor::LayerLayout layout;
  layout.add_layer("a", 4u);
  GradStatsCollector stats(layout);
  std::vector<float> g = {1, 1, 1, 1};
  stats.accumulate(g);
  stats.accumulate(g);
  EXPECT_EQ(stats.steps(), 2u);
  EXPECT_NEAR(stats.accumulated_norm(0), 4.0, 1e-6);  // ||(2,2,2,2)||
  stats.reset();
  EXPECT_EQ(stats.steps(), 0u);
  EXPECT_EQ(stats.accumulated_norm(0), 0.0);
}

TEST(Kmeans2d, SeparatesObviousClusters) {
  std::vector<std::pair<double, double>> pts;
  for (int i = 0; i < 10; ++i) pts.push_back({0.0 + i * 0.01, 0.0});
  for (int i = 0; i < 10; ++i) pts.push_back({10.0 + i * 0.01, 10.0});
  util::Rng rng(1);
  std::vector<std::pair<double, double>> centroids;
  const auto assign = kmeans_2d(pts, 2, rng, &centroids);
  EXPECT_EQ(centroids.size(), 2u);
  // All of the first ten in one cluster, all of the last ten in the other.
  for (int i = 1; i < 10; ++i) EXPECT_EQ(assign[i], assign[0]);
  for (int i = 11; i < 20; ++i) EXPECT_EQ(assign[i], assign[10]);
  EXPECT_NE(assign[0], assign[10]);
}

TEST(Kmeans2d, KClampedToPointCount) {
  std::vector<std::pair<double, double>> pts = {{0, 0}, {1, 1}};
  util::Rng rng(2);
  std::vector<std::pair<double, double>> centroids;
  const auto assign = kmeans_2d(pts, 5, rng, &centroids);
  EXPECT_EQ(assign.size(), 2u);
  EXPECT_LE(centroids.size(), 2u);
}

class AssignerTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<Assigner> make() {
    switch (GetParam()) {
      case 0:
        return std::make_unique<KMeansAssigner>();
      case 1:
        return std::make_unique<LinearAssigner>();
      default:
        return std::make_unique<BayesAssigner>(20);
    }
  }
};

TEST_P(AssignerTest, HonoursErrorBudget) {
  const auto layout = heterogeneous_layout();
  const auto stats = collected_stats(layout);
  AdaptiveOptions options;
  util::Rng rng(3);
  auto assigner = make();
  const Assignment a =
      assigner->assign(stats, all_compressible(layout), options, rng);
  EXPECT_LE(a.measured_error, options.alpha * a.reference_error * 1.02)
      << assigner->name();
}

TEST_P(AssignerTest, UsesOnlyCandidateBits) {
  const auto layout = heterogeneous_layout();
  const auto stats = collected_stats(layout);
  AdaptiveOptions options;
  util::Rng rng(4);
  auto assigner = make();
  const Assignment a =
      assigner->assign(stats, all_compressible(layout), options, rng);
  const std::set<unsigned> candidates(options.candidate_bits.begin(),
                                      options.candidate_bits.end());
  for (unsigned b : a.bits) {
    EXPECT_TRUE(candidates.count(b)) << "bits " << b;
  }
}

TEST_P(AssignerTest, SkipsNonCompressibleLayers) {
  const auto layout = heterogeneous_layout();
  const auto stats = collected_stats(layout);
  std::vector<bool> compressible(layout.layer_count(), true);
  compressible[layout.index_of("small.w")] = false;
  AdaptiveOptions options;
  util::Rng rng(5);
  auto assigner = make();
  const Assignment a = assigner->assign(stats, compressible, options, rng);
  EXPECT_EQ(a.bits[layout.index_of("small.w")], 0u);
}

TEST_P(AssignerTest, CompressesLargeLowSignalLayerHardest) {
  // §5/§6.2: the automated procedure identifies large low-sensitivity
  // layers (embeddings) for lower bit-widths.
  const auto layout = heterogeneous_layout();
  const auto stats = collected_stats(layout);
  AdaptiveOptions options;
  util::Rng rng(6);
  auto assigner = make();
  const Assignment a =
      assigner->assign(stats, all_compressible(layout), options, rng);
  const unsigned embed_bits = a.bits[layout.index_of("embed.weight")];
  const unsigned small_bits = a.bits[layout.index_of("small.w")];
  EXPECT_LE(embed_bits, small_bits) << assigner->name();
}

TEST_P(AssignerTest, BeatsOrMatchesUniformSize) {
  const auto layout = heterogeneous_layout();
  const auto stats = collected_stats(layout);
  AdaptiveOptions options;
  util::Rng rng(7);
  auto assigner = make();
  const Assignment a =
      assigner->assign(stats, all_compressible(layout), options, rng);
  // The whole point: smaller gradient payload than uniform 4-bit.
  EXPECT_LE(a.relative_size, 1.0) << assigner->name();
}

std::string assigner_name(const ::testing::TestParamInfo<int>& info) {
  const char* names[] = {"KMeans", "Linear", "Bayes"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllAssigners, AssignerTest,
                         ::testing::Values(0, 1, 2), assigner_name);

TEST(KMeansAssigner, FindsMoreCompressionThanLinear) {
  // Table 7: KMEANS 0.68 relative size vs Linear 0.53... note the paper's
  // "Compression" column is relative *size reduction* where KMEANS achieves
  // the best speedup with the lowest error. Here we assert the robust
  // ordering: kmeans compresses at least as aggressively as linear while
  // meeting the same error budget.
  const auto layout = heterogeneous_layout();
  const auto stats = collected_stats(layout);
  AdaptiveOptions options;
  util::Rng rng(8);
  KMeansAssigner kmeans;
  LinearAssigner linear;
  const Assignment ak =
      kmeans.assign(stats, all_compressible(layout), options, rng);
  const Assignment al =
      linear.assign(stats, all_compressible(layout), options, rng);
  EXPECT_LE(ak.measured_error, options.alpha * ak.reference_error * 1.02);
  EXPECT_LE(al.measured_error, options.alpha * al.reference_error * 1.02);
  // Both shrink the payload; kmeans should not be (much) worse.
  EXPECT_LE(ak.relative_size, al.relative_size + 0.15);
}

TEST(ApplyAssignment, UpdatesEngineConfig) {
  const auto layout = heterogeneous_layout();
  const auto stats = collected_stats(layout);
  AdaptiveOptions options;
  util::Rng rng(9);
  KMeansAssigner assigner;
  const Assignment a =
      assigner.assign(stats, all_compressible(layout), options, rng);

  CgxEngine engine(layout, CompressionConfig::cgx_default(), 4);
  const double before = engine.wire_bytes_per_rank();
  apply_assignment(a, layout, engine.config(), options.bucket_size);
  engine.rebuild();
  const double after = engine.wire_bytes_per_rank();
  EXPECT_LE(after, before * 1.05);
  // The specific layer bits took effect.
  for (std::size_t l = 0; l < layout.layer_count(); ++l) {
    if (a.bits[l] == 0) continue;
    EXPECT_EQ(engine.resolved()[l].bits, a.bits[l])
        << layout.layer(l).name;
  }
}

TEST(MeasuredError, MonotoneInBits) {
  const auto layout = heterogeneous_layout();
  const auto stats = collected_stats(layout);
  util::Rng rng(10);
  const auto compressible = all_compressible(layout);
  std::vector<unsigned> coarse(layout.layer_count(), 2u);
  std::vector<unsigned> fine(layout.layer_count(), 8u);
  const double coarse_err =
      measured_assignment_error(stats, compressible, coarse, 128, rng);
  const double fine_err =
      measured_assignment_error(stats, compressible, fine, 128, rng);
  EXPECT_LT(fine_err, coarse_err);
}

}  // namespace
}  // namespace cgx::core
