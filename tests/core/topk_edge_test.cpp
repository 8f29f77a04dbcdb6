// TopK edge cases and the DGC operator's semantics (`ctest -L adaptive`).
//
// Covers the corners the adaptive planner now routinely exercises: ratio
// rounding at tiny n, deterministic tie-breaking, EF round-trips that must
// be bit-identical across SIMD levels (the in-process analogue of the
// CGX_SIMD=off|auto presets), and DgcTopK's momentum/clipping/masking
// recurrence checked against a hand-rolled reference.
#include "core/topk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/error_feedback.h"
#include "simd_levels.h"
#include "util/rng.h"
#include "util/simd.h"

namespace cgx::core {
namespace {

TEST(TopKEdge, RatioRoundingAtTinyN) {
  TopKCompressor tiny(0.001);
  // k = clamp(ceil(ratio * n), 1, n): never 0 for non-empty input, even
  // when ratio * n rounds far below one element.
  EXPECT_EQ(tiny.k_for(1), 1u);
  EXPECT_EQ(tiny.k_for(5), 1u);
  EXPECT_EQ(tiny.k_for(999), 1u);
  EXPECT_EQ(tiny.k_for(1001), 2u);
  // n == 0 is the only k == 0 case, and it round-trips as an empty payload.
  EXPECT_EQ(tiny.k_for(0), 0u);
  EXPECT_EQ(tiny.compressed_size(0), 0u);

  TopKCompressor all(1.0);
  EXPECT_EQ(all.k_for(7), 7u);  // k == n: dense send, still valid

  TopKCompressor half(0.5);
  EXPECT_EQ(half.k_for(3), 2u);  // ceil(1.5)
}

TEST(TopKEdge, EmptyInputRoundTrip) {
  TopKCompressor topk(0.1);
  util::Rng rng(1);
  EXPECT_EQ(topk.compress({}, {}, rng), 0u);
  std::vector<float> out(4, 7.0f);
  topk.decompress({}, out);
  for (float v : out) EXPECT_EQ(v, 0.0f);
}

TEST(TopKEdge, DenseSendIsLossless) {
  TopKCompressor topk(1.0);
  util::Rng rng(2);
  const std::vector<float> in = {0.5f, -1.0f, 0.0f, 3.25f, -0.125f};
  std::vector<std::byte> payload(topk.compressed_size(in.size()));
  const std::size_t written = topk.compress(in, payload, rng);
  EXPECT_EQ(written, payload.size());
  std::vector<float> out(in.size());
  topk.decompress(payload, out);
  EXPECT_EQ(in, out);  // k == n keeps every element exactly
}

TEST(TopKEdge, TiedMagnitudesPickLowestIndicesDeterministically) {
  // All-equal |v|: the tie-break (lower index wins) must make the selection
  // and the payload bytes fully deterministic.
  TopKCompressor topk(0.5);
  util::Rng rng(3);
  const std::vector<float> in = {1.0f, -1.0f, 1.0f, -1.0f,
                                 1.0f, -1.0f, 1.0f, -1.0f};
  std::vector<std::byte> a(topk.compressed_size(in.size()));
  std::vector<std::byte> b(a.size());
  ASSERT_EQ(topk.compress(in, a, rng), a.size());
  ASSERT_EQ(topk.compress(in, b, rng), b.size());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size()));

  std::uint64_t k64 = 0;
  std::memcpy(&k64, a.data(), 8);
  ASSERT_EQ(k64, 4u);
  const auto* indices = reinterpret_cast<const std::uint32_t*>(a.data() + 8);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(indices[i], i);  // the first four tied elements, in order
  }
}

TEST(TopKEdge, ErrorFeedbackRoundTripBitIdenticalAcrossSimdLevels) {
  // The adaptive presets run the suite under CGX_SIMD=off and =auto and
  // expect identical results; in-process we pin the level around each run.
  // EF's fused sweeps (gradient + decay * residual, residual update) are
  // elementwise kernels with a bit-identity contract across levels.
  constexpr std::size_t kN = 257;  // off the vector-width grid on purpose
  constexpr int kSteps = 6;

  std::vector<std::vector<float>> recon_per_level;
  std::vector<double> residual_per_level;
  for (util::simd::Level level : test::simd_levels()) {
    test::ScopedLevel pin(level);
    ErrorFeedback ef(std::make_unique<TopKCompressor>(0.05));
    util::Rng grad_rng(99);
    util::Rng rng(4);
    std::vector<float> grad(kN);
    std::vector<std::byte> payload(ef.compressed_size(kN));
    std::vector<float> recon(kN);
    for (int s = 0; s < kSteps; ++s) {
      for (auto& v : grad) v = static_cast<float>(grad_rng.next_gaussian());
      const std::size_t written = ef.compress(grad, payload, rng);
      ef.decompress({payload.data(), written}, recon);
    }
    recon_per_level.push_back(recon);
    residual_per_level.push_back(ef.residual_norm());
  }

  // recon_per_level[0] is the scalar level, the specification.
  for (std::size_t l = 1; l < recon_per_level.size(); ++l) {
    EXPECT_EQ(0, std::memcmp(recon_per_level[0].data(),
                             recon_per_level[l].data(), kN * sizeof(float)))
        << util::simd::level_name(test::simd_levels()[l]);
    EXPECT_EQ(residual_per_level[0], residual_per_level[l]);
  }
}

// Reference implementation of the DGC recurrence (clip -> momentum ->
// velocity -> top-k mask), kept deliberately naive.
struct DgcReference {
  float momentum;
  double clip;
  double norm_ema = 0.0;
  std::vector<float> u, v;

  std::vector<float> step(const std::vector<float>& g, std::size_t k) {
    const std::size_t n = g.size();
    if (u.size() != n) {
      u.assign(n, 0.0f);
      v.assign(n, 0.0f);
      norm_ema = 0.0;
    }
    double norm_sq = 0.0;
    for (float x : g) norm_sq += static_cast<double>(x) * x;
    const double norm = std::sqrt(norm_sq);
    float scale = 1.0f;
    if (clip > 0.0 && norm_ema > 0.0 && norm > clip * norm_ema) {
      scale = static_cast<float>(clip * norm_ema / norm);
    }
    norm_ema = norm_ema == 0.0 ? norm : 0.9 * norm_ema + 0.1 * norm;
    for (std::size_t i = 0; i < n; ++i) {
      u[i] = momentum * u[i] + scale * g[i];
      v[i] += u[i];
    }
    // Top-k of |v|, ties to the lower index; emit dense, zero u/v at sent.
    std::vector<std::uint32_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const float fa = std::fabs(v[a]);
                const float fb = std::fabs(v[b]);
                if (fa != fb) return fa > fb;
                return a < b;
              });
    std::vector<float> dense(n, 0.0f);
    for (std::size_t i = 0; i < k; ++i) {
      dense[order[i]] = v[order[i]];
      u[order[i]] = 0.0f;
      v[order[i]] = 0.0f;
    }
    return dense;
  }
};

TEST(DgcTopK, MatchesReferenceRecurrence) {
  constexpr std::size_t kN = 16;
  DgcTopK dgc(0.125, 0.9f, 2.5);  // k = 2
  DgcReference ref{0.9f, 2.5};
  util::Rng grad_rng(41);
  util::Rng rng(5);
  std::vector<float> grad(kN);
  std::vector<std::byte> payload(dgc.compressed_size(kN));
  std::vector<float> recon(kN);
  for (int s = 0; s < 10; ++s) {
    for (auto& g : grad) g = static_cast<float>(grad_rng.next_gaussian());
    if (s == 7) {
      // Outlier step: 50x the usual norm, must trip the local clipping.
      for (auto& g : grad) g *= 50.0f;
    }
    const std::size_t written = dgc.compress(grad, payload, rng);
    dgc.decompress({payload.data(), written}, recon);
    const std::vector<float> expected = ref.step(grad, 2);
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_FLOAT_EQ(recon[i], expected[i]) << "step " << s << " i " << i;
    }
  }
  // Residual telemetry agrees with the reference's unsent velocity.
  double ref_sq = 0.0;
  for (float x : ref.v) ref_sq += static_cast<double>(x) * x;
  EXPECT_NEAR(dgc.residual_norm(), std::sqrt(ref_sq), 1e-6);
}

TEST(DgcTopK, DelayedCoordinateShipsAccumulatedMomentumSum) {
  // DGC's point: a coordinate withheld for T steps ships the same
  // momentum-weighted sum it would have contributed densely. g is constant
  // with one dominant coordinate, k = 1: index 1 accumulates until its
  // velocity overtakes the dominant one.
  constexpr std::size_t kN = 4;
  DgcTopK dgc(0.25, 0.9f, 0.0);  // k = 1, clipping off
  util::Rng rng(6);
  const std::vector<float> grad = {3.0f, 1.0f, 0.0f, 0.0f};
  std::vector<std::byte> payload(dgc.compressed_size(kN));
  std::vector<float> recon(kN);

  double u1 = 0.0, v1 = 0.0;  // dense reference for coordinate 1
  int shipped_at = -1;
  float shipped_value = 0.0f;
  for (int s = 0; s < 6 && shipped_at < 0; ++s) {
    u1 = 0.9 * u1 + 1.0;
    v1 += u1;
    const std::size_t written = dgc.compress(grad, payload, rng);
    dgc.decompress({payload.data(), written}, recon);
    if (recon[1] != 0.0f) {
      shipped_at = s;
      shipped_value = recon[1];
    } else {
      EXPECT_EQ(recon[0], 3.0f) << "dominant coordinate re-ships each step";
    }
  }
  ASSERT_GE(shipped_at, 1) << "coordinate 1 should be withheld at first";
  EXPECT_FLOAT_EQ(shipped_value, static_cast<float>(v1))
      << "withheld coordinate must carry the full momentum-corrected sum";
}

TEST(DgcTopK, FirstStepPayloadMatchesPlainTopKWireFormat) {
  // Zero state, EMA unseeded (no clip): step one is u = g, v = g, so the
  // payload must be byte-identical to plain TopK on the same input — the
  // wire-format compatibility the collectives and hierarchical
  // re-compression rely on.
  constexpr std::size_t kN = 32;
  DgcTopK dgc(0.25, 0.9f, 2.5);
  TopKCompressor plain(0.25);
  util::Rng grad_rng(17);
  util::Rng rng(7);
  std::vector<float> grad(kN);
  for (auto& g : grad) g = static_cast<float>(grad_rng.next_gaussian());
  ASSERT_EQ(dgc.compressed_size(kN), plain.compressed_size(kN));
  std::vector<std::byte> a(dgc.compressed_size(kN));
  std::vector<std::byte> b(a.size());
  ASSERT_EQ(dgc.compress(grad, a, rng), a.size());
  ASSERT_EQ(plain.compress(grad, b, rng), b.size());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size()));

  // And either side can decode the other's payload.
  std::vector<float> out(kN);
  plain.decompress(a, out);
  std::vector<float> expected(kN);
  dgc.decompress(b, expected);
  EXPECT_EQ(out, expected);
}

TEST(DgcTopK, ConvergesNoWorseThanPlainTopKWithEf) {
  // Convergence smoke on a strongly-convex toy: minimize 0.5||x - x*||^2
  // with compressed gradients. Both the EF-wrapped plain top-k and DGC must
  // drive the error way down; DGC must not diverge from its momentum.
  // DGC folds the optimizer's momentum into the compressor, so its
  // accumulated sends are amplified by ~1/(1-m) relative to the raw
  // gradient; the learning rate is chosen so that even with that
  // amplification and the top-k withholding delay the quadratic stays in
  // the stable regime for both operators.
  constexpr std::size_t kN = 128;
  constexpr double kLr = 0.02;
  constexpr float kMomentum = 0.5f;
  constexpr double kRatio = 0.1;
  constexpr int kIters = 800;
  util::Rng init_rng(23);
  std::vector<float> target(kN);
  for (auto& t : target) t = static_cast<float>(init_rng.next_gaussian());

  const auto run = [&](Compressor& comp) {
    std::vector<float> x(kN, 0.0f);
    std::vector<float> grad(kN);
    std::vector<float> update(kN);
    std::vector<std::byte> payload(comp.compressed_size(kN));
    util::Rng rng(8);
    for (int it = 0; it < kIters; ++it) {
      for (std::size_t i = 0; i < kN; ++i) grad[i] = x[i] - target[i];
      const std::size_t written = comp.compress(grad, payload, rng);
      comp.decompress({payload.data(), written}, update);
      for (std::size_t i = 0; i < kN; ++i) {
        x[i] -= static_cast<float>(kLr) * update[i];
      }
    }
    double err = 0.0;
    for (std::size_t i = 0; i < kN; ++i) {
      err += static_cast<double>(x[i] - target[i]) * (x[i] - target[i]);
    }
    return std::sqrt(err);
  };

  double initial = 0.0;
  for (float t : target) initial += static_cast<double>(t) * t;
  initial = std::sqrt(initial);

  ErrorFeedback plain(std::make_unique<TopKCompressor>(kRatio));
  DgcTopK dgc(kRatio, kMomentum, 2.5);
  const double plain_err = run(plain);
  const double dgc_err = run(dgc);
  EXPECT_LT(plain_err, 0.2 * initial);
  EXPECT_LT(dgc_err, 0.2 * initial);
  EXPECT_LT(dgc_err, std::max(2.0 * plain_err, 0.05 * initial))
      << "momentum correction should keep DGC competitive with plain EF";
}

}  // namespace
}  // namespace cgx::core
