// The softmax cross-entropy's non-finite contract, at every CGX_SIMD level:
//   - a NaN or +Inf logit anywhere in a row makes the mean loss non-finite
//     (perfbench's losses_finite gate and the trainers' step rejection rely
//     on it, so a max or clamp pass must never swallow the NaN);
//   - a -Inf logit gets probability exactly 0: its gradient is +0 and the
//     loss stays finite, as long as the target's logit is finite.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "nn/loss.h"
#include "simd_levels.h"
#include "tensor/tensor.h"
#include "util/simd.h"

namespace cgx::nn {
namespace {

namespace simd = util::simd;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

using test::ScopedLevel;

// Two rows of `classes` logits: row 0 ordinary, row 1 carrying `special` at
// column `at`. Targets are column 1 in both rows.
struct Case {
  std::size_t classes;
  std::size_t at;
  float special;
};

double run_case(const Case& c, tensor::Tensor& grad) {
  tensor::Tensor logits(tensor::Shape{2, c.classes});
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    logits.at(i) = 0.25f * static_cast<float>(i % 7) - 0.5f;
  }
  logits.at(c.classes + c.at) = c.special;
  const int targets[] = {1, 1};
  return softmax_xent(logits, targets, c.classes, grad);
}

TEST(SoftmaxXent, NaNAndPlusInfLogitsGiveANonFiniteLoss) {
  for (simd::Level l : test::simd_levels()) {
    ScopedLevel lvl(l);
    for (std::size_t classes : {2u, 10u, 37u, 2048u}) {
      for (std::size_t at : {std::size_t{0}, std::size_t{1}, classes - 1}) {
        for (float special : {kNaN, -kNaN, kInf}) {
          SCOPED_TRACE(::testing::Message()
                       << simd::level_name(l) << " classes=" << classes
                       << " at=" << at << " logit=" << special);
          tensor::Tensor grad;
          EXPECT_FALSE(std::isfinite(run_case({classes, at, special}, grad)));
        }
      }
    }
  }
}

TEST(SoftmaxXent, MinusInfLogitGetsZeroProbabilityAndAFiniteLoss) {
  for (simd::Level l : test::simd_levels()) {
    ScopedLevel lvl(l);
    for (std::size_t classes : {2u, 10u, 37u, 2048u}) {
      // Column 1 is the target, so -Inf goes everywhere else.
      for (std::size_t at : {std::size_t{0}, classes - 1}) {
        if (at == 1) continue;
        SCOPED_TRACE(::testing::Message()
                     << simd::level_name(l) << " classes=" << classes
                     << " at=" << at);
        tensor::Tensor grad;
        const double loss = run_case({classes, at, -kInf}, grad);
        EXPECT_TRUE(std::isfinite(loss));
        const float g = grad.at(classes + at);
        EXPECT_EQ(g, 0.0f);
        EXPECT_FALSE(std::signbit(g));
        for (float v : grad.data()) EXPECT_TRUE(std::isfinite(v));
      }
    }
  }
}

// The gradient of each row sums to zero (softmax minus one-hot) and a row
// of equal logits gets the uniform distribution.
TEST(SoftmaxXent, UniformRowAndZeroSumGradient) {
  for (simd::Level l : test::simd_levels()) {
    ScopedLevel lvl(l);
    for (std::size_t classes : {2u, 10u, 2048u}) {
      SCOPED_TRACE(::testing::Message() << simd::level_name(l)
                                        << " classes=" << classes);
      tensor::Tensor logits(tensor::Shape{1, classes}, 3.0f);
      const int target[] = {0};
      tensor::Tensor grad;
      const double loss = softmax_xent(logits, target, classes, grad);
      EXPECT_NEAR(loss, std::log(static_cast<double>(classes)), 1e-12);
      double sum = 0.0;
      for (float v : grad.data()) sum += v;
      EXPECT_NEAR(sum, 0.0, 1e-6);
      EXPECT_NEAR(grad.at(1), 1.0 / static_cast<double>(classes), 1e-7);
    }
  }
}

}  // namespace
}  // namespace cgx::nn
