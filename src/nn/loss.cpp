#include "nn/loss.h"

#include <cmath>
#include <limits>
#include <vector>

#include "util/check.h"
#include "util/simd.h"

namespace cgx::nn {

SoftmaxCrossEntropy::SoftmaxCrossEntropy(std::size_t classes)
    : classes_(classes) {
  CGX_CHECK_GT(classes, 1u);
}

namespace {

// Rows up to this many classes keep their exps on the stack; wider heads
// use a grow-once per-thread row. No call allocates after a thread's first
// call on its widest head.
constexpr std::size_t kStackClasses = 4096;

double* wide_row(std::size_t classes) {
  thread_local std::vector<double> row;
  if (row.size() < classes) row.resize(classes);
  return row.data();
}

}  // namespace

double softmax_xent(const tensor::Tensor& logits, std::span<const int> targets,
                    std::size_t classes, tensor::Tensor& grad) {
  CGX_CHECK_GT(classes, 1u);
  CGX_CHECK_EQ(logits.numel() % classes, 0u);
  const std::size_t rows = logits.numel() / classes;
  CGX_CHECK_EQ(targets.size(), rows);
  grad.reset(logits.shape());  // every element is written below
  const auto in = logits.data();
  auto g = grad.data();
  double stack_row[kStackClasses];
  const std::span<double> e{
      classes <= kStackClasses ? stack_row : wide_row(classes), classes};
  double total = 0.0;
  const float inv_rows = 1.0f / static_cast<float>(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::span<const float> row = in.subspan(r * classes, classes);
    const std::span<float> grow = g.subspan(r * classes, classes);
    // Three passes. The max skips a NaN logit, but that logit's own exp
    // is NaN and carries into the sum, so the loss stays non-finite; a
    // +inf max gives inf - inf = NaN the same way. A -inf logit under a
    // finite max gets exp(-inf) = +0.
    const double max_logit = util::simd::reduce_max(
        row, -std::numeric_limits<float>::infinity());
    const double denom = util::simd::exp_sum(row, max_logit, e);
    const auto target = static_cast<std::size_t>(targets[r]);
    CGX_DCHECK(target < classes);
    total += std::log(denom) - (static_cast<double>(row[target]) - max_logit);
    // p = exp / denom rounds to float once; the target's p then loses 1.
    const double inv_denom = 1.0 / denom;
    for (std::size_t c = 0; c < classes; ++c) {
      grow[c] = static_cast<float>(e[c] * inv_denom) * inv_rows;
    }
    grow[target] =
        (static_cast<float>(e[target] * inv_denom) - 1.0f) * inv_rows;
  }
  return total / static_cast<double>(rows);
}

double SoftmaxCrossEntropy::accuracy(const tensor::Tensor& logits,
                                     std::span<const int> targets,
                                     std::size_t classes) {
  const std::size_t rows = logits.numel() / classes;
  CGX_CHECK_EQ(targets.size(), rows);
  const auto in = logits.data();
  std::size_t correct = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = &in[r * classes];
    std::size_t best = 0;
    for (std::size_t c = 1; c < classes; ++c) {
      if (row[c] > row[best]) best = c;
    }
    if (best == static_cast<std::size_t>(targets[r])) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(rows);
}

double SoftmaxCrossEntropy::perplexity(double mean_loss) {
  return std::exp(mean_loss);
}

double mse(const tensor::Tensor& pred, const tensor::Tensor& target,
           tensor::Tensor& grad) {
  CGX_CHECK_EQ(pred.numel(), target.numel());
  grad.reset(pred.shape());
  const auto p = pred.data();
  const auto t = target.data();
  auto g = grad.data();
  double total = 0.0;
  const float scale = 2.0f / static_cast<float>(pred.numel());
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double d = static_cast<double>(p[i]) - t[i];
    total += d * d;
    g[i] = static_cast<float>(d) * scale;
  }
  return total / static_cast<double>(pred.numel());
}

}  // namespace cgx::nn
