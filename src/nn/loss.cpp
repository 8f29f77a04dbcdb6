#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace cgx::nn {

SoftmaxCrossEntropy::SoftmaxCrossEntropy(std::size_t classes)
    : classes_(classes) {
  CGX_CHECK_GT(classes, 1u);
}

double softmax_xent(const tensor::Tensor& logits, std::span<const int> targets,
                    std::size_t classes, tensor::Tensor& grad) {
  CGX_CHECK_GT(classes, 1u);
  CGX_CHECK_EQ(logits.numel() % classes, 0u);
  const std::size_t rows = logits.numel() / classes;
  CGX_CHECK_EQ(targets.size(), rows);
  grad.reset(logits.shape());  // every element is written below
  const auto in = logits.data();
  auto g = grad.data();
  double total = 0.0;
  const float inv_rows = 1.0f / static_cast<float>(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = &in[r * classes];
    // Online softmax (Milakov & Gimelshein): one fused sweep keeps a running
    // max and a running sum rescaled whenever the max moves, replacing the
    // old separate max pass + sum pass. Same overflow safety (every exp
    // argument is <= 0), half the memory traffic.
    double max_logit = row[0];
    double denom = 1.0;  // exp(row[0] - max) with max == row[0]
    for (std::size_t c = 1; c < classes; ++c) {
      const double x = row[c];
      if (x > max_logit) {
        denom = denom * std::exp(max_logit - x) + 1.0;
        max_logit = x;
      } else {
        denom += std::exp(x - max_logit);
      }
    }
    const int target = targets[r];
    CGX_DCHECK(target >= 0 && static_cast<std::size_t>(target) < classes);
    const double log_denom = std::log(denom);
    total += log_denom - (static_cast<double>(row[target]) - max_logit);
    for (std::size_t c = 0; c < classes; ++c) {
      const double p =
          std::exp(static_cast<double>(row[c]) - max_logit - log_denom);
      g[r * classes + c] =
          (static_cast<float>(p) -
           (static_cast<std::size_t>(target) == c ? 1.0f : 0.0f)) *
          inv_rows;
    }
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
