// Losses: softmax cross-entropy (classification / language modelling) and
// MSE (regression sanity tests).
#pragma once

#include <span>

#include "tensor/tensor.h"

namespace cgx::nn {

// Softmax + cross-entropy over the last dimension. Logits are treated as
// [rows, classes] with rows = numel / classes; `targets` has one class id
// per row (language models pass B*T rows). Returns the mean loss and writes
// dL/dlogits into `grad`, reshaped to the logits' shape in its own storage
// (tensor::Tensor::reset), so a gradient tensor held across steps is
// reused, not reallocated.
double softmax_xent(const tensor::Tensor& logits, std::span<const int> targets,
                    std::size_t classes, tensor::Tensor& grad);

// Mean squared error; writes dL/dpred into `grad` the same way.
double mse(const tensor::Tensor& pred, const tensor::Tensor& target,
           tensor::Tensor& grad);

// The same criteria holding their gradient buffer across calls.
class SoftmaxCrossEntropy {
 public:
  explicit SoftmaxCrossEntropy(std::size_t classes);

  double forward(const tensor::Tensor& logits,
                 std::span<const int> targets) {
    return softmax_xent(logits, targets, classes_, grad_);
  }
  const tensor::Tensor& grad() const { return grad_; }

  // Convenience metrics.
  static double accuracy(const tensor::Tensor& logits,
                         std::span<const int> targets, std::size_t classes);
  // perplexity = exp(mean nll) — the LM metric of Table 3 / Fig. 4.
  static double perplexity(double mean_loss);

 private:
  std::size_t classes_;
  tensor::Tensor grad_;
};

class MseLoss {
 public:
  double forward(const tensor::Tensor& pred, const tensor::Tensor& target) {
    return mse(pred, target, grad_);
  }
  const tensor::Tensor& grad() const { return grad_; }

 private:
  tensor::Tensor grad_;
};

}  // namespace cgx::nn
