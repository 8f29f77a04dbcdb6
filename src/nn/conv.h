// 2-D convolution and pooling for the CNN workloads (ResNet/VGG analogues
// at small scale). Conv2d lowers to im2col + the tiled GEMM in tensor_ops,
// so it inherits the SIMD dispatch and thread-count bit-determinism of that
// path; pooling and batch-norm stay direct.
#pragma once

#include <vector>

#include "nn/module.h"

namespace cgx::nn {

// Input [B, C, H, W]; weight [OC, C, K, K]; stride/pad uniform.
class Conv2d final : public Module {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t pad, util::Rng& rng,
         bool bias = true);

  const tensor::Tensor& forward(const tensor::Tensor& x, bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_out) override;
  void collect_params(const std::string& prefix,
                      std::vector<Param*>& out) override;
  std::string kind() const override { return "conv"; }

 private:
  // Fills col_ with the [in_c*k*k, oh*ow] im2col matrix of image n.
  void im2col(std::span<const float> image, std::size_t h, std::size_t w,
              std::size_t oh, std::size_t ow);

  std::size_t in_c_, out_c_, k_, stride_, pad_;
  Param weight_;
  Param bias_;
  bool has_bias_;
  tensor::Tensor input_;
  tensor::Tensor output_;
  tensor::Tensor grad_in_;
  // Grow-only scratch (steady state allocates nothing).
  std::vector<float> col_;   // im2col of one image
  std::vector<float> dcol_;  // gradient wrt col_
};

class MaxPool2d final : public Module {
 public:
  explicit MaxPool2d(std::size_t window);

  const tensor::Tensor& forward(const tensor::Tensor& x, bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_out) override;
  std::string kind() const override { return "maxpool"; }

 private:
  std::size_t window_;
  tensor::Shape input_shape_;
  std::vector<std::size_t> argmax_;
  tensor::Tensor output_;
  tensor::Tensor grad_in_;
};

// Batch normalization over [B, C, H, W] (per-channel statistics).
// Training mode uses batch statistics and updates running estimates;
// eval mode uses the running estimates. Its tiny gain/bias parameters are
// exactly the "bn" layers CGX's filters keep in full precision (§3).
class BatchNorm2d final : public Module {
 public:
  explicit BatchNorm2d(std::size_t channels, float eps = 1e-5f,
                       float momentum = 0.1f);

  const tensor::Tensor& forward(const tensor::Tensor& x, bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_out) override;
  void collect_params(const std::string& prefix,
                      std::vector<Param*>& out) override;
  std::string kind() const override { return "bn"; }

  std::span<const float> running_mean() const {
    return running_mean_.data();
  }
  std::span<const float> running_var() const { return running_var_.data(); }

 private:
  std::size_t channels_;
  float eps_;
  float momentum_;
  Param gain_;
  Param bias_;
  tensor::Tensor running_mean_;
  tensor::Tensor running_var_;
  // caches (train-mode backward)
  tensor::Tensor normalized_;
  std::vector<float> inv_std_;
  std::vector<double> sums_;  // backward: per channel, sum go, sum go*xhat
  tensor::Tensor output_;
  tensor::Tensor grad_in_;
  bool train_mode_ = false;
};

// Global average pooling: [B, C, H, W] -> [B, C].
class GlobalAvgPool final : public Module {
 public:
  const tensor::Tensor& forward(const tensor::Tensor& x, bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_out) override;
  std::string kind() const override { return "gap"; }

 private:
  tensor::Shape input_shape_;
  tensor::Tensor output_;
  tensor::Tensor grad_in_;
};

}  // namespace cgx::nn
