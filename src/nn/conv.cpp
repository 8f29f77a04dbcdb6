#include "nn/conv.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/simd.h"

namespace cgx::nn {
namespace {

std::size_t conv_out_dim(std::size_t in, std::size_t k, std::size_t stride,
                         std::size_t pad) {
  CGX_CHECK_GE(in + 2 * pad + 1, k + 1);
  return (in + 2 * pad - k) / stride + 1;
}

}  // namespace

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               util::Rng& rng, bool bias)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(pad),
      weight_("weight",
              tensor::Shape{out_channels, in_channels, kernel, kernel}),
      bias_("bias", tensor::Shape{out_channels}),
      has_bias_(bias) {
  CGX_CHECK_GT(stride, 0u);
  const float fan_in = static_cast<float>(in_channels * kernel * kernel);
  const float bound = std::sqrt(3.0f / fan_in);
  weight_.value.fill_uniform(rng, -bound, bound);
  bias_.value.zero();
}

void Conv2d::im2col(std::span<const float> image, std::size_t h,
                    std::size_t w, std::size_t oh, std::size_t ow) {
  // col row (ic, ky, kx), column (oy, ox): the input pixel that kernel tap
  // (ky, kx) sees at output position (oy, ox); zero where the tap falls in
  // the padding.
  const std::size_t cols = oh * ow;
  float* col = col_.data();
  for (std::size_t ic = 0; ic < in_c_; ++ic) {
    const float* plane = image.data() + ic * h * w;
    for (std::size_t ky = 0; ky < k_; ++ky) {
      for (std::size_t kx = 0; kx < k_; ++kx) {
        float* row = col + ((ic * k_ + ky) * k_ + kx) * cols;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
              static_cast<std::ptrdiff_t>(pad_);
          float* dst = row + oy * ow;
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) {
            std::memset(dst, 0, ow * sizeof(float));
            continue;
          }
          const float* src = plane + static_cast<std::size_t>(iy) * w;
          if (stride_ == 1) {
            // Contiguous run; clip the [kx - pad, kx - pad + ow) window.
            const std::ptrdiff_t ix0 =
                static_cast<std::ptrdiff_t>(kx) -
                static_cast<std::ptrdiff_t>(pad_);
            std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, -ix0);
            std::ptrdiff_t hi = std::min<std::ptrdiff_t>(
                static_cast<std::ptrdiff_t>(ow),
                static_cast<std::ptrdiff_t>(w) - ix0);
            if (hi < lo) hi = lo;
            if (lo > 0) std::memset(dst, 0, lo * sizeof(float));
            if (hi > lo) {
              std::memcpy(dst + lo, src + (ix0 + lo),
                          (hi - lo) * sizeof(float));
            }
            if (hi < static_cast<std::ptrdiff_t>(ow)) {
              std::memset(dst + hi, 0, (ow - hi) * sizeof(float));
            }
          } else {
            for (std::size_t ox = 0; ox < ow; ++ox) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                  static_cast<std::ptrdiff_t>(pad_);
              dst[ox] = (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w))
                            ? 0.0f
                            : src[ix];
            }
          }
        }
      }
    }
  }
}

const tensor::Tensor& Conv2d::forward(const tensor::Tensor& x, bool train) {
  (void)train;
  CGX_CHECK_EQ(x.rank(), 4u);
  CGX_CHECK_EQ(x.dim(1), in_c_);
  const std::size_t b = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = conv_out_dim(h, k_, stride_, pad_);
  const std::size_t ow = conv_out_dim(w, k_, stride_, pad_);
  input_.copy_from(x);
  output_.reset({b, out_c_, oh, ow});
  const auto in = x.data();
  const auto wgt = weight_.value.data();
  const auto bs = bias_.value.data();
  auto out = output_.data();

  const std::size_t ck2 = in_c_ * k_ * k_;
  const std::size_t cols = oh * ow;
  col_.resize(ck2 * cols);
  // Per image: out[n] = W[out_c x ck2] * col[ck2 x cols]. Images run
  // serially; the tiled matmul parallelizes internally, so the result is
  // bit-identical at any thread count.
  for (std::size_t n = 0; n < b; ++n) {
    im2col(in.subspan(n * in_c_ * h * w, in_c_ * h * w), h, w, oh, ow);
    const std::span<float> out_n = out.subspan(n * out_c_ * cols,
                                               out_c_ * cols);
    tensor::matmul(wgt, col_, out_n, out_c_, ck2, cols);
    if (has_bias_) {
      for (std::size_t oc = 0; oc < out_c_; ++oc) {
        float* row = out_n.data() + oc * cols;
        const float beta = bs[oc];
        for (std::size_t j = 0; j < cols; ++j) row[j] += beta;
      }
    }
  }
  return output_;
}

const tensor::Tensor& Conv2d::backward(const tensor::Tensor& grad_out) {
  const std::size_t b = input_.dim(0), h = input_.dim(2), w = input_.dim(3);
  const std::size_t oh = output_.dim(2), ow = output_.dim(3);
  CGX_CHECK_EQ(grad_out.numel(), output_.numel());
  // col2im below scatter-ADDS into the input gradient: the one buffer here
  // that must start zeroed.
  grad_in_.reset_zero(input_.shape());
  const auto in = input_.data();
  const auto wgt = weight_.value.data();
  const auto go = grad_out.data();
  auto wg = weight_.grad.data();
  auto bg = bias_.grad.data();
  auto gi = grad_in_.data();

  const std::size_t ck2 = in_c_ * k_ * k_;
  const std::size_t cols = oh * ow;
  col_.resize(ck2 * cols);
  dcol_.resize(ck2 * cols);
  // Parameter gradients first, image by image: bias sums and
  // dW += go_n[out_c x cols] * col^T, added into the gradient in the GEMM's
  // epilogue. They are final after this loop, so the hook fires before the
  // input gradient, which needs only W and go.
  for (std::size_t n = 0; n < b; ++n) {
    const std::span<const float> go_n =
        go.subspan(n * out_c_ * cols, out_c_ * cols);
    if (has_bias_) {
      for (std::size_t oc = 0; oc < out_c_; ++oc) {
        bg[oc] += static_cast<float>(
            util::simd::reduce_sum(go_n.subspan(oc * cols, cols)));
      }
    }
    im2col(in.subspan(n * in_c_ * h * w, in_c_ * h * w), h, w, oh, ow);
    tensor::matmul_a_bt(go_n, col_, wg, out_c_, cols, ck2,
                        tensor::Store::kAccumulate);
  }
  params_ready();
  for (std::size_t n = 0; n < b; ++n) {
    // dcol = W^T * go_n; then col2im.
    const std::span<const float> go_n =
        go.subspan(n * out_c_ * cols, out_c_ * cols);
    tensor::matmul_at_b(wgt, go_n, dcol_, out_c_, ck2, cols);
    // col2im scatter-add (serial: output pixels overlap under stride < k).
    // Every input pixel receives its terms in (ic, ky, kx, oy) order; within
    // one (ic, ky, kx, oy) each ox lands on a distinct pixel, so the
    // stride-1 run can be added as one vector.
    float* gimg = gi.data() + n * in_c_ * h * w;
    const float* dcol = dcol_.data();
    for (std::size_t ic = 0; ic < in_c_; ++ic) {
      float* plane = gimg + ic * h * w;
      for (std::size_t ky = 0; ky < k_; ++ky) {
        for (std::size_t kx = 0; kx < k_; ++kx) {
          const float* row = dcol + ((ic * k_ + ky) * k_ + kx) * cols;
          // Stride 1: clip the [kx - pad, kx - pad + ow) window once, as
          // im2col does.
          const std::ptrdiff_t ix0 = static_cast<std::ptrdiff_t>(kx) -
                                     static_cast<std::ptrdiff_t>(pad_);
          const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, -ix0);
          const std::ptrdiff_t hi = std::max(
              lo, std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(ow),
                                           static_cast<std::ptrdiff_t>(w) -
                                               ix0));
          for (std::size_t oy = 0; oy < oh; ++oy) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                static_cast<std::ptrdiff_t>(pad_);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
            float* dst = plane + static_cast<std::size_t>(iy) * w;
            const float* src = row + oy * ow;
            if (stride_ == 1) {
              if (hi > lo) {
                const auto len = static_cast<std::size_t>(hi - lo);
                util::simd::add({dst + (ix0 + lo), len}, {src + lo, len});
              }
              continue;
            }
            for (std::size_t ox = 0; ox < ow; ++ox) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                  static_cast<std::ptrdiff_t>(pad_);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
              dst[ix] += src[ox];
            }
          }
        }
      }
    }
  }
  return grad_in_;
}

void Conv2d::collect_params(const std::string& prefix,
                            std::vector<Param*>& out) {
  weight_.name = prefix + "weight";
  out.push_back(&weight_);
  if (has_bias_) {
    bias_.name = prefix + "bias";
    out.push_back(&bias_);
  }
}

// ----------------------------------------------------------------- MaxPool

MaxPool2d::MaxPool2d(std::size_t window) : window_(window) {
  CGX_CHECK_GT(window, 0u);
}

const tensor::Tensor& MaxPool2d::forward(const tensor::Tensor& x,
                                         bool train) {
  (void)train;
  CGX_CHECK_EQ(x.rank(), 4u);
  const std::size_t b = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  CGX_CHECK_EQ(h % window_, 0u);
  CGX_CHECK_EQ(w % window_, 0u);
  const std::size_t oh = h / window_, ow = w / window_;
  input_shape_ = x.shape();
  output_.reset({b, c, oh, ow});
  argmax_.resize(output_.numel());
  const float* in = x.data().data();
  // A local, not the member: the argmax stores could alias this->window_,
  // which would force a reload per element and block vectorization.
  const std::size_t win = window_;
  for (std::size_t row = 0; row < b * c * oh; ++row) {
    // One output row: its running maxima and their flat input indices,
    // visited tap by tap in the window's (ky, kx) order so every output
    // sees its candidates in the same order as a per-window scan. The
    // update is a select with both candidates loaded unconditionally, and
    // the index select is an explicit mask (a ternary on the index is left
    // as a branch), so the ox loop vectorizes. v > best is false for NaN
    // and for ties, so NaN never wins and the first maximum does; a window
    // with nothing above -inf (all NaN or all -inf) keeps -inf and index 0.
    float* best = output_.data().data() + row * ow;
    std::size_t* best_idx = argmax_.data() + row * ow;
    std::fill(best, best + ow, -std::numeric_limits<float>::infinity());
    std::fill(best_idx, best_idx + ow, std::size_t{0});
    const std::size_t plane_row = (row / oh) * h + (row % oh) * win;
    for (std::size_t ky = 0; ky < win; ++ky) {
      for (std::size_t kx = 0; kx < win; ++kx) {
        const std::size_t base = (plane_row + ky) * w + kx;
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const std::size_t idx = base + ox * win;
          const float v = in[idx];
          const float b = best[ox];
          const std::size_t take = -static_cast<std::size_t>(v > b);
          best[ox] = v > b ? v : b;
          best_idx[ox] = (idx & take) | (best_idx[ox] & ~take);
        }
      }
    }
  }
  return output_;
}

const tensor::Tensor& MaxPool2d::backward(const tensor::Tensor& grad_out) {
  CGX_CHECK_EQ(grad_out.numel(), argmax_.size());
  grad_in_.reset_zero(input_shape_);  // the scatter below accumulates
  auto gi = grad_in_.data();
  const auto go = grad_out.data();
  for (std::size_t i = 0; i < argmax_.size(); ++i) gi[argmax_[i]] += go[i];
  return grad_in_;
}

// ----------------------------------------------------------------- BN

BatchNorm2d::BatchNorm2d(std::size_t channels, float eps, float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gain_("weight", tensor::Shape{channels}),
      bias_("bias", tensor::Shape{channels}),
      running_mean_(tensor::Shape{channels}),
      running_var_(tensor::Shape{channels}, 1.0f) {
  CGX_CHECK_GT(channels, 0u);
  gain_.value.fill(1.0f);
  bias_.value.zero();
}

const tensor::Tensor& BatchNorm2d::forward(const tensor::Tensor& x,
                                           bool train) {
  CGX_CHECK_EQ(x.rank(), 4u);
  CGX_CHECK_EQ(x.dim(1), channels_);
  const std::size_t b = x.dim(0), hw = x.dim(2) * x.dim(3);
  const std::size_t per_channel = b * hw;
  train_mode_ = train;
  output_.reset(x.shape());
  normalized_.reset(x.shape());
  inv_std_.resize(channels_);
  const auto in = x.data();
  auto out = output_.data();
  auto xhat = normalized_.data();
  const auto g = gain_.value.data();
  const auto beta = bias_.value.data();
  auto rm = running_mean_.data();
  auto rv = running_var_.data();

  for (std::size_t c = 0; c < channels_; ++c) {
    double mean, var;
    if (train) {
      double sum = 0.0;
      for (std::size_t n = 0; n < b; ++n) {
        sum += util::simd::reduce_sum(in.subspan((n * channels_ + c) * hw, hw));
      }
      mean = sum / static_cast<double>(per_channel);
      double sq = 0.0;
      for (std::size_t n = 0; n < b; ++n) {
        sq += util::simd::reduce_sqdiff(
            in.subspan((n * channels_ + c) * hw, hw), mean);
      }
      var = sq / static_cast<double>(per_channel);
      rm[c] = (1.0f - momentum_) * rm[c] +
              momentum_ * static_cast<float>(mean);
      rv[c] =
          (1.0f - momentum_) * rv[c] + momentum_ * static_cast<float>(var);
    } else {
      mean = rm[c];
      var = rv[c];
    }
    const float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
    inv_std_[c] = inv;
    for (std::size_t n = 0; n < b; ++n) {
      for (std::size_t i = 0; i < hw; ++i) {
        const std::size_t idx = (n * channels_ + c) * hw + i;
        const float h = (in[idx] - static_cast<float>(mean)) * inv;
        xhat[idx] = h;
        out[idx] = h * g[c] + beta[c];
      }
    }
  }
  return output_;
}

const tensor::Tensor& BatchNorm2d::backward(const tensor::Tensor& grad_out) {
  CGX_CHECK_EQ(grad_out.numel(), normalized_.numel());
  const std::size_t b = normalized_.dim(0);
  const std::size_t hw = normalized_.dim(2) * normalized_.dim(3);
  const auto per_channel = static_cast<double>(b * hw);
  grad_in_.reset(normalized_.shape());
  const auto go = grad_out.data();
  const auto xhat = normalized_.data();
  const auto g = gain_.value.data();
  auto gg = gain_.grad.data();
  auto bg = bias_.grad.data();
  auto gi = grad_in_.data();

  // Per-channel sums first: they are the parameter gradients, so the hook
  // fires before the input-gradient loop that reuses them.
  sums_.resize(2 * channels_);
  for (std::size_t c = 0; c < channels_; ++c) {
    // Per-(image, channel) rows reduce through the canonical simd kernels.
    double sum_go = 0.0, sum_go_xhat = 0.0;
    for (std::size_t n = 0; n < b; ++n) {
      const std::span<const float> go_row =
          go.subspan((n * channels_ + c) * hw, hw);
      const std::span<const float> xhat_row =
          xhat.subspan((n * channels_ + c) * hw, hw);
      sum_go += util::simd::reduce_sum(go_row);
      sum_go_xhat += util::simd::reduce_dot(go_row, xhat_row);
    }
    gg[c] += static_cast<float>(sum_go_xhat);
    bg[c] += static_cast<float>(sum_go);
    sums_[2 * c] = sum_go;
    sums_[2 * c + 1] = sum_go_xhat;
  }
  params_ready();

  for (std::size_t c = 0; c < channels_; ++c) {
    // dxhat = go * gain[c] is a constant scale per channel, so its sums are
    // the gain-scaled go sums.
    const double sum_dxhat = static_cast<double>(g[c]) * sums_[2 * c];
    const double sum_dxhat_xhat = static_cast<double>(g[c]) * sums_[2 * c + 1];
    if (!train_mode_) {
      // Eval mode: statistics are constants; dx = dxhat * inv_std.
      for (std::size_t n = 0; n < b; ++n) {
        for (std::size_t i = 0; i < hw; ++i) {
          const std::size_t idx = (n * channels_ + c) * hw + i;
          gi[idx] = go[idx] * g[c] * inv_std_[c];
        }
      }
      continue;
    }
    const auto mean_dxhat = static_cast<float>(sum_dxhat / per_channel);
    const auto mean_dxhat_xhat =
        static_cast<float>(sum_dxhat_xhat / per_channel);
    for (std::size_t n = 0; n < b; ++n) {
      for (std::size_t i = 0; i < hw; ++i) {
        const std::size_t idx = (n * channels_ + c) * hw + i;
        const float dxhat = go[idx] * g[c];
        gi[idx] = inv_std_[c] *
                  (dxhat - mean_dxhat - xhat[idx] * mean_dxhat_xhat);
      }
    }
  }
  return grad_in_;
}

void BatchNorm2d::collect_params(const std::string& prefix,
                                 std::vector<Param*>& out) {
  gain_.name = prefix + "weight";
  bias_.name = prefix + "bias";
  out.push_back(&gain_);
  out.push_back(&bias_);
}

// ----------------------------------------------------------------- GAP

const tensor::Tensor& GlobalAvgPool::forward(const tensor::Tensor& x,
                                             bool train) {
  (void)train;
  CGX_CHECK_EQ(x.rank(), 4u);
  const std::size_t b = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  input_shape_ = x.shape();
  output_.reset({b, c});
  const auto in = x.data();
  auto out = output_.data();
  for (std::size_t n = 0; n < b; ++n) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const double acc =
          util::simd::reduce_sum(in.subspan((n * c + ch) * hw, hw));
      out[n * c + ch] = static_cast<float>(acc / static_cast<double>(hw));
    }
  }
  return output_;
}

const tensor::Tensor& GlobalAvgPool::backward(const tensor::Tensor& grad_out) {
  const std::size_t b = input_shape_[0], c = input_shape_[1];
  const std::size_t hw = input_shape_[2] * input_shape_[3];
  CGX_CHECK_EQ(grad_out.numel(), b * c);
  grad_in_.reset(input_shape_);
  auto gi = grad_in_.data();
  const auto go = grad_out.data();
  const float inv = 1.0f / static_cast<float>(hw);
  for (std::size_t n = 0; n < b; ++n) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float g = go[n * c + ch] * inv;
      for (std::size_t i = 0; i < hw; ++i) gi[(n * c + ch) * hw + i] = g;
    }
  }
  return grad_in_;
}

}  // namespace cgx::nn
