#include "nn/layers.h"

#include <cmath>

#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/simd.h"

namespace cgx::nn {

void zero_grads(const std::vector<Param*>& params) {
  for (Param* p : params) p->grad.zero();
}

std::size_t param_count(const std::vector<Param*>& params) {
  std::size_t n = 0;
  for (const Param* p : params) n += p->value.numel();
  return n;
}

// ----------------------------------------------------------------- Linear

Linear::Linear(std::size_t in, std::size_t out, util::Rng& rng, bool bias)
    : in_(in),
      out_(out),
      weight_("weight", tensor::Shape{in, out}),
      bias_("bias", tensor::Shape{out}),
      has_bias_(bias) {
  CGX_CHECK_GT(in, 0u);
  CGX_CHECK_GT(out, 0u);
  // Kaiming-uniform-ish init.
  const float bound = std::sqrt(6.0f / static_cast<float>(in + out));
  weight_.value.fill_uniform(rng, -bound, bound);
  bias_.value.zero();
}

const tensor::Tensor& Linear::forward(const tensor::Tensor& x, bool train) {
  (void)train;
  CGX_CHECK_EQ(x.numel() % in_, 0u);
  const std::size_t rows = x.numel() / in_;
  CGX_CHECK_GE(x.rank(), 1u);
  input_.copy_from(x);
  // The output keeps x's leading dims with the last one replaced by out_.
  // For inputs whose last dim != in_ but whose numel is divisible (e.g.
  // flattened), fall back to [rows, out].
  if (x.shape().back() == in_) {
    output_.reset(std::span<const std::size_t>(x.shape()).first(x.rank() - 1),
                  {out_});
  } else {
    output_.reset({rows, out_});
  }
  tensor::matmul(x.data(), weight_.value.data(), output_.data(), rows, in_,
                 out_);
  if (has_bias_) {
    auto out = output_.data();
    const auto b = bias_.value.data();
    for (std::size_t r = 0; r < rows; ++r) {
      util::simd::add(out.subspan(r * out_, out_), b);
    }
  }
  return output_;
}

const tensor::Tensor& Linear::backward(const tensor::Tensor& grad_out) {
  const std::size_t rows = input_.numel() / in_;
  CGX_CHECK_EQ(grad_out.numel(), rows * out_);
  // dW += x^T g   (x: [rows x in], g: [rows x out]), added into the
  // gradient in the GEMM's epilogue.
  tensor::matmul_at_b(input_.data(), grad_out.data(), weight_.grad.data(),
                      rows, in_, out_, tensor::Store::kAccumulate);
  if (has_bias_) {
    auto bg = bias_.grad.data();
    const auto g = grad_out.data();
    for (std::size_t r = 0; r < rows; ++r) {
      util::simd::add(bg, g.subspan(r * out_, out_));
    }
  }
  params_ready();
  // dx = g W^T  (W: [in x out])
  grad_in_.reset(input_.shape());
  tensor::matmul_a_bt(grad_out.data(), weight_.value.data(), grad_in_.data(),
                      rows, out_, in_);
  return grad_in_;
}

void Linear::collect_params(const std::string& prefix,
                            std::vector<Param*>& out) {
  weight_.name = prefix + "weight";
  out.push_back(&weight_);
  if (has_bias_) {
    bias_.name = prefix + "bias";
    out.push_back(&bias_);
  }
}

// ----------------------------------------------------------------- ReLU

const tensor::Tensor& ReLU::forward(const tensor::Tensor& x, bool train) {
  (void)train;
  input_.copy_from(x);
  output_.reset(x.shape());
  const float* in = input_.data().data();
  float* out = output_.data().data();
  const std::size_t n = output_.numel();
  for (std::size_t i = 0; i < n; ++i) {
    const float v = in[i];
    out[i] = v > 0.0f ? v : 0.0f;
  }
  return output_;
}

const tensor::Tensor& ReLU::backward(const tensor::Tensor& grad_out) {
  CGX_CHECK_EQ(grad_out.numel(), input_.numel());
  grad_in_.reset(grad_out.shape());
  // A select with both operands loaded unconditionally, not a conditional
  // store: the compiler turns it into a compare-and-mask over whole
  // vectors, where a branch on the sign of x mispredicts on about half the
  // elements. x <= 0 is false for NaN, so a NaN input passes its gradient
  // through, and a zeroed gradient is +0 — both as the branch had it.
  const float* x = input_.data().data();
  const float* go = grad_out.data().data();
  float* gi = grad_in_.data().data();
  const std::size_t n = grad_in_.numel();
  for (std::size_t i = 0; i < n; ++i) {
    const float xv = x[i];
    const float gv = go[i];
    gi[i] = xv <= 0.0f ? 0.0f : gv;
  }
  return grad_in_;
}

// ----------------------------------------------------------------- GELU

namespace {
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
}

const tensor::Tensor& Gelu::forward(const tensor::Tensor& x, bool train) {
  (void)train;
  input_.copy_from(x);
  output_.reset(x.shape());
  const auto in = input_.data();
  auto out = output_.data();
  for (std::size_t i = 0; i < out.size(); ++i) {
    const float v = in[i];
    const float t = std::tanh(kGeluC * (v + 0.044715f * v * v * v));
    out[i] = 0.5f * v * (1.0f + t);
  }
  return output_;
}

const tensor::Tensor& Gelu::backward(const tensor::Tensor& grad_out) {
  CGX_CHECK_EQ(grad_out.numel(), input_.numel());
  grad_in_.copy_from(grad_out);
  auto g = grad_in_.data();
  const auto xs = input_.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    const float x = xs[i];
    const float u = kGeluC * (x + 0.044715f * x * x * x);
    const float t = std::tanh(u);
    const float du = kGeluC * (1.0f + 3.0f * 0.044715f * x * x);
    const float dgelu = 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
    g[i] *= dgelu;
  }
  return grad_in_;
}

// ----------------------------------------------------------------- Tanh

const tensor::Tensor& Tanh::forward(const tensor::Tensor& x, bool train) {
  (void)train;
  output_.reset(x.shape());
  const auto in = x.data();
  auto out = output_.data();
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::tanh(in[i]);
  return output_;
}

const tensor::Tensor& Tanh::backward(const tensor::Tensor& grad_out) {
  CGX_CHECK_EQ(grad_out.numel(), output_.numel());
  grad_in_.copy_from(grad_out);
  auto g = grad_in_.data();
  const auto y = output_.data();
  for (std::size_t i = 0; i < g.size(); ++i) g[i] *= 1.0f - y[i] * y[i];
  return grad_in_;
}

// ----------------------------------------------------------------- LayerNorm

LayerNorm::LayerNorm(std::size_t dim, float eps)
    : dim_(dim),
      eps_(eps),
      gain_("weight", tensor::Shape{dim}),
      bias_("bias", tensor::Shape{dim}) {
  CGX_CHECK_GT(dim, 0u);
  gain_.value.fill(1.0f);
  bias_.value.zero();
}

const tensor::Tensor& LayerNorm::forward(const tensor::Tensor& x,
                                         bool train) {
  (void)train;
  CGX_CHECK_EQ(x.numel() % dim_, 0u);
  const std::size_t rows = x.numel() / dim_;
  normalized_.reset(x.shape());
  output_.reset(x.shape());
  inv_std_.resize(rows);
  const auto in = x.data();
  auto xhat = normalized_.data();
  auto out = output_.data();
  const auto g = gain_.value.data();
  const auto b = bias_.value.data();
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = &in[r * dim_];
    const std::span<const float> row_span{row, dim_};
    const double mean =
        util::simd::reduce_sum(row_span) / static_cast<double>(dim_);
    const double var = util::simd::reduce_sqdiff(row_span, mean) /
                       static_cast<double>(dim_);
    const float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
    inv_std_[r] = inv;
    for (std::size_t c = 0; c < dim_; ++c) {
      const float h = (row[c] - static_cast<float>(mean)) * inv;
      xhat[r * dim_ + c] = h;
      out[r * dim_ + c] = h * g[c] + b[c];
    }
  }
  return output_;
}

const tensor::Tensor& LayerNorm::backward(const tensor::Tensor& grad_out) {
  const std::size_t rows = normalized_.numel() / dim_;
  CGX_CHECK_EQ(grad_out.numel(), rows * dim_);
  grad_in_.reset(normalized_.shape());
  const auto go = grad_out.data();
  const auto xhat = normalized_.data();
  const auto g = gain_.value.data();
  auto gg = gain_.grad.data();
  auto bg = bias_.grad.data();
  auto gi = grad_in_.data();
  for (std::size_t r = 0; r < rows; ++r) {
    const std::span<const float> go_row = go.subspan(r * dim_, dim_);
    util::simd::madd(gg, go_row, xhat.subspan(r * dim_, dim_));
    util::simd::add(bg, go_row);
  }
  params_ready();
  dxhat_.resize(dim_);
  const std::span<float> dxhat{dxhat_};
  for (std::size_t r = 0; r < rows; ++r) {
    // dL/dxhat = go * gain; then the standard layer-norm input gradient:
    // dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)).
    const std::span<const float> go_row = go.subspan(r * dim_, dim_);
    const std::span<const float> xhat_row = xhat.subspan(r * dim_, dim_);
    for (std::size_t c = 0; c < dim_; ++c) dxhat[c] = go_row[c] * g[c];
    const double sum_dxhat = util::simd::reduce_sum(dxhat);
    const double sum_dxhat_xhat = util::simd::reduce_dot(dxhat, xhat_row);
    const float mean_dxhat =
        static_cast<float>(sum_dxhat / static_cast<double>(dim_));
    const float mean_dxhat_xhat =
        static_cast<float>(sum_dxhat_xhat / static_cast<double>(dim_));
    for (std::size_t c = 0; c < dim_; ++c) {
      gi[r * dim_ + c] =
          inv_std_[r] * (dxhat[c] - mean_dxhat - xhat_row[c] * mean_dxhat_xhat);
    }
  }
  return grad_in_;
}

void LayerNorm::collect_params(const std::string& prefix,
                               std::vector<Param*>& out) {
  gain_.name = prefix + "weight";
  bias_.name = prefix + "bias";
  out.push_back(&gain_);
  out.push_back(&bias_);
}

// ----------------------------------------------------------------- Embedding

Embedding::Embedding(std::size_t vocab, std::size_t dim, util::Rng& rng)
    : vocab_(vocab), dim_(dim), table_("weight", tensor::Shape{vocab, dim}) {
  table_.value.fill_gaussian(rng, 0.0f, 0.02f);
}

const tensor::Tensor& Embedding::forward(const tensor::Tensor& x,
                                         bool train) {
  (void)train;
  const std::size_t n = x.numel();
  last_ids_.resize(n);
  output_.reset(x.shape(), {dim_});
  const auto ids = x.data();
  auto out = output_.data();
  const auto table = table_.value.data();
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::size_t>(ids[i]);
    CGX_DCHECK(id < vocab_);
    last_ids_[i] = id;
    for (std::size_t d = 0; d < dim_; ++d) {
      out[i * dim_ + d] = table[id * dim_ + d];
    }
  }
  grad_in_.reset_zero(x.shape());  // ids are not differentiable
  return output_;
}

const tensor::Tensor& Embedding::backward(const tensor::Tensor& grad_out) {
  CGX_CHECK_EQ(grad_out.numel(), last_ids_.size() * dim_);
  auto tg = table_.grad.data();
  const auto go = grad_out.data();
  for (std::size_t i = 0; i < last_ids_.size(); ++i) {
    const std::size_t id = last_ids_[i];
    for (std::size_t d = 0; d < dim_; ++d) {
      tg[id * dim_ + d] += go[i * dim_ + d];
    }
  }
  params_ready();
  return grad_in_;
}

void Embedding::collect_params(const std::string& prefix,
                               std::vector<Param*>& out) {
  table_.name = prefix + "weight";
  out.push_back(&table_);
}

// ----------------------------------------------------------------- Dropout

Dropout::Dropout(double p, util::Rng& rng) : p_(p), rng_(&rng) {
  CGX_CHECK(p >= 0.0 && p < 1.0);
}

const tensor::Tensor& Dropout::forward(const tensor::Tensor& x, bool train) {
  train_mode_ = train && p_ > 0.0;
  output_.copy_from(x);
  if (!train_mode_) return output_;
  mask_.assign(x.numel(), true);
  const float scale = static_cast<float>(1.0 / (1.0 - p_));
  auto out = output_.data();
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (rng_->next_double() < p_) {
      mask_[i] = false;
      out[i] = 0.0f;
    } else {
      out[i] *= scale;
    }
  }
  return output_;
}

const tensor::Tensor& Dropout::backward(const tensor::Tensor& grad_out) {
  grad_in_.copy_from(grad_out);
  if (!train_mode_) return grad_in_;
  const float scale = static_cast<float>(1.0 / (1.0 - p_));
  auto g = grad_in_.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = mask_[i] ? g[i] * scale : 0.0f;
  }
  return grad_in_;
}

// ----------------------------------------------------------------- Flatten

const tensor::Tensor& Flatten::forward(const tensor::Tensor& x, bool train) {
  (void)train;
  CGX_CHECK_GE(x.rank(), 1u);
  input_shape_ = x.shape();
  output_.reset({x.dim(0), x.numel() / x.dim(0)});
  tensor::copy(x.data(), output_.data());
  return output_;
}

const tensor::Tensor& Flatten::backward(const tensor::Tensor& grad_out) {
  CGX_CHECK_EQ(grad_out.numel(), tensor::shape_numel(input_shape_));
  grad_in_.reset(input_shape_);
  tensor::copy(grad_out.data(), grad_in_.data());
  return grad_in_;
}

}  // namespace cgx::nn
