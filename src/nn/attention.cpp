#include "nn/attention.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/simd.h"

namespace cgx::nn {

MultiHeadAttention::MultiHeadAttention(std::size_t dim, std::size_t heads,
                                       bool causal, util::Rng& rng)
    : dim_(dim),
      heads_(heads),
      head_dim_(dim / heads),
      causal_(causal),
      qkv_(dim, 3 * dim, rng),
      proj_(dim, dim, rng) {
  CGX_CHECK_EQ(dim % heads, 0u);
}

const tensor::Tensor& MultiHeadAttention::forward(const tensor::Tensor& x,
                                                  bool train) {
  CGX_CHECK_EQ(x.rank(), 3u);
  CGX_CHECK_EQ(x.dim(2), dim_);
  batch_ = x.dim(0);
  seq_ = x.dim(1);
  const std::size_t b = batch_, t = seq_, h = heads_, dh = head_dim_;

  // qkv_'s output stays valid until its next forward, so backward reads it
  // in place.
  qkv_out_ = &qkv_.forward(x, train);  // [B, T, 3D]
  attn_.reset({b, h, t, t});
  heads_out_.reset({b, t, dim_});

  const auto qkv = qkv_out_->data();
  auto attn = attn_.data();
  auto out = heads_out_.data();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

  // Each head's Q/K/V live strided inside the fused [Q | K | V] qkv rows;
  // pack them into contiguous [T, dh] panels so every contraction is a
  // plain GEMM through tensor_ops (scores = Q K^T, O = A V).
  pack_q_.resize(t * dh);
  pack_k_.resize(t * dh);
  pack_v_.resize(t * dh);
  pack_o_.resize(t * dh);
  for (std::size_t n = 0; n < b; ++n) {
    for (std::size_t hh = 0; hh < h; ++hh) {
      for (std::size_t i = 0; i < t; ++i) {
        const float* row = &qkv[(n * t + i) * 3 * dim_ + hh * dh];
        std::memcpy(pack_q_.data() + i * dh, row, dh * sizeof(float));
        std::memcpy(pack_k_.data() + i * dh, row + dim_, dh * sizeof(float));
        std::memcpy(pack_v_.data() + i * dh, row + 2 * dim_,
                    dh * sizeof(float));
      }
      const std::span<float> scores = attn.subspan((n * h + hh) * t * t, t * t);
      tensor::matmul_a_bt(pack_q_, pack_k_, scores, t, dh, t);
      for (std::size_t i = 0; i < t; ++i) {
        const std::size_t limit = causal_ ? i + 1 : t;
        float* row = scores.data() + i * t;
        util::simd::scale({row, limit}, scale);
        const float max_score = util::simd::reduce_max({row, limit}, -1e30f);
        double denom = 0.0;
        for (std::size_t j = 0; j < limit; ++j) {
          row[j] = std::exp(row[j] - max_score);
          denom += row[j];
        }
        const float inv =
            denom > 0.0 ? static_cast<float>(1.0 / denom) : 0.0f;
        util::simd::scale({row, limit}, inv);
        std::fill(row + limit, row + t, 0.0f);
      }
      // O = A V; masked columns of A are exactly zero so they contribute
      // nothing.
      tensor::matmul(scores, pack_v_, pack_o_, t, t, dh);
      for (std::size_t i = 0; i < t; ++i) {
        std::memcpy(out.data() + (n * t + i) * dim_ + hh * dh,
                    pack_o_.data() + i * dh, dh * sizeof(float));
      }
    }
  }
  return proj_.forward(heads_out_, train);
}

const tensor::Tensor& MultiHeadAttention::backward(
    const tensor::Tensor& grad_out) {
  const std::size_t b = batch_, t = seq_, h = heads_, dh = head_dim_;
  const tensor::Tensor& d_heads = proj_.backward(grad_out);  // [B, T, D]

  d_qkv_.reset({b, t, 3 * dim_});  // every head writes its Q, K, V columns
  const auto qkv = qkv_out_->data();
  const auto attn = attn_.data();
  const auto dho = d_heads.data();
  auto dq = d_qkv_.data();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

  pack_q_.resize(t * dh);
  pack_k_.resize(t * dh);
  pack_v_.resize(t * dh);
  pack_o_.resize(t * dh);
  pack_dq_.resize(t * dh);
  pack_dk_.resize(t * dh);
  pack_dv_.resize(t * dh);
  da_.resize(t * t);
  ds_.resize(t * t);

  for (std::size_t n = 0; n < b; ++n) {
    for (std::size_t hh = 0; hh < h; ++hh) {
      for (std::size_t i = 0; i < t; ++i) {
        const float* row = &qkv[(n * t + i) * 3 * dim_ + hh * dh];
        std::memcpy(pack_q_.data() + i * dh, row, dh * sizeof(float));
        std::memcpy(pack_k_.data() + i * dh, row + dim_, dh * sizeof(float));
        std::memcpy(pack_v_.data() + i * dh, row + 2 * dim_,
                    dh * sizeof(float));
        std::memcpy(pack_o_.data() + i * dh,
                    dho.data() + (n * t + i) * dim_ + hh * dh,
                    dh * sizeof(float));
      }
      const std::span<const float> a_slice =
          attn.subspan((n * h + hh) * t * t, t * t);
      // dA = dO V^T; dV = A^T dO. Masked entries of A are exactly zero, so
      // the corresponding dV terms vanish just as in the masked loop nest.
      tensor::matmul_a_bt(pack_o_, pack_v_, da_, t, dh, t);
      tensor::matmul_at_b(a_slice, pack_o_, pack_dv_, t, t, dh);
      // Softmax backward: dS = (dA - <dA, A>) * A, then * scale.
      for (std::size_t i = 0; i < t; ++i) {
        const std::size_t limit = causal_ ? i + 1 : t;
        const float* arow = a_slice.data() + i * t;
        const float* darow = da_.data() + i * t;
        float* dsrow = ds_.data() + i * t;
        const double dot =
            util::simd::reduce_dot({darow, limit}, {arow, limit});
        for (std::size_t j = 0; j < limit; ++j) {
          dsrow[j] = (darow[j] - static_cast<float>(dot)) * arow[j] * scale;
        }
        std::fill(dsrow + limit, dsrow + t, 0.0f);
      }
      // dQ = dS K; dK = dS^T Q.
      tensor::matmul(ds_, pack_k_, pack_dq_, t, t, dh);
      tensor::matmul_at_b(ds_, pack_q_, pack_dk_, t, t, dh);
      for (std::size_t i = 0; i < t; ++i) {
        float* drow = &dq[(n * t + i) * 3 * dim_ + hh * dh];
        std::memcpy(drow, pack_dq_.data() + i * dh, dh * sizeof(float));
        std::memcpy(drow + dim_, pack_dk_.data() + i * dh,
                    dh * sizeof(float));
        std::memcpy(drow + 2 * dim_, pack_dv_.data() + i * dh,
                    dh * sizeof(float));
      }
    }
  }
  return qkv_.backward(d_qkv_);
}

void MultiHeadAttention::collect_params(const std::string& prefix,
                                        std::vector<Param*>& out) {
  qkv_.collect_params(prefix + "qkv.", out);
  proj_.collect_params(prefix + "proj.", out);
}

// ---------------------------------------------------------------- block

TransformerBlock::TransformerBlock(std::size_t dim, std::size_t heads,
                                   std::size_t mlp_dim, bool causal,
                                   util::Rng& rng)
    : ln1_(dim),
      attn_(dim, heads, causal, rng),
      ln2_(dim),
      fc1_(dim, mlp_dim, rng),
      fc2_(mlp_dim, dim, rng) {}

const tensor::Tensor& TransformerBlock::forward(const tensor::Tensor& x,
                                                bool train) {
  // output_ first holds h = x + attn(ln1(x)); ln2 keeps what its backward
  // needs, so the MLP branch is then added in place: y = h + mlp(ln2(h)).
  const tensor::Tensor& a = attn_.forward(ln1_.forward(x, train), train);
  output_.copy_from(x);
  tensor::add_inplace(output_.data(), a.data());
  const tensor::Tensor& m = fc2_.forward(
      gelu_.forward(fc1_.forward(ln2_.forward(output_, train), train), train),
      train);
  tensor::add_inplace(output_.data(), m.data());
  return output_;
}

const tensor::Tensor& TransformerBlock::backward(
    const tensor::Tensor& grad_out) {
  // y = h + mlp(ln2(h)): dh = dy + ln2^T(mlp^T(dy)), built in grad_in_.
  const tensor::Tensor& dm =
      ln2_.backward(fc1_.backward(gelu_.backward(fc2_.backward(grad_out))));
  grad_in_.copy_from(grad_out);
  tensor::add_inplace(grad_in_.data(), dm.data());
  // h = x + attn(ln1(x)): dx = dh + ln1^T(attn^T(dh)), added in place once
  // the attention branch has read dh.
  const tensor::Tensor& da = ln1_.backward(attn_.backward(grad_in_));
  tensor::add_inplace(grad_in_.data(), da.data());
  return grad_in_;
}

void TransformerBlock::collect_params(const std::string& prefix,
                                      std::vector<Param*>& out) {
  ln1_.collect_params(prefix + "ln1.", out);
  attn_.collect_params(prefix + "attn.", out);
  ln2_.collect_params(prefix + "ln2.", out);
  fc1_.collect_params(prefix + "mlp.fc1.", out);
  fc2_.collect_params(prefix + "mlp.fc2.", out);
}

}  // namespace cgx::nn
