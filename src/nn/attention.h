// Multi-head self-attention and the pre-LN Transformer block.
//
// These power the Transformer-XL / BERT / ViT stand-ins used by the
// accuracy (Table 3) and adaptive-compression (Fig. 4) experiments. The
// implementation is a faithful standard decoder/encoder block:
//
//   h = x + MHA(LN1(x));  y = h + W2 gelu(W1 LN2(h))
//
// with optional causal masking for language modelling.
#pragma once

#include <memory>
#include <vector>

#include "nn/layers.h"

namespace cgx::nn {

// Input [B, T, D]; `heads` must divide D.
class MultiHeadAttention final : public Module {
 public:
  MultiHeadAttention(std::size_t dim, std::size_t heads, bool causal,
                     util::Rng& rng);

  const tensor::Tensor& forward(const tensor::Tensor& x, bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_out) override;
  void collect_params(const std::string& prefix,
                      std::vector<Param*>& out) override;
  std::string kind() const override { return "attn"; }

 private:
  std::size_t dim_, heads_, head_dim_;
  bool causal_;
  Linear qkv_;
  Linear proj_;
  // Caches for backward.
  const tensor::Tensor* qkv_out_ = nullptr;  // [B, T, 3D], owned by qkv_
  tensor::Tensor attn_;      // [B, H, T, T] softmax weights
  tensor::Tensor heads_out_; // [B, T, D] concatenated head outputs
  tensor::Tensor d_qkv_;     // [B, T, 3D] backward scratch
  std::size_t batch_ = 0, seq_ = 0;
  // Per-head packed [T, dh] operands so every contraction is a contiguous
  // GEMM through tensor_ops. Grow-only scratch.
  std::vector<float> pack_q_, pack_k_, pack_v_, pack_o_;
  std::vector<float> pack_dq_, pack_dk_, pack_dv_;
  std::vector<float> da_, ds_;  // [T, T] attention-grad scratch
};

class TransformerBlock final : public Module {
 public:
  TransformerBlock(std::size_t dim, std::size_t heads, std::size_t mlp_dim,
                   bool causal, util::Rng& rng);

  const tensor::Tensor& forward(const tensor::Tensor& x, bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_out) override;
  void collect_params(const std::string& prefix,
                      std::vector<Param*>& out) override;
  std::string kind() const override { return "block"; }

 private:
  LayerNorm ln1_;
  MultiHeadAttention attn_;
  LayerNorm ln2_;
  Linear fc1_;
  Gelu gelu_;
  Linear fc2_;
  tensor::Tensor output_;  // h = x + attn(ln1(x)), then y = h + mlp(ln2(h))
  tensor::Tensor grad_in_;
};

}  // namespace cgx::nn
