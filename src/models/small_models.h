// Real trainable models for the accuracy / convergence experiments.
//
// These are small-scale analogues of the paper's workloads — small enough
// to train to convergence on CPU within a test/bench run, but structurally
// faithful: the CNNs have conv+bias+norm layer mixes, the Transformers
// have the embedding-heavy, heterogeneous layer-size profile §5's adaptive
// compression exploits.
#pragma once

#include <memory>

#include "nn/attention.h"
#include "nn/conv.h"
#include "nn/graph.h"
#include "nn/sequential.h"

namespace cgx::models {

// MLP classifier for the quickstart: in -> hidden -> hidden -> classes.
std::unique_ptr<nn::Module> make_mlp(std::size_t in, std::size_t hidden,
                                     std::size_t classes, util::Rng& rng);

// Branchy models (nn::Graph): the DAG-executor workloads. Their backward
// passes have genuinely independent branches, so a DepEngine pool can
// differentiate both towers concurrently and gradients complete in a
// nondeterministic per-rank order — exactly what the engine's
// ordered-launch frontier exists for.

// Two-tower MLP: shared stem, two independent Linear/ReLU towers whose
// outputs SUM at the classifier head (Graph fan-in join).
std::unique_ptr<nn::Graph> make_two_tower(std::size_t in, std::size_t hidden,
                                          std::size_t classes,
                                          util::Rng& rng);

// ResNet-style skip-join CNN: conv stem, a two-conv residual branch whose
// output rejoins the stem activation (fan-out at the stem, fan-in sum at
// the join ReLU), then pool/GAP/classifier. Input [B, channels, hw, hw].
std::unique_ptr<nn::Graph> make_skipjoin_cnn(std::size_t channels,
                                             std::size_t hw,
                                             std::size_t classes,
                                             util::Rng& rng);

// Small CNN ("ResNet-for-ants"): conv/relu/pool x2 -> conv -> GAP -> fc.
// Input [B, channels, hw, hw].
std::unique_ptr<nn::Module> make_small_cnn(std::size_t channels,
                                           std::size_t hw,
                                           std::size_t classes,
                                           util::Rng& rng);

// VGG-flavoured deeper CNN (for the Fig. 9 style CNN benchmarks).
std::unique_ptr<nn::Module> make_vgg_mini(std::size_t channels,
                                          std::size_t hw, std::size_t classes,
                                          util::Rng& rng);

// Residual block: conv-bn-relu-conv-bn (+ 1x1 downsample when the channel
// count changes) with a skip connection — the ResNet building block, so
// the "ResNet50 stand-in" actually carries the conv/bn/bias layer mix the
// CGX filters operate on.
class ResidualBlock final : public nn::Module {
 public:
  ResidualBlock(std::size_t in_channels, std::size_t out_channels,
                util::Rng& rng);

  const tensor::Tensor& forward(const tensor::Tensor& x, bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_out) override;
  void collect_params(const std::string& prefix,
                      std::vector<nn::Param*>& out) override;
  std::string kind() const override { return "resblock"; }

 private:
  nn::Conv2d conv1_;
  nn::BatchNorm2d bn1_;
  nn::ReLU relu1_;
  nn::Conv2d conv2_;
  nn::BatchNorm2d bn2_;
  std::unique_ptr<nn::Conv2d> downsample_;  // when channels change
  nn::ReLU relu_out_;
  tensor::Tensor output_;
  tensor::Tensor grad_in_;
};

// ResNet-for-ants: conv-bn stem, two residual stages, GAP, classifier.
std::unique_ptr<nn::Module> make_resnet_mini(std::size_t channels,
                                             std::size_t hw,
                                             std::size_t classes,
                                             util::Rng& rng);

// Decoder-only causal LM: token+position embeddings, pre-LN blocks, head.
// Input [B, T] of token ids; output [B, T, vocab].
class TinyTransformerLM final : public nn::Module {
 public:
  TinyTransformerLM(std::size_t vocab, std::size_t dim, std::size_t heads,
                    std::size_t blocks, std::size_t max_seq, util::Rng& rng);

  const tensor::Tensor& forward(const tensor::Tensor& x, bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_out) override;
  void collect_params(const std::string& prefix,
                      std::vector<nn::Param*>& out) override;
  std::string kind() const override { return "tiny_txl"; }

 private:
  std::size_t dim_, max_seq_;
  nn::Embedding tok_;
  nn::Param pos_;
  std::vector<std::unique_ptr<nn::TransformerBlock>> blocks_;
  nn::LayerNorm ln_f_;
  nn::Linear head_;
  std::size_t batch_ = 0, seq_ = 0;
  tensor::Tensor embedded_;
};

// Bidirectional encoder with a 2-logit span head ("TinyBERT-QA").
// Input [B, T] tokens; output [B, T, 2] start/end logits.
class TinyBertQa final : public nn::Module {
 public:
  TinyBertQa(std::size_t vocab, std::size_t dim, std::size_t heads,
             std::size_t blocks, std::size_t max_seq, util::Rng& rng);

  const tensor::Tensor& forward(const tensor::Tensor& x, bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_out) override;
  void collect_params(const std::string& prefix,
                      std::vector<nn::Param*>& out) override;
  std::string kind() const override { return "tiny_bert"; }

 private:
  std::size_t dim_, max_seq_;
  nn::Embedding tok_;
  nn::Param pos_;
  std::vector<std::unique_ptr<nn::TransformerBlock>> blocks_;
  nn::LayerNorm ln_f_;
  nn::Linear head_;
  std::size_t batch_ = 0, seq_ = 0;
  tensor::Tensor embedded_;
};

}  // namespace cgx::models
