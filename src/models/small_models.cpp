#include "models/small_models.h"

#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace cgx::models {

std::unique_ptr<nn::Module> make_mlp(std::size_t in, std::size_t hidden,
                                     std::size_t classes, util::Rng& rng) {
  auto model = std::make_unique<nn::Sequential>();
  model->emplace<nn::Linear>(in, hidden, rng);
  model->emplace<nn::ReLU>();
  model->emplace<nn::Linear>(hidden, hidden, rng);
  model->emplace<nn::ReLU>();
  model->emplace<nn::Linear>(hidden, classes, rng);
  return model;
}

std::unique_ptr<nn::Module> make_small_cnn(std::size_t channels,
                                           std::size_t hw,
                                           std::size_t classes,
                                           util::Rng& rng) {
  CGX_CHECK_EQ(hw % 4, 0u);
  auto model = std::make_unique<nn::Sequential>();
  model->emplace<nn::Conv2d>(channels, 16, 3, 1, 1, rng);
  model->emplace<nn::ReLU>();
  model->emplace<nn::MaxPool2d>(2);
  model->emplace<nn::Conv2d>(16, 32, 3, 1, 1, rng);
  model->emplace<nn::ReLU>();
  model->emplace<nn::MaxPool2d>(2);
  model->emplace<nn::Conv2d>(32, 32, 3, 1, 1, rng);
  model->emplace<nn::ReLU>();
  model->emplace<nn::GlobalAvgPool>();
  model->emplace<nn::Linear>(32, classes, rng);
  return model;
}

std::unique_ptr<nn::Module> make_vgg_mini(std::size_t channels,
                                          std::size_t hw, std::size_t classes,
                                          util::Rng& rng) {
  CGX_CHECK_EQ(hw % 8, 0u);
  auto model = std::make_unique<nn::Sequential>();
  model->emplace<nn::Conv2d>(channels, 16, 3, 1, 1, rng);
  model->emplace<nn::ReLU>();
  model->emplace<nn::Conv2d>(16, 16, 3, 1, 1, rng);
  model->emplace<nn::ReLU>();
  model->emplace<nn::MaxPool2d>(2);
  model->emplace<nn::Conv2d>(16, 32, 3, 1, 1, rng);
  model->emplace<nn::ReLU>();
  model->emplace<nn::Conv2d>(32, 32, 3, 1, 1, rng);
  model->emplace<nn::ReLU>();
  model->emplace<nn::MaxPool2d>(2);
  model->emplace<nn::Conv2d>(32, 64, 3, 1, 1, rng);
  model->emplace<nn::ReLU>();
  model->emplace<nn::MaxPool2d>(2);
  model->emplace<nn::Flatten>();
  model->emplace<nn::Linear>(64 * (hw / 8) * (hw / 8), 128, rng);
  model->emplace<nn::ReLU>();
  model->emplace<nn::Linear>(128, classes, rng);
  return model;
}

// --------------------------------------------------------------- Graphs

std::unique_ptr<nn::Graph> make_two_tower(std::size_t in, std::size_t hidden,
                                          std::size_t classes,
                                          util::Rng& rng) {
  auto g = std::make_unique<nn::Graph>();
  const auto stem = g->emplace<nn::Linear>({nn::Graph::kInput}, in, hidden,
                                           rng);
  const auto stem_relu = g->emplace<nn::ReLU>({stem});
  // Two towers off the same activation: backward for them is independent,
  // so a pooled executor can run both concurrently.
  nn::Graph::NodeId tower_end[2];
  for (int t = 0; t < 2; ++t) {
    const auto fc1 =
        g->emplace<nn::Linear>({stem_relu}, hidden, hidden, rng);
    const auto relu1 = g->emplace<nn::ReLU>({fc1});
    const auto fc2 = g->emplace<nn::Linear>({relu1}, hidden, hidden, rng);
    tower_end[t] = g->emplace<nn::ReLU>({fc2});
  }
  // Fan-in join: the head sees tower0 + tower1 (declaration-order sum).
  g->emplace<nn::Linear>({tower_end[0], tower_end[1]}, hidden, classes, rng);
  return g;
}

std::unique_ptr<nn::Graph> make_skipjoin_cnn(std::size_t channels,
                                             std::size_t hw,
                                             std::size_t classes,
                                             util::Rng& rng) {
  CGX_CHECK_EQ(hw % 2, 0u);
  auto g = std::make_unique<nn::Graph>();
  const auto stem =
      g->emplace<nn::Conv2d>({nn::Graph::kInput}, channels, 16, 3, 1, 1, rng);
  const auto stem_relu = g->emplace<nn::ReLU>({stem});
  // Residual branch: two convs; the join ReLU consumes branch + skip, so
  // the Graph's fan-in sum IS the residual addition.
  const auto conv1 = g->emplace<nn::Conv2d>({stem_relu}, 16, 16, 3, 1, 1,
                                            rng);
  const auto branch_relu = g->emplace<nn::ReLU>({conv1});
  const auto conv2 = g->emplace<nn::Conv2d>({branch_relu}, 16, 16, 3, 1, 1,
                                            rng);
  const auto join = g->emplace<nn::ReLU>({conv2, stem_relu});
  const auto pool = g->emplace<nn::MaxPool2d>({join}, 2);
  const auto gap = g->emplace<nn::GlobalAvgPool>({pool});
  g->emplace<nn::Linear>({gap}, 16, classes, rng);
  return g;
}

// --------------------------------------------------------------- ResNet

ResidualBlock::ResidualBlock(std::size_t in_channels,
                             std::size_t out_channels, util::Rng& rng)
    : conv1_(in_channels, out_channels, 3, 1, 1, rng, /*bias=*/false),
      bn1_(out_channels),
      conv2_(out_channels, out_channels, 3, 1, 1, rng, /*bias=*/false),
      bn2_(out_channels) {
  if (in_channels != out_channels) {
    downsample_ = std::make_unique<nn::Conv2d>(in_channels, out_channels, 1,
                                               1, 0, rng, /*bias=*/false);
  }
}

const tensor::Tensor& ResidualBlock::forward(const tensor::Tensor& x,
                                             bool train) {
  const tensor::Tensor& main = bn2_.forward(
      conv2_.forward(relu1_.forward(bn1_.forward(conv1_.forward(x, train),
                                                 train),
                                    train),
                     train),
      train);
  const tensor::Tensor& skip = downsample_ ? downsample_->forward(x, train) : x;
  output_.copy_from(main);
  tensor::add_inplace(output_.data(), skip.data());
  return relu_out_.forward(output_, train);
}

const tensor::Tensor& ResidualBlock::backward(
    const tensor::Tensor& grad_out) {
  const tensor::Tensor& d_sum = relu_out_.backward(grad_out);
  const tensor::Tensor& d_main = conv1_.backward(
      bn1_.backward(relu1_.backward(conv2_.backward(bn2_.backward(d_sum)))));
  grad_in_.copy_from(d_main);
  if (downsample_) {
    const tensor::Tensor& d_skip = downsample_->backward(d_sum);
    tensor::add_inplace(grad_in_.data(), d_skip.data());
  } else {
    tensor::add_inplace(grad_in_.data(), d_sum.data());
  }
  return grad_in_;
}

void ResidualBlock::collect_params(const std::string& prefix,
                                   std::vector<nn::Param*>& out) {
  conv1_.collect_params(prefix + "conv1.", out);
  bn1_.collect_params(prefix + "bn1.", out);
  conv2_.collect_params(prefix + "conv2.", out);
  bn2_.collect_params(prefix + "bn2.", out);
  if (downsample_) downsample_->collect_params(prefix + "downsample.", out);
}

std::unique_ptr<nn::Module> make_resnet_mini(std::size_t channels,
                                             std::size_t hw,
                                             std::size_t classes,
                                             util::Rng& rng) {
  CGX_CHECK_EQ(hw % 2, 0u);
  auto model = std::make_unique<nn::Sequential>();
  model->emplace<nn::Conv2d>(channels, 8, 3, 1, 1, rng, /*bias=*/false);
  model->emplace<nn::BatchNorm2d>(8);
  model->emplace<nn::ReLU>();
  model->emplace<ResidualBlock>(8, 8, rng);
  model->emplace<nn::MaxPool2d>(2);
  model->emplace<ResidualBlock>(8, 16, rng);
  model->emplace<nn::GlobalAvgPool>();
  model->emplace<nn::Linear>(16, classes, rng);
  return model;
}

// --------------------------------------------------------------- LM

TinyTransformerLM::TinyTransformerLM(std::size_t vocab, std::size_t dim,
                                     std::size_t heads, std::size_t blocks,
                                     std::size_t max_seq, util::Rng& rng)
    : dim_(dim),
      max_seq_(max_seq),
      tok_(vocab, dim, rng),
      pos_("pos", tensor::Shape{max_seq, dim}),
      ln_f_(dim),
      head_(dim, vocab, rng) {
  pos_.value.fill_gaussian(rng, 0.0f, 0.02f);
  for (std::size_t b = 0; b < blocks; ++b) {
    blocks_.push_back(std::make_unique<nn::TransformerBlock>(
        dim, heads, 4 * dim, /*causal=*/true, rng));
  }
}

const tensor::Tensor& TinyTransformerLM::forward(const tensor::Tensor& x,
                                                 bool train) {
  CGX_CHECK_EQ(x.rank(), 2u);
  batch_ = x.dim(0);
  seq_ = x.dim(1);
  CGX_CHECK_LE(seq_, max_seq_);
  embedded_.copy_from(tok_.forward(x, train));  // [B, T, D]
  auto e = embedded_.data();
  const auto pos = pos_.value.data();
  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t t = 0; t < seq_; ++t) {
      for (std::size_t d = 0; d < dim_; ++d) {
        e[(b * seq_ + t) * dim_ + d] += pos[t * dim_ + d];
      }
    }
  }
  const tensor::Tensor* cur = &embedded_;
  for (auto& block : blocks_) cur = &block->forward(*cur, train);
  return head_.forward(ln_f_.forward(*cur, train), train);
}

const tensor::Tensor& TinyTransformerLM::backward(
    const tensor::Tensor& grad_out) {
  const tensor::Tensor* cur = &ln_f_.backward(head_.backward(grad_out));
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    cur = &(*it)->backward(*cur);
  }
  // d(embedding sum): positional grads accumulate per position across the
  // batch; token grads go to the embedding table.
  auto pg = pos_.grad.data();
  const auto g = cur->data();
  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t t = 0; t < seq_; ++t) {
      for (std::size_t d = 0; d < dim_; ++d) {
        pg[t * dim_ + d] += g[(b * seq_ + t) * dim_ + d];
      }
    }
  }
  return tok_.backward(*cur);  // token ids carry no gradient
}

void TinyTransformerLM::collect_params(const std::string& prefix,
                                       std::vector<nn::Param*>& out) {
  tok_.collect_params(prefix + "embed.", out);
  pos_.name = prefix + "pos_embed.weight";
  out.push_back(&pos_);
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    blocks_[b]->collect_params(prefix + "block" + std::to_string(b) + ".",
                               out);
  }
  ln_f_.collect_params(prefix + "ln_f.", out);
  head_.collect_params(prefix + "head.", out);
}

// --------------------------------------------------------------- BERT-QA

TinyBertQa::TinyBertQa(std::size_t vocab, std::size_t dim, std::size_t heads,
                       std::size_t blocks, std::size_t max_seq,
                       util::Rng& rng)
    : dim_(dim),
      max_seq_(max_seq),
      tok_(vocab, dim, rng),
      pos_("pos", tensor::Shape{max_seq, dim}),
      ln_f_(dim),
      head_(dim, 2, rng) {
  pos_.value.fill_gaussian(rng, 0.0f, 0.02f);
  for (std::size_t b = 0; b < blocks; ++b) {
    blocks_.push_back(std::make_unique<nn::TransformerBlock>(
        dim, heads, 4 * dim, /*causal=*/false, rng));
  }
}

const tensor::Tensor& TinyBertQa::forward(const tensor::Tensor& x,
                                          bool train) {
  CGX_CHECK_EQ(x.rank(), 2u);
  batch_ = x.dim(0);
  seq_ = x.dim(1);
  CGX_CHECK_LE(seq_, max_seq_);
  embedded_.copy_from(tok_.forward(x, train));  // [B, T, D]
  auto e = embedded_.data();
  const auto pos = pos_.value.data();
  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t t = 0; t < seq_; ++t) {
      for (std::size_t d = 0; d < dim_; ++d) {
        e[(b * seq_ + t) * dim_ + d] += pos[t * dim_ + d];
      }
    }
  }
  const tensor::Tensor* cur = &embedded_;
  for (auto& block : blocks_) cur = &block->forward(*cur, train);
  return head_.forward(ln_f_.forward(*cur, train), train);
}

const tensor::Tensor& TinyBertQa::backward(const tensor::Tensor& grad_out) {
  const tensor::Tensor* cur = &ln_f_.backward(head_.backward(grad_out));
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    cur = &(*it)->backward(*cur);
  }
  auto pg = pos_.grad.data();
  const auto g = cur->data();
  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t t = 0; t < seq_; ++t) {
      for (std::size_t d = 0; d < dim_; ++d) {
        pg[t * dim_ + d] += g[(b * seq_ + t) * dim_ + d];
      }
    }
  }
  return tok_.backward(*cur);  // token ids carry no gradient
}

void TinyBertQa::collect_params(const std::string& prefix,
                                std::vector<nn::Param*>& out) {
  tok_.collect_params(prefix + "embed.", out);
  pos_.name = prefix + "pos_embed.weight";
  out.push_back(&pos_);
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    blocks_[b]->collect_params(prefix + "block" + std::to_string(b) + ".",
                               out);
  }
  ln_f_.collect_params(prefix + "ln_f.", out);
  head_.collect_params(prefix + "head.", out);
}

}  // namespace cgx::models
