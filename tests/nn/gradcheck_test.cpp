// Finite-difference gradient checks for every layer's backward pass.
//
// For a module M and fixed random weights w, the scalar L(x) = <M(x), w>
// has dL/dx given by M.backward(w) and dL/dtheta accumulated on the
// parameters. Central differences verify both against numeric derivatives
// on a random subset of coordinates.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "nn/attention.h"
#include "nn/conv.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/sequential.h"
#include "tensor/tensor_ops.h"

namespace cgx::nn {
namespace {

struct GradCheck {
  Module& module;
  tensor::Tensor input;
  util::Rng rng{12345};
  float eps = 2e-2f;
  double tolerance = 0.06;

  // Returns <forward(x), w>.
  double loss(const tensor::Tensor& x, const tensor::Tensor& w) {
    const tensor::Tensor& out = module.forward(x, /*train=*/false);
    return tensor::dot(out.data(), w.data());
  }

  void run(bool check_input = true) {
    // Probe output shape.
    const tensor::Tensor& probe = module.forward(input, false);
    tensor::Tensor w(probe.shape());
    w.fill_gaussian(rng, 0.0f, 1.0f);

    std::vector<Param*> params;
    module.collect_params("p.", params);
    zero_grads(params);

    module.forward(input, false);
    const tensor::Tensor& din = module.backward(w);
    // Copy analytic gradients before perturbation runs overwrite them.
    tensor::Tensor din_copy = din.clone();
    std::vector<tensor::Tensor> param_grads;
    for (Param* p : params) param_grads.push_back(p->grad.clone());

    auto check_coord = [&](float* coord, double analytic,
                           const std::string& what) {
      const float saved = *coord;
      *coord = saved + eps;
      const double up = loss(input, w);
      *coord = saved - eps;
      const double down = loss(input, w);
      *coord = saved;
      const double numeric = (up - down) / (2.0 * eps);
      const double denom =
          std::abs(analytic) + std::abs(numeric) + 1e-2;
      EXPECT_LT(std::abs(analytic - numeric) / denom, tolerance)
          << what << " analytic=" << analytic << " numeric=" << numeric;
    };

    if (check_input) {
      for (int trial = 0; trial < 20; ++trial) {
        const std::size_t i = rng.next_below(input.numel());
        check_coord(&input.data()[i], din_copy.at(i),
                    "input[" + std::to_string(i) + "]");
      }
    }
    for (std::size_t pi = 0; pi < params.size(); ++pi) {
      Param* p = params[pi];
      const int checks = std::min<std::size_t>(12, p->value.numel());
      for (int trial = 0; trial < checks; ++trial) {
        const std::size_t i = rng.next_below(p->value.numel());
        check_coord(&p->value.data()[i], param_grads[pi].at(i),
                    p->name + "[" + std::to_string(i) + "]");
      }
    }
  }
};

tensor::Tensor random_input(tensor::Shape shape, std::uint64_t seed) {
  tensor::Tensor t(std::move(shape));
  util::Rng rng(seed);
  t.fill_gaussian(rng, 0.0f, 1.0f);
  return t;
}

TEST(GradCheck, Linear) {
  util::Rng rng(1);
  Linear layer(7, 5, rng);
  GradCheck{layer, random_input({4, 7}, 2)}.run();
}

TEST(GradCheck, LinearNoBias) {
  util::Rng rng(1);
  Linear layer(6, 3, rng, /*bias=*/false);
  GradCheck{layer, random_input({3, 6}, 3)}.run();
}

TEST(GradCheck, ReLU) {
  ReLU layer;
  // Offset inputs away from the kink at zero.
  tensor::Tensor x = random_input({5, 9}, 4);
  for (auto& v : x.data()) {
    if (std::fabs(v) < 0.15f) v = std::copysign(0.3f, v);
  }
  GradCheck{layer, std::move(x)}.run();
}

TEST(GradCheck, Gelu) {
  Gelu layer;
  GradCheck{layer, random_input({4, 6}, 5)}.run();
}

TEST(GradCheck, Tanh) {
  Tanh layer;
  GradCheck{layer, random_input({4, 6}, 6)}.run();
}

TEST(GradCheck, LayerNorm) {
  LayerNorm layer(8);
  GradCheck{layer, random_input({6, 8}, 7)}.run();
}

TEST(GradCheck, LayerNorm3d) {
  LayerNorm layer(5);
  GradCheck{layer, random_input({2, 3, 5}, 8)}.run();
}

TEST(GradCheck, Conv2dBasic) {
  util::Rng rng(2);
  Conv2d layer(2, 3, 3, 1, 1, rng);
  GradCheck{layer, random_input({2, 2, 6, 6}, 9)}.run();
}

TEST(GradCheck, Conv2dStridedNoPad) {
  util::Rng rng(3);
  Conv2d layer(1, 2, 3, 2, 0, rng);
  GradCheck{layer, random_input({2, 1, 7, 7}, 10)}.run();
}

TEST(GradCheck, Conv2dNoBias) {
  util::Rng rng(4);
  Conv2d layer(2, 2, 1, 1, 0, rng, /*bias=*/false);
  GradCheck{layer, random_input({2, 2, 4, 4}, 11)}.run();
}

TEST(GradCheck, MaxPool) {
  MaxPool2d layer(2);
  // Spread values so eps-perturbations never flip the argmax.
  tensor::Tensor x({2, 2, 4, 4});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.at(i) = static_cast<float>((i * 37) % 64) * 0.5f;
  }
  GradCheck check{layer, std::move(x)};
  check.eps = 1e-2f;
  check.run();
}

TEST(GradCheck, GlobalAvgPool) {
  GlobalAvgPool layer;
  GradCheck{layer, random_input({3, 4, 5, 5}, 13)}.run();
}

TEST(GradCheck, Embedding) {
  util::Rng rng(5);
  Embedding layer(11, 6, rng);
  tensor::Tensor ids({3, 4});
  util::Rng id_rng(14);
  for (auto& v : ids.data()) {
    v = static_cast<float>(id_rng.next_below(11));
  }
  // Ids are not differentiable: parameter check only.
  GradCheck{layer, std::move(ids)}.run(/*check_input=*/false);
}

TEST(GradCheck, AttentionCausal) {
  util::Rng rng(6);
  MultiHeadAttention layer(8, 2, /*causal=*/true, rng);
  GradCheck{layer, random_input({2, 5, 8}, 15)}.run();
}

TEST(GradCheck, AttentionBidirectional) {
  util::Rng rng(7);
  MultiHeadAttention layer(6, 3, /*causal=*/false, rng);
  GradCheck{layer, random_input({2, 4, 6}, 16)}.run();
}

TEST(GradCheck, TransformerBlock) {
  util::Rng rng(8);
  TransformerBlock layer(6, 2, 12, /*causal=*/true, rng);
  GradCheck{layer, random_input({2, 4, 6}, 17)}.run();
}

TEST(GradCheck, Flatten) {
  Flatten layer;
  GradCheck{layer, random_input({2, 3, 4}, 18)}.run();
}

TEST(GradCheck, SequentialComposite) {
  util::Rng rng(9);
  Sequential model;
  model.emplace<Linear>(6, 10, rng);
  model.emplace<Gelu>();
  model.emplace<LayerNorm>(10);
  model.emplace<Linear>(10, 4, rng);
  GradCheck{model, random_input({5, 6}, 19)}.run();
}

TEST(GradCheck, CnnComposite) {
  util::Rng rng(10);
  Sequential model;
  model.emplace<Conv2d>(1, 4, 3, 1, 1, rng);
  model.emplace<Gelu>();
  model.emplace<GlobalAvgPool>();
  model.emplace<Linear>(4, 3, rng);
  GradCheck{model, random_input({2, 1, 6, 6}, 20)}.run();
}

// The loss itself: central differences of the mean softmax cross-entropy
// against the gradient softmax_xent writes, at 2, 10 and the LM head's 2048
// classes. Row 1's target is its largest logit (p near 1, the gradient's
// smallest magnitude). The step is measured as the float difference of the
// perturbed logits, so logit rounding does not bias the quotient.
TEST(GradCheck, SoftmaxXent) {
  for (std::size_t classes : {2u, 10u, 2048u}) {
    SCOPED_TRACE(::testing::Message() << "classes=" << classes);
    const std::size_t rows = 3;
    tensor::Tensor logits = random_input({rows, classes}, 21 + classes);
    util::Rng rng(22 + classes);
    std::vector<int> targets(rows);
    for (int& t : targets) t = static_cast<int>(rng.next_below(classes));
    const std::size_t top = rng.next_below(classes);
    logits.at(classes + top) = 4.0f;  // the row's maximum
    targets[1] = static_cast<int>(top);

    tensor::Tensor grad;
    softmax_xent(logits, targets, classes, grad);
    const tensor::Tensor analytic = grad.clone();

    // Every coordinate of the small heads; on the wide one the targets,
    // the maximum and a random sample.
    std::vector<std::size_t> coords;
    if (classes <= 10) {
      for (std::size_t i = 0; i < logits.numel(); ++i) coords.push_back(i);
    } else {
      for (std::size_t r = 0; r < rows; ++r) {
        coords.push_back(r * classes + static_cast<std::size_t>(targets[r]));
      }
      for (int k = 0; k < 40; ++k) coords.push_back(rng.next_below(logits.numel()));
    }
    tensor::Tensor scratch;
    for (std::size_t i : coords) {
      float& x = logits.data()[i];
      const float saved = x;
      const float up_x = saved + 1e-3f;
      const float down_x = saved - 1e-3f;
      x = up_x;
      const double up = softmax_xent(logits, targets, classes, scratch);
      x = down_x;
      const double down = softmax_xent(logits, targets, classes, scratch);
      x = saved;
      const double numeric =
          (up - down) / (static_cast<double>(up_x) - down_x);
      EXPECT_NEAR(analytic.at(i), numeric, 1e-3 * std::abs(numeric) + 1e-7)
          << "logit " << i;
    }
  }
}

}  // namespace
}  // namespace cgx::nn
