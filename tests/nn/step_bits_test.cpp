// Pins the exact bits of the step's compute hot loops: the A·Bᵀ product
// (Conv2d dW, Linear dX, attention scores), the Adam and SGD updates, and
// the two layer backward passes built on them. Each case folds its outputs
// into one FNV-1a hash. The expected hashes were recorded from the per-output
// reduce_dot loop, the per-element scalar Adam loop, the per-pixel col2im
// scatter and the allocate-per-call Linear dW, before any of them was
// vectorized, so any drift in accumulation order, rounding or operand
// order shows up here. Further down, whole-model steps and the ReLU/MaxPool
// edge cases pin the layers themselves, recorded while every layer still
// allocated fresh tensors per call (before the buffers became reused and
// the masks branch-free). The hashes are the same under
// CGX_SIMD=off/sse2/auto (the kernels are bit-identical by contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "models/small_models.h"
#include "nn/conv.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "nn/sequential.h"
#include "simd_levels.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "util/simd.h"

namespace cgx::nn {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

std::uint32_t bits(float v) {
  std::uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, std::span<const float> x) {
  return fnv1a(h, x.data(), x.size() * sizeof(float));
}

void fill_gaussian(std::span<float> x, util::Rng& rng) {
  for (float& v : x) v = static_cast<float>(rng.next_gaussian());
}

struct AbtCase {
  const char* what;
  std::size_t m, n, k;
  std::uint64_t hash;
};

TEST(StepBits, MatmulABtShapesMatchRecordedHashes) {
  const AbtCase cases[] = {
      // Conv2d dW on VGG-mini: [out_c x oh*ow] * col[ck2 x oh*ow]^T.
      {"vgg conv2 dW", 16, 1024, 144, 5083806650849756065ull},
      {"vgg conv3 dW", 32, 256, 144, 5088421745886465392ull},
      {"vgg conv5 dW", 64, 64, 288, 18004176568468455831ull},
      // Linear dX on the MLP: grad_out[batch x out] * W[in x out]^T.
      {"mlp hidden dX", 8, 1024, 1024, 1302406337345881564ull},
      {"mlp head dX", 8, 10, 1024, 17757937825090733303ull},
      // Attention scores Q K^T per head: [t x dh] * [t x dh]^T.
      {"attn QK^T", 32, 16, 32, 8538724003677363003ull},
      {"n % 8 != 0", 9, 13, 7, 14759380320489401752ull},
      {"m % 4 != 0", 7, 24, 5, 269284303594274036ull},
      {"n < 8", 6, 3, 11, 16677601721768851742ull},
      {"n = 0", 5, 0, 6, 16041717257755306629ull},
  };
  for (const AbtCase& c : cases) {
    util::Rng rng(31 + c.m * 1000 + c.n * 10 + c.k);
    // One float of offset so the operand rows start unaligned.
    std::vector<float> a(c.m * c.n + 1), b(c.k * c.n + 1), out(c.m * c.k + 1);
    fill_gaussian(a, rng);
    fill_gaussian(b, rng);
    tensor::matmul_a_bt(std::span<const float>(a).subspan(1, c.m * c.n),
                        std::span<const float>(b).subspan(1, c.k * c.n),
                        std::span<float>(out).subspan(1, c.m * c.k), c.m, c.n,
                        c.k);
    EXPECT_EQ(fnv1a(kFnvBasis, std::span<const float>(out).subspan(1)),
              c.hash)
        << c.what << " (" << c.m << " x " << c.n << " x " << c.k << ")";
  }
}

// 20 Adam steps over parameters of awkward sizes. The 67-element parameter
// carries every special gradient: ±0, a subnormal, 1e30 (whose square
// overflows v to +inf), one NaN and one +inf on separate elements and steps.
std::uint64_t adam_hash(double weight_decay) {
  const std::size_t sizes[] = {1, 7, 8, 67, 1027};
  std::vector<std::unique_ptr<Param>> owned;
  std::vector<Param*> params;
  util::Rng rng(4242);
  for (std::size_t n : sizes) {
    owned.push_back(std::make_unique<Param>("p", tensor::Shape{n}));
    fill_gaussian(owned.back()->value.data(), rng);
    params.push_back(owned.back().get());
  }
  Adam adam(params, cosine_lr(2e-3, 3, 20), 0.9, 0.999, 1e-8, weight_decay);
  std::uint64_t h = kFnvBasis;
  for (int step = 0; step < 20; ++step) {
    for (Param* p : params) {
      auto g = p->grad.data();
      fill_gaussian(g, rng);
      if (g.size() == 67) {
        g[0] = 0.0f;
        g[1] = -0.0f;
        g[2] = 1e-40f;
        g[3] = 1e30f;
        if (step == 3) g[40] = std::numeric_limits<float>::quiet_NaN();
        if (step == 7) g[41] = std::numeric_limits<float>::infinity();
      }
    }
    adam.step();
    for (const Param* p : params) h = fnv1a(h, p->value.data());
  }
  return h;
}

TEST(StepBits, AdamMatchesRecordedHashes) {
  EXPECT_EQ(adam_hash(0.0), 11540742193105382672ull);
  EXPECT_EQ(adam_hash(0.01), 17723325813695568139ull);
}

// The same 20-step schedule through SGD, with the same special gradients.
// Hashes the weights and the gradients after every step, so the zeroing
// that step() promises is pinned along with the update. Recorded while the
// momentum test still sat inside the element loop and the gradients were
// zeroed by a separate sweep.
std::uint64_t sgd_hash(double momentum, double weight_decay) {
  const std::size_t sizes[] = {1, 7, 8, 67, 1027};
  std::vector<std::unique_ptr<Param>> owned;
  std::vector<Param*> params;
  util::Rng rng(4343);
  for (std::size_t n : sizes) {
    owned.push_back(std::make_unique<Param>("p", tensor::Shape{n}));
    fill_gaussian(owned.back()->value.data(), rng);
    params.push_back(owned.back().get());
  }
  Sgd sgd(params, step_decay_lr(0.1, 5, 0.5), momentum, weight_decay);
  std::uint64_t h = kFnvBasis;
  for (int step = 0; step < 20; ++step) {
    for (Param* p : params) {
      auto g = p->grad.data();
      fill_gaussian(g, rng);
      if (g.size() == 67) {
        g[0] = 0.0f;
        g[1] = -0.0f;
        g[2] = 1e-40f;
        g[3] = 1e30f;
        if (step == 3) g[40] = std::numeric_limits<float>::quiet_NaN();
        if (step == 7) g[41] = std::numeric_limits<float>::infinity();
        if (step == 9) g[42] = -std::numeric_limits<float>::infinity();
      }
    }
    sgd.step();
    for (const Param* p : params) {
      h = fnv1a(h, p->value.data());
      h = fnv1a(h, p->grad.data());
    }
  }
  return h;
}

TEST(StepBits, SgdMatchesRecordedHashes) {
  EXPECT_EQ(sgd_hash(0.0, 0.0), 873696239517523419ull) << "plain";
  EXPECT_EQ(sgd_hash(0.0, 5e-4), 10076913854939500188ull) << "weight decay";
  EXPECT_EQ(sgd_hash(0.9, 0.0), 16062308575471490107ull) << "momentum";
  EXPECT_EQ(sgd_hash(0.9, 5e-4), 5681437224487224585ull)
      << "momentum + weight decay";
}

// Two backward passes (so dW accumulates) through one Conv2d; hashes the
// input gradient and both parameter gradients.
std::uint64_t conv_hash(std::size_t in_c, std::size_t out_c, std::size_t k,
                        std::size_t stride, std::size_t pad, std::size_t hw) {
  util::Rng rng(77 + in_c + out_c + k + stride + pad + hw);
  Conv2d conv(in_c, out_c, k, stride, pad, rng);
  std::uint64_t h = kFnvBasis;
  for (int pass = 0; pass < 2; ++pass) {
    tensor::Tensor x(tensor::Shape{2, in_c, hw, hw});
    fill_gaussian(x.data(), rng);
    const tensor::Tensor& y = conv.forward(x, true);
    tensor::Tensor gy(y.shape());
    fill_gaussian(gy.data(), rng);
    h = fnv1a(h, conv.backward(gy).data());
  }
  std::vector<Param*> params;
  conv.collect_params("", params);
  for (const Param* p : params) h = fnv1a(h, p->grad.data());
  return h;
}

TEST(StepBits, Conv2dBackwardMatchesRecordedHashes) {
  EXPECT_EQ(conv_hash(3, 16, 3, 1, 1, 32), 12574995774694570057ull)
      << "stride 1, pad 1";
  EXPECT_EQ(conv_hash(4, 5, 3, 1, 0, 9), 2593049279025299824ull)
      << "stride 1, pad 0";
  EXPECT_EQ(conv_hash(2, 3, 5, 1, 3, 6), 17960007029576182548ull)
      << "stride 1, pad > k/2";
  EXPECT_EQ(conv_hash(4, 6, 3, 2, 1, 11), 13955291773148474456ull)
      << "stride 2";
}

TEST(StepBits, LinearBackwardMatchesRecordedHash) {
  util::Rng rng(555);
  Linear linear(37, 19, rng);
  std::uint64_t h = kFnvBasis;
  for (int pass = 0; pass < 3; ++pass) {
    tensor::Tensor x(tensor::Shape{5, 37});
    fill_gaussian(x.data(), rng);
    const tensor::Tensor& y = linear.forward(x, true);
    tensor::Tensor gy(y.shape());
    fill_gaussian(gy.data(), rng);
    h = fnv1a(h, linear.backward(gy).data());
  }
  std::vector<Param*> params;
  linear.collect_params("", params);
  for (const Param* p : params) h = fnv1a(h, p->grad.data());
  EXPECT_EQ(h, 14200336888085114499ull);
}


// ------------------------------------------------------ exp, tanh, loss
//
// The exp family of util/simd.h written out again from its description,
// with libm's exact helpers standing in for the bit tricks: nearbyint for
// the shifter rounding (both round x * log2(e) to nearest even) and ldexp
// for the exponent-bit scaling (both round a subnormal result once). The
// softmax cross-entropy below runs its three passes on it. The model-step
// pins further down were recorded with the loss checked against this
// reference at every step, and the exp family is checked against it here.

double reference_exp(double x) {
  if (std::isnan(x)) return x;
  x = std::clamp(x, -746.0, 710.0);
  const double k = std::nearbyint(x * 0x1.71547652b82fep0);
  const double r =
      (x - k * 0x1.62e42fee00000p-1) - k * 0x1.a39ef35793c76p-33;
  // a[i] = 1/(i+2)!, every factorial exact in double.
  double a[12];
  double factorial = 1.0;
  for (int i = 0; i < 12; ++i) {
    factorial *= i + 2;
    a[i] = 1.0 / factorial;
  }
  // Estrin: pairs in r, quads in r^2, then r^4 and r^8.
  const double r2 = r * r;
  const double r4 = r2 * r2;
  const double q = ((a[0] + a[1] * r) + (a[2] + a[3] * r) * r2) +
                   ((a[4] + a[5] * r) + (a[6] + a[7] * r) * r2) * r4 +
                   ((a[8] + a[9] * r) + (a[10] + a[11] * r) * r2) * (r4 * r4);
  return std::ldexp(1.0 + (r + r2 * q), static_cast<int>(k));
}

float reference_tanh(float x) {
  const double a = std::fabs(static_cast<double>(x));
  if (a < 0x1p-14) return x;
  const double e = reference_exp(-2.0 * a);
  return static_cast<float>(std::copysign((1.0 - e) / (1.0 + e), x));
}

// Max pass (NaN skipped), exp pass summed in lane i % 8, scale pass.
double reference_softmax_xent(const tensor::Tensor& logits,
                              std::span<const int> targets,
                              std::size_t classes, std::vector<float>& grad) {
  const std::size_t rows = logits.numel() / classes;
  grad.assign(logits.numel(), 0.0f);
  std::vector<double> e(classes);
  const float inv_rows = 1.0f / static_cast<float>(rows);
  double total = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = logits.data().data() + r * classes;
    float max_logit = -std::numeric_limits<float>::infinity();
    for (std::size_t c = 0; c < classes; ++c) {
      if (max_logit < row[c]) max_logit = row[c];
    }
    double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (std::size_t c = 0; c < classes; ++c) {
      e[c] = reference_exp(static_cast<double>(row[c]) - max_logit);
      lanes[c % 8] += e[c];
    }
    const double denom = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
                         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    const auto t = static_cast<std::size_t>(targets[r]);
    total += std::log(denom) - (static_cast<double>(row[t]) - max_logit);
    for (std::size_t c = 0; c < classes; ++c) {
      const float p = static_cast<float>(e[c] * (1.0 / denom));
      grad[r * classes + c] = (p - (c == t ? 1.0f : 0.0f)) * inv_rows;
    }
  }
  return total / static_cast<double>(rows);
}

std::uint64_t bits64(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(StepBits, ExpFamilyMatchesTheReferenceAtEveryLevel) {
  std::vector<double> x;
  for (int i = 0; i <= 30000; ++i) x.push_back(-746.0 + 1456.0 * i / 30000);
  for (int i = 0; i <= 3000; ++i) x.push_back(-3.0 + 6.0 * i / 3000);
  for (double v : {0.0, -0.0, 709.782712893384, -745.1332191019411,
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    x.push_back(v);
  }
  std::vector<float> xf;
  for (int i = -6000; i <= 6000; ++i) xf.push_back(i * 2.5e-3f);
  for (float v : {0.0f, -0.0f, 1e-40f, -1e-40f, 6.1e-5f, -6.1e-5f, kInf,
                  -kInf}) {
    xf.push_back(v);
  }
  for (util::simd::Level l : test::simd_levels()) {
    test::ScopedLevel lvl(l);
    std::vector<double> y(x.size());
    util::simd::exp(x, y);
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(bits64(y[i]), bits64(reference_exp(x[i])))
          << util::simd::level_name(l) << " exp(" << x[i] << ")";
    }
    std::vector<float> t(xf.size());
    util::simd::tanh(xf, t);
    for (std::size_t i = 0; i < xf.size(); ++i) {
      ASSERT_EQ(bits(t[i]), bits(reference_tanh(xf[i])))
          << util::simd::level_name(l) << " tanh(" << xf[i] << ")";
    }
  }
}

// ------------------------------------------------------------ model steps
//
// One training step's bits for whole models: every step hashes the forward
// output, the gradient w.r.t. the model input and every parameter gradient,
// then takes an Adam step so the next step runs on moved weights. Three
// steps per model, and the batch size changes between them (big, small,
// big again), so a layer that reuses its buffers across calls must still
// produce exactly what a freshly allocated one does after a shape change.
// The expected hashes were recorded with layers that allocated fresh
// output and gradient tensors on every call. The two transformer pins
// (GELU, attention softmax and the loss all on util::simd's exp) were
// re-recorded when that exp replaced libm, with every step's loss and
// gradient equal to reference_softmax_xent's; the other five did not move.

struct ModelCase {
  std::unique_ptr<Module> model;
  std::size_t classes;
  // One batch of `batch` rows: the input tensor and one target per
  // output row.
  std::function<tensor::Tensor(util::Rng&, std::size_t batch)> input;
  std::size_t targets_per_row = 1;
};

std::uint64_t model_step_hash(ModelCase c, std::uint64_t seed) {
  std::vector<Param*> params = parameters(*c.model);
  Adam adam(params, constant_lr(1e-2));
  util::Rng rng(seed);
  std::uint64_t h = kFnvBasis;
  const std::size_t batches[] = {4, 2, 4};
  for (std::size_t batch : batches) {
    const tensor::Tensor x = c.input(rng, batch);
    const tensor::Tensor& y = c.model->forward(x, /*train=*/true);
    h = fnv1a(h, y.data());
    std::vector<int> targets(y.numel() / c.classes);
    for (int& t : targets) t = static_cast<int>(rng.next_below(c.classes));
    SoftmaxCrossEntropy xent(c.classes);
    const double loss = xent.forward(y, targets);
    std::vector<float> want_grad;
    EXPECT_EQ(bits64(loss),
              bits64(reference_softmax_xent(y, targets, c.classes, want_grad)));
    std::size_t diverged = 0;
    for (std::size_t i = 0; i < want_grad.size(); ++i) {
      diverged += bits(xent.grad().at(i)) != bits(want_grad[i]);
    }
    EXPECT_EQ(diverged, 0u) << "gradient elements off the reference";
    h = fnv1a(h, c.model->backward(xent.grad()).data());
    for (const Param* p : params) h = fnv1a(h, p->grad.data());
    adam.step();
  }
  return h;
}

tensor::Tensor gaussian_input(util::Rng& rng, tensor::Shape shape) {
  tensor::Tensor x(std::move(shape));
  fill_gaussian(x.data(), rng);
  return x;
}

tensor::Tensor token_input(util::Rng& rng, std::size_t batch,
                           std::size_t seq, std::size_t vocab) {
  tensor::Tensor x(tensor::Shape{batch, seq});
  for (float& v : x.data()) v = static_cast<float>(rng.next_below(vocab));
  return x;
}

TEST(StepBits, VggMiniStepMatchesRecordedHash) {
  util::Rng init(1001);
  ModelCase c{models::make_vgg_mini(3, 16, 10, init), 10,
              [](util::Rng& rng, std::size_t b) {
                return gaussian_input(rng, {b, 3, 16, 16});
              }};
  EXPECT_EQ(model_step_hash(std::move(c), 11), 4434484963813739339ull);
}

TEST(StepBits, MlpStepMatchesRecordedHash) {
  util::Rng init(1002);
  ModelCase c{models::make_mlp(37, 64, 10, init), 10,
              [](util::Rng& rng, std::size_t b) {
                return gaussian_input(rng, {b, 37});
              }};
  EXPECT_EQ(model_step_hash(std::move(c), 12), 10281401943707261387ull);
}

TEST(StepBits, TinyTransformerLmStepMatchesRecordedHash) {
  util::Rng init(1003);
  ModelCase c{std::make_unique<models::TinyTransformerLM>(50, 32, 4, 2, 16,
                                                          init),
              50, [](util::Rng& rng, std::size_t b) {
                return token_input(rng, b, 12, 50);
              }};
  EXPECT_EQ(model_step_hash(std::move(c), 13), 16006837498494792901ull);
}

TEST(StepBits, TwoTowerStepMatchesRecordedHash) {
  util::Rng init(1004);
  ModelCase c{models::make_two_tower(29, 48, 7, init), 7,
              [](util::Rng& rng, std::size_t b) {
                return gaussian_input(rng, {b, 29});
              }};
  EXPECT_EQ(model_step_hash(std::move(c), 14), 12542312803799487859ull);
}

// The remaining models cover the layers the four above do not reach:
// BatchNorm2d, GlobalAvgPool, the residual block, a Graph fan-in join of
// convolutions, and the bidirectional encoder.
TEST(StepBits, ResNetMiniStepMatchesRecordedHash) {
  util::Rng init(1005);
  ModelCase c{models::make_resnet_mini(3, 8, 5, init), 5,
              [](util::Rng& rng, std::size_t b) {
                return gaussian_input(rng, {b, 3, 8, 8});
              }};
  EXPECT_EQ(model_step_hash(std::move(c), 15), 2831734912442209516ull);
}

TEST(StepBits, SkipJoinCnnStepMatchesRecordedHash) {
  util::Rng init(1006);
  ModelCase c{models::make_skipjoin_cnn(3, 8, 5, init), 5,
              [](util::Rng& rng, std::size_t b) {
                return gaussian_input(rng, {b, 3, 8, 8});
              }};
  EXPECT_EQ(model_step_hash(std::move(c), 16), 4197262997647840990ull);
}

TEST(StepBits, TinyBertQaStepMatchesRecordedHash) {
  util::Rng init(1007);
  ModelCase c{std::make_unique<models::TinyBertQa>(40, 32, 2, 1, 16, init),
              2, [](util::Rng& rng, std::size_t b) {
                return token_input(rng, b, 10, 40);
              }};
  EXPECT_EQ(model_step_hash(std::move(c), 17), 17556430967286610097ull);
}

// ------------------------------------------------------ ReLU / MaxPool
//
// The activation mask and the pooling argmax on the values where a select
// can drift from a compare-and-branch: NaN, ±0, ±inf, subnormals and ties.

TEST(StepBits, ReluEdgeCases) {
  const float specials[] = {kNaN, 0.0f, -0.0f, -1.0f, 1.0f, kInf, -kInf,
                            1e-40f, -1e-40f};
  ReLU relu;
  // Forward: max(x, 0) with NaN and -0 mapped to +0.
  tensor::Tensor x(tensor::Shape{1, 9});
  std::copy(std::begin(specials), std::end(specials), x.data().begin());
  const tensor::Tensor& y = relu.forward(x, true);
  const float want_y[] = {0.0f, 0.0f, 0.0f, 0.0f, 1.0f, kInf, 0.0f,
                          1e-40f, 0.0f};
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(bits(y.at(i)), bits(want_y[i])) << "forward x = " << specials[i];
  }
  // Backward: the gradient survives where x > 0 or x is NaN (x <= 0 is
  // false); elsewhere it becomes +0, whatever its sign or NaN-ness.
  tensor::Tensor g(tensor::Shape{1, 9}, -2.5f);
  g.at(0) = -0.0f;
  const tensor::Tensor& gx = relu.backward(g);
  const float want_g[] = {-0.0f, 0.0f, 0.0f, 0.0f, -2.5f, -2.5f, 0.0f,
                          -2.5f, 0.0f};
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(bits(gx.at(i)), bits(want_g[i])) << "backward x = "
                                                << specials[i];
  }
  // Every pairing of special x and special gradient, at lengths that leave
  // a vector tail, hashed.
  std::uint64_t h = kFnvBasis;
  for (std::size_t n : {std::size_t{81}, std::size_t{83}}) {
    tensor::Tensor xs(tensor::Shape{n});
    tensor::Tensor gs(tensor::Shape{n});
    for (std::size_t i = 0; i < n; ++i) {
      xs.at(i) = specials[i % 9];
      gs.at(i) = specials[(i / 9) % 9];
    }
    h = fnv1a(h, relu.forward(xs, true).data());
    h = fnv1a(h, relu.backward(gs).data());
  }
  EXPECT_EQ(h, 6986403714024449900ull);
}

TEST(StepBits, MaxPoolEdgeCases) {
  // One [1, 1, 2, 12] image, six 2x2 windows:
  //   0: a tie (3, 3): the first maximum in window order wins;
  //   1: a 1 beside three NaNs: NaN never compares greater, the 1 wins;
  //   2: all NaN: nothing beats the -inf start, so the output is -inf and
  //      the argmax stays at flat index 0 (the first element of the
  //      tensor, outside this window);
  //   3: +0 then -0: neither is greater than the other, +0 (first) wins;
  //   4: all -inf: as all-NaN;
  //   5: subnormal beside -0: the subnormal wins.
  const float top[] = {3, 1, 1, kNaN, kNaN, kNaN, 0.0f, -0.0f, -kInf, -kInf,
                       -0.0f, 1e-40f};
  const float bottom[] = {3, 2, kNaN, kNaN, kNaN, kNaN, -0.0f, 0.0f, -kInf,
                          -kInf, -0.0f, -0.0f};
  tensor::Tensor x(tensor::Shape{1, 1, 2, 12});
  for (std::size_t i = 0; i < 12; ++i) {
    x.at(i) = top[i];
    x.at(12 + i) = bottom[i];
  }
  MaxPool2d pool(2);
  const tensor::Tensor& y = pool.forward(x, true);
  const float want_y[] = {3, 1, -kInf, 0.0f, -kInf, 1e-40f};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(bits(y.at(i)), bits(want_y[i])) << "window " << i;
  }
  tensor::Tensor g(tensor::Shape{1, 1, 1, 6});
  for (std::size_t i = 0; i < 6; ++i) g.at(i) = static_cast<float>(i + 1);
  const tensor::Tensor& gx = pool.backward(g);
  // Windows 0 and 2 and 4 route to flat index 0 (window 0's first element,
  // and the all-NaN/all--inf fallback), so it collects 1 + 3 + 5.
  std::vector<float> want_g(24, 0.0f);
  want_g[0] = 1 + 3 + 5;
  want_g[2] = 2;   // window 1: the 1 at top-left
  want_g[6] = 4;   // window 3: +0 at top-left
  want_g[11] = 6;  // window 5: the subnormal at top-right
  for (std::size_t i = 0; i < 24; ++i) {
    EXPECT_EQ(bits(gx.at(i)), bits(want_g[i])) << "input " << i;
  }
  // Larger pools with many ties and scattered NaNs, windows 2 and 3,
  // hashed.
  std::uint64_t h = kFnvBasis;
  util::Rng rng(808);
  for (std::size_t window : {std::size_t{2}, std::size_t{3}}) {
    MaxPool2d p(window);
    const std::size_t hw = 6 * window;
    tensor::Tensor xs(tensor::Shape{2, 3, hw, hw});
    for (float& v : xs.data()) {
      const std::uint64_t r = rng.next_below(8);
      v = r == 0 ? kNaN : r == 1 ? -0.0f : static_cast<float>(r % 3);
    }
    const tensor::Tensor& ys = p.forward(xs, true);
    h = fnv1a(h, ys.data());
    tensor::Tensor gs(ys.shape());
    fill_gaussian(gs.data(), rng);
    h = fnv1a(h, p.backward(gs).data());
  }
  EXPECT_EQ(h, 17094707872413789762ull);
}

}  // namespace
}  // namespace cgx::nn
