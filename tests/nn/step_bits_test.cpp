// Pins the exact bits of the step's compute hot loops: the A·Bᵀ product
// (Conv2d dW, Linear dX, attention scores), the Adam update, and the two
// layer backward passes built on them. Each case folds its outputs into one
// FNV-1a hash. The expected hashes were recorded from the per-output
// reduce_dot loop, the per-element scalar Adam loop, the per-pixel col2im
// scatter and the allocate-per-call Linear dW, before any of them was
// vectorized, so any drift in accumulation order, rounding or operand
// order shows up here. The hashes are the same under CGX_SIMD=off/sse2/auto
// (the kernels are bit-identical by contract).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "nn/conv.h"
#include "nn/layers.h"
#include "nn/optim.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace cgx::nn {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

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

}  // namespace
}  // namespace cgx::nn
