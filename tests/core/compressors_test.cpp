#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "core/compression_config.h"
#include "core/compressor.h"
#include "core/error_feedback.h"
#include "core/nuq.h"
#include "core/onebit.h"
#include "core/powersgd.h"
#include "core/qsgd.h"
#include "core/terngrad.h"
#include "core/topk.h"
#include "simd_levels.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "util/simd.h"

namespace cgx::core {
namespace {

std::vector<float> random_vector(std::size_t n, std::uint64_t seed,
                                 float scale = 1.0f) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = scale * static_cast<float>(rng.next_gaussian());
  return v;
}

std::vector<float> roundtrip(Compressor& c, std::span<const float> in,
                             util::Rng& rng) {
  std::vector<std::byte> payload(c.compressed_size(in.size()));
  const std::size_t written = c.compress(in, payload, rng);
  EXPECT_LE(written, payload.size());
  std::vector<float> out(in.size());
  c.decompress({payload.data(), written}, out);
  return out;
}

// ------------------------------------------------------------------ None

TEST(NoneCompressor, LosslessRoundTrip) {
  NoneCompressor c;
  util::Rng rng(1);
  const auto in = random_vector(1003, 5);
  EXPECT_EQ(roundtrip(c, in, rng), in);
  EXPECT_TRUE(c.lossless());
  EXPECT_EQ(c.compressed_size(10), 40u);
}

// ------------------------------------------------------------------ FP16

TEST(Fp16Compressor, HalvesTheWireSize) {
  Fp16Compressor c;
  EXPECT_EQ(c.compressed_size(100), 200u);
}

TEST(Fp16Compressor, RoundTripWithinHalfPrecision) {
  Fp16Compressor c;
  util::Rng rng(2);
  const auto in = random_vector(500, 7, 10.0f);
  const auto out = roundtrip(c, in, rng);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(out[i], in[i], std::fabs(in[i]) * 0x1.0p-10f + 1e-6f);
  }
}

// ------------------------------------------------------------------ Fake

TEST(FakeCompressor, TransmitsPrefixOnly) {
  FakeCompressor c(4.0);
  util::Rng rng(3);
  std::vector<float> in = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(c.compressed_size(8), 8u);  // 2 floats
  const auto out = roundtrip(c, in, rng);
  EXPECT_EQ(out[0], 1.0f);
  EXPECT_EQ(out[1], 2.0f);
  for (std::size_t i = 2; i < 8; ++i) EXPECT_EQ(out[i], 0.0f);
}

TEST(FakeCompressor, RatioOneIsIdentity) {
  FakeCompressor c(1.0);
  util::Rng rng(3);
  const auto in = random_vector(64, 9);
  EXPECT_EQ(roundtrip(c, in, rng), in);
}

// ------------------------------------------------------------------ QSGD

class QsgdBitsTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(QsgdBitsTest, RoundTripValuesOnGrid) {
  const unsigned bits = GetParam();
  QsgdCompressor c(bits, 128);
  util::Rng rng(10 + bits);
  const auto in = random_vector(1000, 11);
  const auto out = roundtrip(c, in, rng);
  // Every reconstructed value must lie on the bucket's quantization grid.
  const auto s = static_cast<float>((1u << (bits - 1)) - 1);
  for (std::size_t b = 0; b < in.size(); b += 128) {
    const std::size_t len = std::min<std::size_t>(128, in.size() - b);
    const auto norm = static_cast<float>(
        tensor::l2_norm(std::span<const float>(in).subspan(b, len)));
    for (std::size_t i = b; i < b + len; ++i) {
      const float level = std::fabs(out[i]) * s / norm;
      EXPECT_NEAR(level, std::round(level), 1e-3f) << "bits=" << bits;
    }
  }
}

TEST_P(QsgdBitsTest, UnbiasedEstimator) {
  // E[Q(v)] = v: average many independent quantizations.
  const unsigned bits = GetParam();
  QsgdCompressor c(bits, 64);
  util::Rng rng(100 + bits);
  const auto in = random_vector(64, 13);
  std::vector<double> mean(in.size(), 0.0);
  const int reps = bits >= 6 ? 400 : 3000;
  for (int r = 0; r < reps; ++r) {
    const auto out = roundtrip(c, in, rng);
    for (std::size_t i = 0; i < in.size(); ++i) mean[i] += out[i];
  }
  const double norm = tensor::l2_norm(in);
  for (std::size_t i = 0; i < in.size(); ++i) {
    mean[i] /= reps;
    // Tolerance ~ 4 sigma of the empirical mean; sigma per sample is at
    // most norm/s.
    const double s = (1u << (bits - 1)) - 1;
    const double tol = 4.0 * (norm / s) / std::sqrt(double(reps)) + 1e-3;
    EXPECT_NEAR(mean[i], in[i], tol) << "bits=" << bits << " i=" << i;
  }
}

TEST_P(QsgdBitsTest, ErrorWithinQsgdVarianceBound) {
  const unsigned bits = GetParam();
  const std::size_t bucket = 128;
  QsgdCompressor c(bits, bucket);
  util::Rng rng(200 + bits);
  const auto in = random_vector(1024, 17);
  // Average the squared error over repetitions and compare against the
  // per-bucket analytic bound sum ||v_b||^2 * min(d/s^2, sqrt(d)/s).
  double bound = 0.0;
  for (std::size_t b = 0; b < in.size(); b += bucket) {
    const std::size_t len = std::min(bucket, in.size() - b);
    bound += tensor::squared_norm(
                 std::span<const float>(in).subspan(b, len)) *
             QsgdCompressor::variance_bound(len, bits);
  }
  double err = 0.0;
  const int reps = 50;
  for (int r = 0; r < reps; ++r) {
    const auto out = roundtrip(c, in, rng);
    for (std::size_t i = 0; i < in.size(); ++i) {
      const double d = double(out[i]) - in[i];
      err += d * d;
    }
  }
  err /= reps;
  EXPECT_LE(err, bound * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Widths, QsgdBitsTest,
                         ::testing::Values(2u, 3u, 4u, 6u, 8u));

TEST(Qsgd, WireSizeArithmetic) {
  // 4 bits, bucket 128, 1024 elements: 8 norms (32 B) + 512 B of symbols.
  QsgdCompressor c(4, 128);
  EXPECT_EQ(c.compressed_size(1024), 8 * 4 + 512u);
  // Compression ratio vs FP32 is ~7.5x at 4 bits / bucket 128.
  const double ratio = 4096.0 / static_cast<double>(c.compressed_size(1024));
  EXPECT_NEAR(ratio, 7.5, 0.1);
}

TEST(Qsgd, SmallerBucketsLowerError) {
  util::Rng rng(31);
  const auto in = random_vector(4096, 37);
  double errors[2];
  std::size_t buckets[2] = {64, 2048};
  for (int k = 0; k < 2; ++k) {
    QsgdCompressor c(4, buckets[k]);
    double err = 0.0;
    for (int r = 0; r < 20; ++r) {
      const auto out = roundtrip(c, in, rng);
      for (std::size_t i = 0; i < in.size(); ++i) {
        const double d = double(out[i]) - in[i];
        err += d * d;
      }
    }
    errors[k] = err;
  }
  EXPECT_LT(errors[0], errors[1]);
}

TEST(Qsgd, MoreBitsLowerError) {
  util::Rng rng(41);
  const auto in = random_vector(2048, 43);
  double prev = 1e30;
  for (unsigned bits : {2u, 4u, 8u}) {
    QsgdCompressor c(bits, 128);
    double err = 0.0;
    for (int r = 0; r < 20; ++r) {
      const auto out = roundtrip(c, in, rng);
      for (std::size_t i = 0; i < in.size(); ++i) {
        const double d = double(out[i]) - in[i];
        err += d * d;
      }
    }
    EXPECT_LT(err, prev) << "bits=" << bits;
    prev = err;
  }
}

TEST(Qsgd, ZeroVectorStaysZero) {
  QsgdCompressor c(4, 128);
  util::Rng rng(5);
  std::vector<float> in(300, 0.0f);
  const auto out = roundtrip(c, in, rng);
  for (float v : out) EXPECT_EQ(v, 0.0f);
}

TEST(Qsgd, NonMultipleBucketTail) {
  QsgdCompressor c(4, 128);
  util::Rng rng(6);
  const auto in = random_vector(200, 7);  // 1 full bucket + 72 tail
  const auto out = roundtrip(c, in, rng);
  EXPECT_EQ(out.size(), in.size());
  // Reconstruction error should be sane on the tail bucket too.
  const double err = [&] {
    double e = 0.0;
    for (std::size_t i = 128; i < 200; ++i) {
      const double d = double(out[i]) - in[i];
      e += d * d;
    }
    return e;
  }();
  const double tail_norm = tensor::squared_norm(
      std::span<const float>(in).subspan(128, 72));
  EXPECT_LE(err, tail_norm * QsgdCompressor::variance_bound(72, 4) * 3.0);
}

TEST(Qsgd, LinfNormVariant) {
  QsgdCompressor c(4, 128, QsgdNorm::Linf);
  util::Rng rng(8);
  const auto in = random_vector(512, 9);
  const auto out = roundtrip(c, in, rng);
  // Linf-normalized values stay within the bucket max.
  for (std::size_t b = 0; b < in.size(); b += 128) {
    const auto max = tensor::linf_norm(
        std::span<const float>(in).subspan(b, 128));
    for (std::size_t i = b; i < b + 128; ++i) {
      EXPECT_LE(std::fabs(out[i]), max * 1.001f);
    }
  }
}

// ------------------------------------------------------------------ TopK

TEST(TopK, KeepsExactlyTheLargestMagnitudes) {
  TopKCompressor c(0.25);
  util::Rng rng(1);
  std::vector<float> in = {0.1f, -5.0f, 0.2f, 3.0f, -0.3f, 1.0f, 0.0f, -2.0f};
  const auto out = roundtrip(c, in, rng);  // k = 2
  EXPECT_EQ(out[1], -5.0f);
  EXPECT_EQ(out[3], 3.0f);
  for (std::size_t i : {0u, 2u, 4u, 5u, 6u, 7u}) EXPECT_EQ(out[i], 0.0f);
}

TEST(TopK, RatioOneIsIdentity) {
  TopKCompressor c(1.0);
  util::Rng rng(2);
  const auto in = random_vector(100, 3);
  EXPECT_EQ(roundtrip(c, in, rng), in);
}

TEST(TopK, CompressedSizeMatchesK) {
  TopKCompressor c(0.01);
  EXPECT_EQ(c.k_for(1000), 10u);
  EXPECT_EQ(c.compressed_size(1000), 8 + 10 * 8u);
  EXPECT_EQ(c.k_for(5), 1u);  // at least one element survives
}

TEST(TopK, BestRankKApproximationProperty) {
  // No other k-sparse vector is closer in L2 than the top-k selection.
  TopKCompressor c(0.1);
  util::Rng rng(4);
  const auto in = random_vector(200, 5);
  const auto out = roundtrip(c, in, rng);
  std::vector<float> diff(in.size());
  tensor::sub(in, out, diff);
  const double err = tensor::squared_norm(diff);
  // Error equals the squared norm of the dropped entries; verify against a
  // random alternative selection of the same sparsity.
  std::vector<float> alt(in.size(), 0.0f);
  for (std::size_t i = 0; i < c.k_for(in.size()); ++i) alt[i] = in[i];
  std::vector<float> alt_diff(in.size());
  tensor::sub(in, alt, alt_diff);
  EXPECT_LE(err, tensor::squared_norm(alt_diff) + 1e-9);
}

// ------------------------------------------------------------------ TernGrad

TEST(TernGrad, ValuesAreTernary) {
  TernGradCompressor c(128);
  util::Rng rng(11);
  const auto in = random_vector(512, 12);
  const auto out = roundtrip(c, in, rng);
  for (std::size_t b = 0; b < in.size(); b += 128) {
    const float scale = tensor::linf_norm(
        std::span<const float>(in).subspan(b, 128));
    for (std::size_t i = b; i < b + 128; ++i) {
      const bool ok = out[i] == 0.0f || out[i] == scale || out[i] == -scale;
      EXPECT_TRUE(ok) << out[i] << " scale " << scale;
    }
  }
}

TEST(TernGrad, Unbiased) {
  TernGradCompressor c(64);
  util::Rng rng(13);
  const auto in = random_vector(64, 14);
  std::vector<double> mean(in.size(), 0.0);
  const int reps = 4000;
  for (int r = 0; r < reps; ++r) {
    const auto out = roundtrip(c, in, rng);
    for (std::size_t i = 0; i < in.size(); ++i) mean[i] += out[i];
  }
  const float scale = tensor::linf_norm(in);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(mean[i] / reps, in[i],
                4.0 * scale / std::sqrt(double(reps)) + 1e-3);
  }
}

TEST(TernGrad, TwoBitWireSize) {
  TernGradCompressor c(512);
  // 1024 elements: 2 scales + 2048 bits = 256 bytes.
  EXPECT_EQ(c.compressed_size(1024), 2 * 4 + 256u);
}

// ------------------------------------------------------------------ OneBit

TEST(OneBit, ReconstructsSignMeans) {
  OneBitCompressor c(8);
  util::Rng rng(15);
  std::vector<float> in = {1.0f, 3.0f, -2.0f, -4.0f, 2.0f, -6.0f, 5.0f, 0.0f};
  const auto out = roundtrip(c, in, rng);
  // mean_pos = (1+3+2+5+0)/5 = 2.2, mean_neg = (-2-4-6)/3 = -4.
  for (std::size_t i : {0u, 1u, 4u, 6u, 7u}) EXPECT_FLOAT_EQ(out[i], 2.2f);
  for (std::size_t i : {2u, 3u, 5u}) EXPECT_FLOAT_EQ(out[i], -4.0f);
}

TEST(OneBit, WireSizeOneBitPerElement) {
  OneBitCompressor c(512);
  EXPECT_EQ(c.compressed_size(1024), 2 * 8 + 128u);
}

// ------------------------------------------------------------------ PowerSGD

TEST(PowerSgd, ExactOnRankOneMatrices) {
  // A rank-1 matrix is reproduced (nearly) exactly by a rank-1 projection.
  const std::size_t m = 16, n = 24;
  std::vector<float> u = random_vector(m, 21);
  std::vector<float> v = random_vector(n, 22);
  std::vector<float> mat(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) mat[i * n + j] = u[i] * v[j];
  }
  PowerSgdCompressor c(m, 1);
  util::Rng rng(23);
  // Two compress cycles: the first warms up Q, the second is near-exact.
  auto out = roundtrip(c, mat, rng);
  out = roundtrip(c, mat, rng);
  for (std::size_t i = 0; i < mat.size(); ++i) {
    EXPECT_NEAR(out[i], mat[i], 1e-3f);
  }
}

TEST(PowerSgd, CompressedSizeIsLowRank) {
  PowerSgdCompressor c(64, 4);
  // 64x64 matrix at rank 4: (64+64)*4 floats = 2048 bytes vs 16384 raw.
  EXPECT_EQ(c.compressed_size(64 * 64), 4 * 4 * (64 + 64));
}

TEST(PowerSgd, VectorFallsBackToPassthrough) {
  PowerSgdCompressor c(0, 4);
  util::Rng rng(25);
  const auto in = random_vector(100, 26);
  EXPECT_EQ(c.compressed_size(100), 400u);
  EXPECT_EQ(roundtrip(c, in, rng), in);
}

TEST(PowerSgd, WarmStartImprovesApproximation) {
  const std::size_t m = 24, n = 24;
  // Rank-2 matrix.
  std::vector<float> mat(m * n, 0.0f);
  util::Rng gen(27);
  for (int rank = 0; rank < 2; ++rank) {
    const auto u = random_vector(m, 28 + rank);
    const auto v = random_vector(n, 30 + rank);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) mat[i * n + j] += u[i] * v[j];
    }
  }
  PowerSgdCompressor c(m, 2);
  util::Rng rng(31);
  double first_err = 0.0, later_err = 0.0;
  for (int iter = 0; iter < 6; ++iter) {
    const auto out = roundtrip(c, mat, rng);
    double err = 0.0;
    for (std::size_t i = 0; i < mat.size(); ++i) {
      const double d = double(out[i]) - mat[i];
      err += d * d;
    }
    if (iter == 0) first_err = err;
    if (iter == 5) later_err = err;
  }
  EXPECT_LT(later_err, first_err);
  EXPECT_LT(later_err, 1e-4);
}

TEST(PowerSgd, Orthonormalization) {
  const std::size_t m = 10, r = 3;
  auto a = random_vector(m * r, 33);
  orthonormalize_columns(a, m, r);
  for (std::size_t j = 0; j < r; ++j) {
    for (std::size_t k = 0; k <= j; ++k) {
      double d = 0.0;
      for (std::size_t i = 0; i < m; ++i) d += double(a[i * r + j]) * a[i * r + k];
      EXPECT_NEAR(d, j == k ? 1.0 : 0.0, 1e-5);
    }
  }
}

// ------------------------------------------------------------------ EF

TEST(ErrorFeedback, ResidualAccumulatesDroppedMass) {
  auto ef = ErrorFeedback(std::make_unique<TopKCompressor>(0.1));
  util::Rng rng(35);
  const auto in = random_vector(100, 36);
  std::vector<std::byte> payload(ef.compressed_size(in.size()));
  ef.compress(in, payload, rng);
  EXPECT_GT(ef.residual_norm(), 0.0);
}

TEST(ErrorFeedback, LosslessInnerLeavesNoResidual) {
  auto ef = ErrorFeedback(std::make_unique<NoneCompressor>());
  util::Rng rng(37);
  const auto in = random_vector(64, 38);
  std::vector<std::byte> payload(ef.compressed_size(in.size()));
  ef.compress(in, payload, rng);
  EXPECT_NEAR(ef.residual_norm(), 0.0, 1e-7);
}

TEST(ErrorFeedback, ReinjectsResidualNextStep) {
  // With a constant gradient, the long-run average of EF outputs converges
  // to the gradient even under aggressive sparsification.
  auto ef = ErrorFeedback(std::make_unique<TopKCompressor>(0.05));
  util::Rng rng(39);
  const auto grad = random_vector(200, 40);
  std::vector<double> mean(grad.size(), 0.0);
  const int steps = 400;
  std::vector<std::byte> payload(ef.compressed_size(grad.size()));
  std::vector<float> out(grad.size());
  for (int s = 0; s < steps; ++s) {
    const std::size_t written = ef.compress(grad, payload, rng);
    ef.decompress({payload.data(), written}, out);
    for (std::size_t i = 0; i < out.size(); ++i) mean[i] += out[i];
  }
  for (std::size_t i = 0; i < grad.size(); ++i) {
    EXPECT_NEAR(mean[i] / steps, grad[i], std::fabs(grad[i]) * 0.1 + 0.05);
  }
}

// ------------------------------------------------------------------ factory

TEST(Factory, InstantiatesEveryMethod) {
  for (Method m : {Method::None, Method::Fp16, Method::Qsgd, Method::TopK,
                   Method::PowerSgd, Method::TernGrad, Method::OneBit,
                   Method::Fake}) {
    LayerCompression cfg;
    cfg.method = m;
    auto c = make_compressor(cfg, /*layer_rows=*/8);
    ASSERT_NE(c, nullptr) << method_name(m);
    util::Rng rng(50);
    const auto in = random_vector(64, 51);
    std::vector<std::byte> payload(c->compressed_size(in.size()));
    const std::size_t written = c->compress(in, payload, rng);
    std::vector<float> out(in.size());
    c->decompress({payload.data(), written}, out);
  }
}

TEST(Factory, ErrorFeedbackWrapping) {
  LayerCompression cfg;
  cfg.method = Method::TopK;
  cfg.error_feedback = true;
  auto c = make_compressor(cfg, 0);
  EXPECT_EQ(c->name().rfind("ef+", 0), 0u);
}

// ------------------------------------------------- SIMD level invariance
//
// The quantizers route their hot loops through util::simd; the wire payload
// and the reconstruction must be bit-identical at every dispatch level
// (scalar is the specification — see util/simd.h). Ragged sizes exercise
// partial buckets and the pack/unpack tail paths.

template <typename MakeCompressor>
void expect_level_invariant_payload(MakeCompressor make, std::size_t n,
                                    std::uint64_t seed) {
  const auto in = random_vector(n, seed);
  std::vector<std::byte> ref_payload;
  std::vector<float> ref_out(n);
  std::size_t ref_written = 0;
  {
    test::ScopedLevel lvl(util::simd::Level::kScalar);
    auto c = make();
    ref_payload.resize(c->compressed_size(n));
    util::Rng rng(seed + 1);
    ref_written = c->compress(in, ref_payload, rng);
    c->decompress({ref_payload.data(), ref_written}, ref_out);
  }
  for (util::simd::Level level : test::simd_levels()) {
    SCOPED_TRACE(::testing::Message()
                 << "n=" << n << " level=" << util::simd::level_name(level));
    test::ScopedLevel lvl(level);
    auto c = make();
    std::vector<std::byte> payload(c->compressed_size(n));
    util::Rng rng(seed + 1);  // same RNG stream at every level
    const std::size_t written = c->compress(in, payload, rng);
    ASSERT_EQ(ref_written, written);
    EXPECT_EQ(0, std::memcmp(ref_payload.data(), payload.data(), written));
    std::vector<float> out(n);
    c->decompress({payload.data(), written}, out);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(ref_out[i]),
                std::bit_cast<std::uint32_t>(out[i]))
          << "i=" << i;
    }
  }
}

TEST(SimdLevels, QsgdPayloadBitIdentical) {
  for (unsigned bits : {2u, 4u, 8u}) {
    for (std::size_t n : {1ul, 63ul, 128ul, 129ul, 1000ul}) {
      SCOPED_TRACE(::testing::Message() << "bits=" << bits);
      expect_level_invariant_payload(
          [bits] { return std::make_unique<QsgdCompressor>(bits, 128); }, n,
          9000 + bits);
    }
  }
}

TEST(SimdLevels, NuqPayloadBitIdentical) {
  for (unsigned bits : {2u, 4u, 8u}) {
    for (std::size_t n : {1ul, 63ul, 128ul, 129ul, 1000ul}) {
      SCOPED_TRACE(::testing::Message() << "bits=" << bits);
      expect_level_invariant_payload(
          [bits] { return std::make_unique<NuqCompressor>(bits, 128); }, n,
          9100 + bits);
    }
  }
}

TEST(SimdLevels, ErrorFeedbackResidualBitIdentical) {
  const std::size_t n = 500;
  const auto step1 = random_vector(n, 42);
  const auto step2 = random_vector(n, 43);
  std::vector<float> ref1(n), ref2(n);
  {
    test::ScopedLevel lvl(util::simd::Level::kScalar);
    ErrorFeedback ef(std::make_unique<QsgdCompressor>(4, 128), 0.9f);
    util::Rng rng(44);
    std::vector<std::byte> payload(ef.compressed_size(n));
    std::size_t w = ef.compress(step1, payload, rng);
    ef.decompress({payload.data(), w}, ref1);
    w = ef.compress(step2, payload, rng);
    ef.decompress({payload.data(), w}, ref2);
  }
  for (util::simd::Level level : test::simd_levels()) {
    SCOPED_TRACE(util::simd::level_name(level));
    test::ScopedLevel lvl(level);
    ErrorFeedback ef(std::make_unique<QsgdCompressor>(4, 128), 0.9f);
    util::Rng rng(44);
    std::vector<float> out1(n), out2(n);
    std::vector<std::byte> payload(ef.compressed_size(n));
    std::size_t w = ef.compress(step1, payload, rng);
    ef.decompress({payload.data(), w}, out1);
    w = ef.compress(step2, payload, rng);
    ef.decompress({payload.data(), w}, out2);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(ref1[i]),
                std::bit_cast<std::uint32_t>(out1[i]));
      ASSERT_EQ(std::bit_cast<std::uint32_t>(ref2[i]),
                std::bit_cast<std::uint32_t>(out2[i]));
    }
  }
}

}  // namespace
}  // namespace cgx::core
