// Property tests for the SIMD kernel layer: every kernel must be
// bit-identical to the scalar reference at every reachable dispatch level,
// across sizes 0..67, unaligned offsets, and ragged vector tails. The
// scalar implementation is the specification (see util/simd.h); these tests
// are what makes "CGX_SIMD=off reproduces CGX_SIMD=auto bit-for-bit" an
// enforced contract rather than an aspiration.
#include "util/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "util/bitio.h"
#include "util/half.h"
#include "util/rng.h"
#include "simd_levels.h"
#include "util/simd_internal.h"

namespace cgx::util::simd {
namespace {

using test::ScopedLevel;
using test::simd_levels;

// Bitwise float comparison: distinguishes -0.0f from 0.0f and treats NaN
// payloads literally, which EXPECT_FLOAT_EQ cannot.
void expect_bits_equal(std::span<const float> expected,
                       std::span<const float> got, const char* what) {
  ASSERT_EQ(expected.size(), got.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(expected[i]),
              std::bit_cast<std::uint32_t>(got[i]))
        << what << " diverges at i=" << i << " (" << expected[i] << " vs "
        << got[i] << ")";
  }
}

// memcmp over n bytes, defined for n == 0 too: an empty std::vector's
// data() may be null, and memcmp's pointers must not be even for n == 0.
bool bytes_equal(const void* a, const void* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n) == 0;
}

// Random float mix with zeros, sign flips, and wide magnitude range so the
// kernels see denormal-ish small values and large ones.
std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double mag = rng.next_double() * 2.0 - 1.0;
    const int exp = static_cast<int>(rng.next_below(30)) - 15;
    v[i] = static_cast<float>(std::ldexp(mag, exp));
    if (rng.next_below(16) == 0) v[i] = 0.0f;
    if (rng.next_below(32) == 0) v[i] = -0.0f;
  }
  return v;
}

// Sizes 0..67 cover empty input, every partial-vector tail for both 4-wide
// and 8-wide kernels, and a couple of full blocks. The offset de-aligns the
// spans so kernels cannot rely on 16/32-byte alignment.
constexpr std::size_t kMaxN = 67;

std::size_t offset_for(std::size_t n) { return n % 4; }

// --------------------------------------------------------- elementwise

TEST(SimdElementwise, BitIdenticalAcrossLevels) {
  for (std::size_t n = 0; n <= kMaxN; ++n) {
    const std::size_t off = offset_for(n);
    const auto a_buf = random_floats(n + off, 101 + n);
    const auto b_buf = random_floats(n + off, 202 + n);
    const std::span<const float> a(a_buf.data() + off, n);
    const std::span<const float> b(b_buf.data() + off, n);
    const float alpha = 0.73f, beta = -1.13f;

    // Scalar reference outputs.
    std::vector<float> axpy_ref(b.begin(), b.end());
    std::vector<float> scale_ref(a.begin(), a.end());
    std::vector<float> sub_ref(n), add_ref(b.begin(), b.end());
    std::vector<float> add_scaled_ref(n), madd_ref(a.begin(), a.end());
    {
      ScopedLevel lvl(Level::kScalar);
      axpy(alpha, a, axpy_ref);
      scale(scale_ref, alpha);
      sub(a, b, sub_ref);
      add(add_ref, a);
      add_scaled(a, beta, b, add_scaled_ref);
      madd(madd_ref, a, b);
    }

    for (Level l : simd_levels()) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " level="
                                        << level_name(l));
      ScopedLevel lvl(l);
      std::vector<float> y(b.begin(), b.end());
      axpy(alpha, a, y);
      expect_bits_equal(axpy_ref, y, "axpy");

      std::vector<float> s(a.begin(), a.end());
      scale(s, alpha);
      expect_bits_equal(scale_ref, s, "scale");

      std::vector<float> d(n);
      sub(a, b, d);
      expect_bits_equal(sub_ref, d, "sub");

      std::vector<float> ad(b.begin(), b.end());
      add(ad, a);
      expect_bits_equal(add_ref, ad, "add");

      std::vector<float> as(n);
      add_scaled(a, beta, b, as);
      expect_bits_equal(add_scaled_ref, as, "add_scaled");

      std::vector<float> md(a.begin(), a.end());
      madd(md, a, b);
      expect_bits_equal(madd_ref, md, "madd");
    }
  }
}

// --------------------------------------------------------- reductions

TEST(SimdReductions, BitIdenticalAcrossLevels) {
  for (std::size_t n = 0; n <= kMaxN; ++n) {
    const std::size_t off = offset_for(n);
    const auto x_buf = random_floats(n + off, 303 + n);
    const auto y_buf = random_floats(n + off, 404 + n);
    const std::span<const float> x(x_buf.data() + off, n);
    const std::span<const float> y(y_buf.data() + off, n);
    const double mean = 0.251;

    double sum_ref, dot_ref, sqnorm_ref, sqdiff_ref;
    float max_ref, maxabs_ref;
    {
      ScopedLevel lvl(Level::kScalar);
      sum_ref = reduce_sum(x);
      dot_ref = reduce_dot(x, y);
      sqnorm_ref = reduce_sqnorm(x);
      sqdiff_ref = reduce_sqdiff(x, mean);
      max_ref = reduce_max(x, -1e30f);
      maxabs_ref = reduce_max_abs(x);
    }

    for (Level l : simd_levels()) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " level="
                                        << level_name(l));
      ScopedLevel lvl(l);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sum_ref),
                std::bit_cast<std::uint64_t>(reduce_sum(x)));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(dot_ref),
                std::bit_cast<std::uint64_t>(reduce_dot(x, y)));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sqnorm_ref),
                std::bit_cast<std::uint64_t>(reduce_sqnorm(x)));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sqdiff_ref),
                std::bit_cast<std::uint64_t>(reduce_sqdiff(x, mean)));
      EXPECT_EQ(std::bit_cast<std::uint32_t>(max_ref),
                std::bit_cast<std::uint32_t>(reduce_max(x, -1e30f)));
      EXPECT_EQ(std::bit_cast<std::uint32_t>(maxabs_ref),
                std::bit_cast<std::uint32_t>(reduce_max_abs(x)));
    }
  }
}

// --------------------------------------------------------- quantization

TEST(SimdQsgd, QuantizeDequantizeBitIdenticalAcrossLevels) {
  for (unsigned bits : {2u, 4u, 8u}) {
    const std::uint32_t sign_bit = 1u << (bits - 1);
    const std::uint32_t s = sign_bit - 1;
    const unsigned sign_shift = 32 - bits;
    for (std::size_t n = 0; n <= kMaxN; ++n) {
      const std::size_t off = offset_for(n);
      auto v_buf = random_floats(n + off, 505 + n);
      const float* v = v_buf.data() + off;
      float max_abs = 0.0f;
      for (std::size_t i = 0; i < n; ++i) {
        max_abs = std::max(max_abs, std::fabs(v[i]));
      }
      const float inv_norm = max_abs > 0 ? 1.0f / max_abs : 0.0f;
      std::vector<float> u(n);
      Rng rng(606 + n);
      rng.fill_floats(u);

      std::vector<std::uint32_t> sym_ref(n), sym(n);
      std::vector<float> out_ref(n), out(n);
      {
        ScopedLevel lvl(Level::kScalar);
        qsgd_quantize(v, u.data(), n, inv_norm, s, sign_bit, sym_ref.data());
        qsgd_dequantize(sym_ref.data(), n, 0.37f, sign_bit, sign_shift,
                        out_ref.data());
      }
      for (Level l : simd_levels()) {
        SCOPED_TRACE(::testing::Message()
                     << "bits=" << bits << " n=" << n << " level="
                     << level_name(l));
        ScopedLevel lvl(l);
        qsgd_quantize(v, u.data(), n, inv_norm, s, sign_bit, sym.data());
        EXPECT_EQ(sym_ref, sym);
        qsgd_dequantize(sym_ref.data(), n, 0.37f, sign_bit, sign_shift,
                        out.data());
        expect_bits_equal(out_ref, out, "qsgd_dequantize");
      }
    }
  }
}

TEST(SimdNuq, QuantizeDequantizeBitIdenticalAcrossLevels) {
  for (unsigned bits : {2u, 4u, 8u}) {
    for (std::size_t n = 0; n <= kMaxN; ++n) {
      const std::size_t off = offset_for(n);
      auto v_buf = random_floats(n + off, 707 + n);
      float* v = v_buf.data() + off;
      // Sprinkle exact level values a = 2^-k so the boundary cases (a == L_k)
      // are exercised, not just generic interior points.
      for (std::size_t i = 0; i + 3 < n; i += 7) {
        v[i] = std::ldexp(1.0f, -static_cast<int>(i % 9));
      }
      float max_abs = 0.0f;
      for (std::size_t i = 0; i < n; ++i) {
        max_abs = std::max(max_abs, std::fabs(v[i]));
      }
      const float inv_norm = max_abs > 0 ? 1.0f / max_abs : 0.0f;
      std::vector<float> u(n);
      Rng rng(808 + n);
      rng.fill_floats(u);

      std::vector<std::uint32_t> sym_ref(n), sym(n);
      std::vector<float> out_ref(n), out(n);
      {
        ScopedLevel lvl(Level::kScalar);
        nuq_quantize(v, u.data(), n, inv_norm, bits, sym_ref.data());
        nuq_dequantize(sym_ref.data(), n, 1.91f, bits, out_ref.data());
      }
      for (Level l : simd_levels()) {
        SCOPED_TRACE(::testing::Message()
                     << "bits=" << bits << " n=" << n << " level="
                     << level_name(l));
        ScopedLevel lvl(l);
        nuq_quantize(v, u.data(), n, inv_norm, bits, sym.data());
        EXPECT_EQ(sym_ref, sym);
        nuq_dequantize(sym_ref.data(), n, 1.91f, bits, out.data());
        expect_bits_equal(out_ref, out, "nuq_dequantize");
      }
    }
  }
}

// --------------------------------------------------------- GEMM tiles

TEST(SimdGemm, TileBitIdenticalAcrossLevels) {
  // Fringe-heavy tile shapes: every column-width class (32 / 16 / 8 / 4 /
  // scalar, and the masked 1..31-column rests) and every row remainder,
  // with padded leading dimensions so the kernels must honor lda/ldb/ldc
  // instead of assuming contiguity.
  const std::size_t shapes[][3] = {{1, 1, 1},   {2, 3, 5},   {4, 8, 16},
                                   {5, 7, 17},  {3, 16, 9},  {6, 5, 33},
                                   {4, 2, 20},  {7, 11, 13}, {8, 4, 31},
                                   {4, 6, 64},  {7, 9, 47},  {3, 5, 95}};
  for (const auto& sh : shapes) {
    const std::size_t mb = sh[0], kb = sh[1], nb = sh[2];
    const std::size_t lda = kb + 3, ldb = nb + 1, ldc = nb + 2;
    const auto a = random_floats(mb * lda, 909 + mb * 31 + kb);
    const auto at = random_floats(kb * (mb + 3), 919 + mb * 31 + kb);
    const auto b = random_floats(kb * ldb, 929 + nb);
    const auto c0 = random_floats(mb * ldc, 939 + nb);

    std::vector<float> c_ref = c0, c_at_ref = c0;
    {
      ScopedLevel lvl(Level::kScalar);
      gemm_tile(a.data(), lda, b.data(), ldb, c_ref.data(), ldc, mb, kb, nb);
      gemm_tile_at(at.data(), mb + 3, b.data(), ldb, c_at_ref.data(), ldc,
                   mb, kb, nb);
    }
    for (Level l : simd_levels()) {
      SCOPED_TRACE(::testing::Message() << "mb=" << mb << " kb=" << kb
                                        << " nb=" << nb << " level="
                                        << level_name(l));
      ScopedLevel lvl(l);
      std::vector<float> c = c0, c_at = c0;
      gemm_tile(a.data(), lda, b.data(), ldb, c.data(), ldc, mb, kb, nb);
      expect_bits_equal(c_ref, c, "gemm_tile");
      gemm_tile_at(at.data(), mb + 3, b.data(), ldb, c_at.data(), ldc, mb,
                   kb, nb);
      expect_bits_equal(c_at_ref, c_at, "gemm_tile_at");
    }
  }
}

TEST(SimdDotTile, BitIdenticalToReduceDotAtEveryLevel) {
  // Every row count class of the 4-row (AVX2, AVX-512) and 2-row (SSE2)
  // tiles and every B-row class of the 6-row AVX-512 block (nb 1..13), over
  // every dot length 0..67, with unaligned rows and padded strides. The
  // specification is one reduce_dot per output, rounded to float.
  //
  // A float output hides most double-level reassociation, so each row pair
  // also carries products +2^60 and -2^60 on adjacent elements (one pair at
  // the head, one in the tail). They cancel in the total, but each absorbs
  // its lane's small terms at a granularity of 2^8, so the float result
  // depends on which lane every element lands in and in what order.
  constexpr float kBig = 1073741824.0f;  // 2^30
  for (std::size_t mb : {1u, 2u, 3u, 4u, 5u, 8u}) {
    for (std::size_t n = 0; n <= kMaxN; ++n) {
      const std::size_t nb = 1 + n % 13;
      const std::size_t lda = n + 1 + offset_for(n), ldb = n + 3, ldc = nb + 2;
      const std::size_t off = offset_for(n + 1);
      auto a_buf = random_floats(mb * lda + off, 949 + mb * 131 + n);
      auto b_buf = random_floats(nb * ldb + off, 959 + n);
      float* a = a_buf.data() + off;
      float* b = b_buf.data() + off;
      for (std::size_t p : {std::size_t{1}, n - 2}) {
        if (n < 6) break;
        for (std::size_t i = 0; i < mb; ++i) {
          a[i * lda + p] = kBig;
          a[i * lda + p + 1] = kBig;
        }
        for (std::size_t j = 0; j < nb; ++j) {
          b[j * ldb + p] = kBig;
          b[j * ldb + p + 1] = -kBig;
        }
      }
      const auto c0 = random_floats(mb * ldc, 969 + n);

      std::vector<float> c_ref = c0;
      {
        ScopedLevel lvl(Level::kScalar);
        for (std::size_t i = 0; i < mb; ++i) {
          for (std::size_t j = 0; j < nb; ++j) {
            c_ref[i * ldc + j] = static_cast<float>(
                reduce_dot({a + i * lda, n}, {b + j * ldb, n}));
          }
        }
      }
      for (Level l : simd_levels()) {
        SCOPED_TRACE(::testing::Message() << "mb=" << mb << " n=" << n
                                          << " level=" << level_name(l));
        ScopedLevel lvl(l);
        std::vector<float> c = c0;
        dot_tile(a, lda, b, ldb, c.data(), ldc, mb, nb, n);
        expect_bits_equal(c_ref, c, "dot_tile");
      }
    }
  }
}

// --------------------------------------------------------- Adam update

TEST(SimdAdam, UpdateBitIdenticalAcrossLevels) {
  // Three steps per size so m and v carry state; the gradients hold ±0, a
  // subnormal, 1e30 (v overflows to +inf), NaN and +inf on distinct
  // elements so no operation ever sees two different NaNs.
  for (double wd : {0.0, 0.01}) {
    for (std::size_t n = 0; n <= kMaxN; ++n) {
      const std::size_t off = offset_for(n);
      const auto w0 = random_floats(n + off, 1001 + n);
      std::vector<std::vector<float>> grads;
      for (int step = 0; step < 3; ++step) {
        auto g = random_floats(n + off, 1011 + 17 * n + step);
        const float specials[] = {0.0f,
                                  -0.0f,
                                  1e-40f,
                                  1e30f,
                                  std::numeric_limits<float>::quiet_NaN(),
                                  std::numeric_limits<float>::infinity()};
        for (std::size_t s = 0; s < 6; ++s) {
          const std::size_t i = off + 11 * s + static_cast<std::size_t>(step);
          if (i < g.size()) g[i] = specials[s];
        }
        grads.push_back(std::move(g));
      }
      auto run = [&](std::vector<float>& w, std::vector<float>& m,
                     std::vector<float>& v) {
        w = w0;
        m.assign(n + off, 0.0f);
        v.assign(n + off, 0.0f);
        for (int step = 0; step < 3; ++step) {
          std::vector<float> g = grads[step];
          AdamCoeffs c;
          c.weight_decay = static_cast<float>(wd);
          c.beta1 = 0.9f;
          c.one_minus_beta1 = static_cast<float>(1.0 - 0.9);
          c.beta2 = 0.999f;
          c.one_minus_beta2 = static_cast<float>(1.0 - 0.999);
          c.bias1 = 1.0 - std::pow(0.9, step + 1);
          c.bias2 = 1.0 - std::pow(0.999, step + 1);
          c.lr = 1e-3 * (step + 1);
          c.eps = 1e-8;
          adam_update(c, std::span<float>(w).subspan(off),
                      std::span<float>(g).subspan(off),
                      std::span<float>(m).subspan(off),
                      std::span<float>(v).subspan(off));
          // The update zeroes the gradient it read and nothing before it.
          std::vector<float> zeroed = grads[step];
          std::fill(zeroed.begin() + static_cast<std::ptrdiff_t>(off),
                    zeroed.end(), 0.0f);
          expect_bits_equal(zeroed, g, "adam grad");
        }
      };
      std::vector<float> w_ref, m_ref, v_ref;
      {
        ScopedLevel lvl(Level::kScalar);
        run(w_ref, m_ref, v_ref);
      }
      for (Level l : simd_levels()) {
        SCOPED_TRACE(::testing::Message() << "wd=" << wd << " n=" << n
                                          << " level=" << level_name(l));
        ScopedLevel lvl(l);
        std::vector<float> w, m, v;
        run(w, m, v);
        expect_bits_equal(w_ref, w, "adam w");
        expect_bits_equal(m_ref, m, "adam m");
        expect_bits_equal(v_ref, v, "adam v");
      }
    }
  }
}

// The AVX2 kernel's corrected reciprocal against the divide it replaces
// (simd.h). With beta1 = beta2 = 1, one_minus_beta1 = one_minus_beta2 =
// weight_decay = 0 and grad = w = -0 on entry, the update keeps m and v
// exactly as they came in, so they can be set per element. With lr =
// eps = 1 and v = 0, the step is exactly mhat, and w comes out as
// -0 - (float)(m / bias), sign of zero included. A few elements carry an
// infinite or NaN v instead, which reaches w through vhat. Every level
// is checked against adam_element, the specification.
//
// Divisors: every bias correction the default betas produce, up to the
// step where it rounds to 1; random ones across (0, 1]; and ones built as
// s / mid for a float s and a float rounding midpoint mid. For those, the
// quotient of s * 2^k sits within an ulp of a float midpoint, so a
// quotient that is off by one double ulp shows in the float result.
// Everywhere else only the specials and float rounding see the quotient.
// Divisors outside [2^-64, 2^64] take the kernel's divide path.
TEST(SimdAdam, MarksteinBiasDivisionIsExact) {
  struct Divisor {
    double bias;
    float s;  // nonzero: bias = s / midpoint, so s * 2^k is sensitive
  };
  std::vector<Divisor> divisors;
  for (double beta : {0.9, 0.999}) {
    for (double t = 1.0;; t += 1.0) {
      divisors.push_back({1.0 - std::pow(beta, t), 0.0f});
      if (divisors.back().bias == 1.0) break;
    }
  }
  Rng rng(2718);
  for (int i = 0; i < 256; ++i) {
    const double u = 1.0 - rng.next_double();  // (0, 1]
    divisors.push_back(
        {std::ldexp(u, -static_cast<int>(rng.next_below(40))), 0.0f});
  }
  for (int i = 0; i < 256; ++i) {
    const auto sig = static_cast<std::uint32_t>(rng.next_below(1u << 23));
    const float s = std::bit_cast<float>((127u << 23) | sig);  // [1, 2)
    // A float midpoint in [2, 4): 25 significant bits, the last one set.
    const double mid =
        std::ldexp(static_cast<double>((1u << 24) | (2 * sig + 1)), -23);
    divisors.push_back({s / mid, s});
  }
  for (double bias : {0.0, 1e-30, 0x1p-65, -0.25, 4.0, 1e30,
                      std::numeric_limits<double>::quiet_NaN()}) {
    divisors.push_back({bias, 0.0f});
  }

  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kMin = std::numeric_limits<float>::denorm_min();
  constexpr float kMax = std::numeric_limits<float>::max();
  // {m, v} on entry.
  const std::pair<float, float> specials[] = {
      {0.0f, 0.0f},   {-0.0f, 0.0f}, {kMin, 0.0f},  {-kMin, 0.0f},
      {kMax, 0.0f},   {-kMax, 0.0f}, {kInf, 0.0f},  {-kInf, 0.0f},
      {kNaN, 0.0f},   {-kNaN, 0.0f}, {1.5f, kInf},  {-2.5f, kNaN},
      {1.5f, -kNaN},  {1.5f, kMax},  {-1.5f, kMin}, {kInf, kInf}};
  // Biased exponents of the swept values: subnormal, bottom of the normal
  // range, small, around 1, large, and the top binade.
  const std::uint32_t exps[] = {0, 1, 60, 126, 127, 128, 190, 254};
  // 16 vector blocks plus a 3-element tail.
  constexpr std::size_t kN = 131;
  std::vector<float> m0(kN), v0(kN);
  std::vector<float> g(kN), w(kN), m(kN), v(kN);
  std::vector<float> g_ref(kN), w_ref(kN), m_ref(kN), v_ref(kN);
  std::uint32_t sig = 0;
  for (const Divisor& div : divisors) {
    std::size_t i = 0;
    v0.assign(kN, 0.0f);
    for (const auto& [ms, vs] : specials) {
      m0[i] = ms;
      v0[i++] = vs;
    }
    if (div.s != 0.0f) {
      for (int k : {-126, -100, -20, -1, 0, 1, 20, 100}) {
        m0[i++] = std::ldexp(div.s, k) * (k % 2 == 0 ? 1.0f : -1.0f);
      }
    }
    for (; i < kN; ++i) {
      // A stride coprime to 2^23 walks every significand across divisors.
      sig = (sig + 0x2f0c5u) & 0x7fffffu;
      const std::uint32_t sign = static_cast<std::uint32_t>(i & 1) << 31;
      m0[i] = std::bit_cast<float>(sign | (exps[i % 8] << 23) | sig);
    }

    AdamCoeffs c;
    c.weight_decay = 0.0f;
    c.beta1 = 1.0f;
    c.one_minus_beta1 = 0.0f;
    c.beta2 = 1.0f;
    c.one_minus_beta2 = 0.0f;
    c.bias1 = div.bias;
    c.bias2 = div.bias;
    c.lr = 1.0;
    c.eps = 1.0;
    auto reset = [&](std::vector<float>& gs, std::vector<float>& ws,
                     std::vector<float>& ms, std::vector<float>& vs) {
      gs.assign(kN, -0.0f);
      ws.assign(kN, -0.0f);
      ms = m0;
      vs = v0;
    };
    reset(g_ref, w_ref, m_ref, v_ref);
    for (std::size_t j = 0; j < kN; ++j) {
      detail::adam_element(c, w_ref[j], g_ref[j], m_ref[j], v_ref[j]);
    }
    for (Level l : simd_levels()) {
      ScopedLevel lvl(l);
      reset(g, w, m, v);
      adam_update(c, w, g, m, v);
      const std::size_t bytes = kN * sizeof(float);
      if (!bytes_equal(w.data(), w_ref.data(), bytes) ||
          !bytes_equal(m.data(), m_ref.data(), bytes) ||
          !bytes_equal(v.data(), v_ref.data(), bytes) ||
          !bytes_equal(g.data(), g_ref.data(), bytes)) {
        SCOPED_TRACE(::testing::Message()
                     << "bias=" << std::hexfloat << div.bias
                     << " level=" << level_name(l));
        expect_bits_equal(w_ref, w, "w");
        expect_bits_equal(m_ref, m, "m");
        expect_bits_equal(v_ref, v, "v");
        expect_bits_equal(g_ref, g, "grad");
        return;
      }
    }
  }
}

// --------------------------------------------------------- pack/unpack

TEST(SimdPack, WordKernelsMatchScalarPacking) {
  for (unsigned bits : {2u, 4u, 8u}) {
    const std::size_t per_word = 64 / bits;
    for (std::size_t nwords : {0ul, 1ul, 2ul, 3ul, 5ul, 9ul}) {
      const std::size_t n = nwords * per_word;
      Rng rng(111 * bits + nwords);
      std::vector<std::uint32_t> sym(n);
      for (auto& x : sym) {
        x = static_cast<std::uint32_t>(rng.next_below(1ull << bits));
      }
      // Scalar reference words assembled by the documented layout:
      // word w = sum_j sym[w*per_word + j] << (bits * j), little-endian.
      std::vector<std::byte> ref(nwords * 8, std::byte{0});
      for (std::size_t w = 0; w < nwords; ++w) {
        std::uint64_t word = 0;
        for (std::size_t j = 0; j < per_word; ++j) {
          word |= static_cast<std::uint64_t>(sym[w * per_word + j])
                  << (bits * j);
        }
        std::memcpy(ref.data() + w * 8, &word, 8);
      }
      for (Level l : simd_levels()) {
        SCOPED_TRACE(::testing::Message() << "bits=" << bits << " nwords="
                                          << nwords << " level="
                                          << level_name(l));
        ScopedLevel lvl(l);
        std::vector<std::byte> out(nwords * 8, std::byte{0xAA});
        if (pack_words(sym.data(), nwords, bits, out.data())) {
          EXPECT_TRUE(bytes_equal(ref.data(), out.data(), nwords * 8));
        }
        std::vector<std::uint32_t> back(n, 0xdeadbeefu);
        if (unpack_words(ref.data(), nwords, bits, back.data())) {
          EXPECT_EQ(sym, back);
        }
      }
    }
  }
}

// The public bitio entry points must themselves be level-invariant,
// including ragged tails that mix the vector word path with the scalar
// remainder loop.
TEST(SimdPack, BitioLevelInvariant) {
  for (unsigned bits : {1u, 2u, 3u, 4u, 8u, 16u}) {
    for (std::size_t n : {0ul, 1ul, 15ul, 16ul, 17ul, 63ul, 64ul, 65ul,
                          200ul}) {
      Rng rng(17 * bits + n);
      std::vector<std::uint32_t> sym(n);
      for (auto& x : sym) {
        x = static_cast<std::uint32_t>(rng.next_below(1ull << bits));
      }
      std::vector<std::byte> ref(packed_size_bytes(n, bits));
      std::vector<std::uint32_t> unpacked_ref(n);
      {
        ScopedLevel lvl(Level::kScalar);
        pack_symbols(sym, bits, ref);
        unpack_symbols(ref, bits, unpacked_ref);
      }
      EXPECT_EQ(sym, unpacked_ref);
      for (Level l : simd_levels()) {
        SCOPED_TRACE(::testing::Message() << "bits=" << bits << " n=" << n
                                          << " level=" << level_name(l));
        ScopedLevel lvl(l);
        std::vector<std::byte> packed(ref.size(), std::byte{0x55});
        pack_symbols(sym, bits, packed);
        EXPECT_EQ(ref, packed);
        std::vector<std::uint32_t> unpacked(n, 0u);
        unpack_symbols(ref, bits, unpacked);
        EXPECT_EQ(sym, unpacked);
      }
    }
  }
}

// --------------------------------------------------------- copy engine

// copy_bytes / copy_floats / copy_add across levels, sizes 0..67 plus the
// ragged de-aligning offset. Byte copies must be exact; copy_add applies
// the same additions in the same element order as scalar, so bit-identity
// is the contract, not an approximation.
TEST(SimdCopyEngine, CopyAndCopyAddBitIdenticalAcrossLevels) {
  for (std::size_t n = 0; n <= kMaxN; ++n) {
    const std::size_t off = offset_for(n);
    const auto src_buf = random_floats(n + off, 31 + n);
    const auto acc_buf = random_floats(n + off, 57 + n);
    const auto src2_buf = random_floats(n + off, 83 + n);
    const std::span<const float> src(src_buf.data() + off, n);
    const std::span<const float> acc(acc_buf.data() + off, n);
    const std::span<const float> src2(src2_buf.data() + off, n);

    std::vector<float> add_ref(acc.begin(), acc.end());
    std::vector<float> add2_ref(acc.begin(), acc.end());
    {
      ScopedLevel lvl(Level::kScalar);
      copy_add(add_ref, src);
      // The two-source fold's reference is literally two sequential adds.
      copy_add(add2_ref, src);
      copy_add(add2_ref, src2);
    }

    for (Level l : simd_levels()) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " level="
                                        << level_name(l));
      ScopedLevel lvl(l);

      std::vector<float> copied(n, -7.0f);
      copy_floats(src, copied);
      expect_bits_equal(src, copied, "copy_floats");

      std::vector<std::byte> raw(n * sizeof(float) + 3);
      copy_bytes(raw.data() + 3, src.data(), n * sizeof(float));
      EXPECT_TRUE(bytes_equal(raw.data() + 3, src.data(), n * sizeof(float)))
          << "copy_bytes (unaligned dst)";

      std::vector<float> added(acc.begin(), acc.end());
      copy_add(added, src);
      expect_bits_equal(add_ref, added, "copy_add");

      std::vector<float> added2(acc.begin(), acc.end());
      copy_add2(added2, src, src2);
      expect_bits_equal(add2_ref, added2, "copy_add2");
    }
  }
}

// A copy past L2 (2 MiB plus a ragged tail) moves the same bytes, and
// copy_add over it applies the scalar sequence, at every level.
TEST(SimdCopyEngine, LargeCopyBitIdentical) {
  const std::size_t bytes = (2u << 20) + (1u << 16) + 52;
  const std::size_t n = bytes / sizeof(float);
  const auto src = random_floats(n, 1234);
  std::vector<float> add_ref(n, 0.25f);
  {
    ScopedLevel lvl(Level::kScalar);
    copy_add(add_ref, src);
  }
  for (Level l : simd_levels()) {
    SCOPED_TRACE(level_name(l));
    ScopedLevel lvl(l);
    std::vector<float> dst(n, -1.0f);
    copy_floats(src, dst);
    EXPECT_TRUE(bytes_equal(dst.data(), src.data(), n * sizeof(float)));
    std::vector<float> added(n, 0.25f);
    copy_add(added, src);
    expect_bits_equal(add_ref, added, "copy_add past L2");
  }
}

// The dispatcher's byte counters must track exactly what flows through it
// (bench_micro_memory reports them; a silent bypass would make the bench
// claim coverage the hot path doesn't have).
TEST(SimdCopyEngine, StatsTrackDispatchedBytes) {
  reset_copy_engine_stats();
  std::vector<float> src(100, 1.0f), dst(100);
  copy_floats(src, dst);
  copy_bytes(dst.data(), src.data(), 64);
  copy_add(dst, src);
  const CopyStats stats = copy_engine_stats();
  EXPECT_EQ(stats.copied_bytes, 100 * sizeof(float) + 64);
  EXPECT_EQ(stats.copy_add_bytes, 100 * sizeof(float));
  EXPECT_EQ(stats.calls, 3u);
}

// ----------------------------------------------------- bucket uniforms

// bucket_uniforms is Rng::fill_floats run on up to four streams at once:
// every level must write what one fill_floats per stream writes and leave
// each stream where fill_floats leaves it. Lengths 0..260 cover every
// ragged tail around the vector bodies; 1..9 streams run as full and
// partial batches of four, the way QSGD hands out its buckets.
TEST(SimdRng, BucketStreamsMatchScalarFill) {
  for (Level l : simd_levels()) {
    SCOPED_TRACE(level_name(l));
    ScopedLevel lvl(l);
    for (std::size_t len = 0; len <= 260; ++len) {
      for (std::size_t streams = 1; streams <= 9; ++streams) {
        const Rng parent(len * 131 + streams);
        std::vector<float> got(streams * len, -1.0f);
        std::vector<float> want(streams * len, -2.0f);
        std::vector<Rng> refs;
        for (std::size_t k = 0; k < streams; ++k) {
          refs.push_back(parent.split(k));
          refs.back().fill_floats({want.data() + k * len, len});
        }
        for (std::size_t k0 = 0; k0 < streams; k0 += 4) {
          const std::size_t count = std::min<std::size_t>(4, streams - k0);
          std::uint64_t states[4][4];
          for (std::size_t k = 0; k < count; ++k) {
            const auto st = parent.split(k0 + k).state();
            std::copy(st.begin(), st.end(), states[k]);
          }
          bucket_uniforms(states, count, len, got.data() + k0 * len);
          for (std::size_t k = 0; k < count; ++k) {
            const auto after = refs[k0 + k].state();
            EXPECT_TRUE(std::equal(after.begin(), after.end(), states[k]))
                << "state of stream " << k0 + k << " len=" << len;
          }
        }
        expect_bits_equal(want, got, "bucket_uniforms");
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

// --------------------------------------------------------- half precision

// The vectorized f16<->f32 converters feed util/half.cpp; the scalar
// float_to_half/half_to_float pair is the specification. f16->f32 is
// checked for every one of the 65536 half codes; f32->f16 over a random
// bit-pattern sweep plus rounding edge cases.
TEST(SimdHalf, ConversionsBitIdenticalToScalarSpec) {
  for (Level l : simd_levels()) {
    SCOPED_TRACE(level_name(l));
    ScopedLevel lvl(l);

    // Every half code, ragged count so the padded tail path runs.
    std::vector<std::uint16_t> codes(65536 + 7);
    for (std::size_t i = 0; i < codes.size(); ++i) {
      codes[i] = static_cast<std::uint16_t>(i & 0xffff);
    }
    std::vector<float> widened(codes.size());
    if (f16_to_f32(codes.data(), widened.data(), codes.size())) {
      for (std::size_t i = 0; i < codes.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(widened[i]),
                  std::bit_cast<std::uint32_t>(half_to_float(codes[i])))
            << "f16->f32 diverges for code " << codes[i];
      }
    }

    Rng rng(99);
    std::vector<float> floats(4096 + 5);
    for (auto& f : floats) {
      f = std::bit_cast<float>(
          static_cast<std::uint32_t>(rng.next_u64() & 0xffffffffu));
    }
    // Rounding / clamping edges: halfway mantissas, subnormal boundary,
    // overflow, infinities, NaN, signed zero.
    const float edges[] = {0.0f,     -0.0f,    65504.0f, 65520.0f, 65536.0f,
                           1e-8f,    -1e-8f,   6.1e-5f,  6.0e-5f,  1.5f,
                           1.0009765625f,      1.0009766f,         2049.5f,
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(),
                           std::numeric_limits<float>::quiet_NaN()};
    floats.insert(floats.end(), std::begin(edges), std::end(edges));
    std::vector<std::uint16_t> narrowed(floats.size());
    if (f32_to_f16(floats.data(), narrowed.data(), floats.size())) {
      for (std::size_t i = 0; i < floats.size(); ++i) {
        ASSERT_EQ(narrowed[i], float_to_half(floats[i]))
            << "f32->f16 diverges for bits "
            << std::bit_cast<std::uint32_t>(floats[i]);
      }
    }
  }
}

// -------------------------------------------------------------- exp

std::uint64_t bits64(double v) { return std::bit_cast<std::uint64_t>(v); }

// |got - want| in units of the last place of want rounded to double
// (subnormal results count in 2^-1074 steps). Matching infinities count 0.
double ulp_error(double got, long double want) {
  const double w = static_cast<double>(want);
  if (std::isinf(w) && got == w) return 0.0;
  int e = 0;
  std::frexp(w, &e);
  const double ulp = std::max(std::ldexp(1.0, e - 53), 0x1p-1074);
  return static_cast<double>(
      std::fabs(static_cast<long double>(got) - want) /
      static_cast<long double>(ulp));
}

// The inputs every exp check runs: a dense sweep of [-745, 710], a finer
// one over [-2, 2], ±0, ±inf, NaN, the clamp constants and the edges of
// the finite and the subnormal range (with their neighbours).
std::vector<double> exp_inputs() {
  std::vector<double> x;
  const int steps = 200000;
  for (int i = 0; i <= steps; ++i) x.push_back(-745.0 + 1455.0 * i / steps);
  for (int i = 0; i <= 20000; ++i) x.push_back(-2.0 + 4.0 * i / 20000);
  const double inf = std::numeric_limits<double>::infinity();
  const double edges[] = {0.0,
                          -0.0,
                          inf,
                          -inf,
                          std::numeric_limits<double>::quiet_NaN(),
                          710.0,
                          -746.0,
                          709.782712893384,  // largest finite result
                          -708.3964185322641,  // smallest normal result
                          -745.1332191019411,  // smallest subnormal result
                          -745.1332191019412,  // rounds to +0
                          1e-300,
                          -1e-300,
                          0.5 * 0.6931471805599453,  // |r| at its bound
                          -0.5 * 0.6931471805599453};
  for (double v : edges) {
    x.push_back(v);
    x.push_back(std::nextafter(v, inf));
    x.push_back(std::nextafter(v, -inf));
  }
  return x;
}

TEST(SimdExp, BitIdenticalAcrossLevelsAndWithinOneUlp) {
  const std::vector<double> x = exp_inputs();
  std::vector<double> want(x.size());
  {
    ScopedLevel lvl(Level::kScalar);
    exp(x, want);
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i])) {
      EXPECT_TRUE(std::isnan(want[i]));
      continue;
    }
    const double err = ulp_error(want[i], std::exp(static_cast<long double>(x[i])));
    worst = std::max(worst, err);
    EXPECT_LE(err, 1.0) << "exp(" << x[i] << ") = " << want[i];
  }
  std::printf("exp max error: %.3f ulp over %zu inputs\n", worst, x.size());
  for (Level l : simd_levels()) {
    ScopedLevel lvl(l);
    // Every length up to 67 at a ragged offset, then the whole sweep,
    // in place.
    const std::size_t base = 100000;
    for (std::size_t n = 0; n <= kMaxN; ++n) {
      const std::size_t from = base - offset_for(n);
      std::vector<double> got(n);
      exp(std::span<const double>(x).subspan(from, n), got);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bits64(got[i]), bits64(want[from + i]))
            << level_name(l) << " n=" << n << " i=" << i;
      }
    }
    std::vector<double> got = x;
    exp(got, got);
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(bits64(got[i]), bits64(want[i]))
          << level_name(l) << " exp(" << x[i] << ")";
    }
  }
}

TEST(SimdExp, SpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  for (Level l : simd_levels()) {
    ScopedLevel lvl(l);
    SCOPED_TRACE(level_name(l));
    const double x[] = {0.0, -0.0, inf, -inf, 710.0, -746.0, 709.79, -745.2,
                        std::numeric_limits<double>::quiet_NaN()};
    double y[9];
    exp(x, y);
    EXPECT_EQ(bits64(y[0]), bits64(1.0));
    EXPECT_EQ(bits64(y[1]), bits64(1.0));
    EXPECT_EQ(bits64(y[2]), bits64(inf));
    EXPECT_EQ(bits64(y[3]), bits64(0.0));
    EXPECT_EQ(bits64(y[4]), bits64(inf));
    EXPECT_EQ(bits64(y[5]), bits64(0.0));
    EXPECT_EQ(bits64(y[6]), bits64(inf));
    EXPECT_EQ(bits64(y[7]), bits64(0.0));
    EXPECT_TRUE(std::isnan(y[8]));
  }
}

TEST(SimdExp, ExpSumBitIdenticalAcrossLevels) {
  for (std::size_t n = 0; n <= kMaxN; ++n) {
    const std::size_t off = offset_for(n);
    auto x = random_floats(n + off, 3001 + n);
    for (float& v : x) v *= 1e-3f;  // spread logits over about +-30
    if (n > 5) {
      x[off + 1] = -std::numeric_limits<float>::infinity();
      x[off + 4] = 1e-40f;
    }
    const std::span<const float> in = std::span<const float>(x).subspan(off);
    const double shift = n > 0 ? in[n / 2] : 0.0;
    std::vector<double> want(n);
    double want_sum = 0.0;
    {
      ScopedLevel lvl(Level::kScalar);
      want_sum = exp_sum(in, shift, want);
    }
    // The scalar level is the per-element exp summed lane by lane.
    double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (std::size_t i = 0; i < n; ++i) {
      const double e = detail::exp_element(static_cast<double>(in[i]) - shift);
      EXPECT_EQ(bits64(want[i]), bits64(e)) << "n=" << n << " i=" << i;
      lanes[i % 8] += e;
    }
    EXPECT_EQ(bits64(want_sum), bits64(detail::combine_lanes(lanes)));
    for (Level l : simd_levels()) {
      ScopedLevel lvl(l);
      std::vector<double> got(n);
      EXPECT_EQ(bits64(exp_sum(in, shift, got)), bits64(want_sum))
          << level_name(l) << " n=" << n;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bits64(got[i]), bits64(want[i]))
            << level_name(l) << " n=" << n << " i=" << i;
      }
    }
  }
  // A NaN anywhere makes the sum NaN at every level.
  for (Level l : simd_levels()) {
    ScopedLevel lvl(l);
    for (std::size_t at : {0u, 7u, 8u, 12u}) {
      std::vector<float> x(13, 0.5f);
      x[at] = std::numeric_limits<float>::quiet_NaN();
      std::vector<double> out(13);
      EXPECT_TRUE(std::isnan(exp_sum(x, 0.5, out)))
          << level_name(l) << " at=" << at;
    }
  }
}

TEST(SimdExp, TanhBitIdenticalAcrossLevelsAndCloseToLibm) {
  std::vector<float> x;
  for (int i = -40000; i <= 40000; ++i) x.push_back(i * 5e-4f);
  const auto r = random_floats(4000, 3100);
  x.insert(x.end(), r.begin(), r.end());
  const float inf = std::numeric_limits<float>::infinity();
  for (float v : {0.0f, -0.0f, inf, -inf, 1e-40f, -1e-40f, 6.103515625e-05f,
                  -6.103515625e-05f, 9.0f, -9.0f, 20.0f, 1e30f}) {
    x.push_back(v);
  }
  std::vector<float> want(x.size());
  {
    ScopedLevel lvl(Level::kScalar);
    tanh(x, want);
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const long double ref = std::tanh(static_cast<long double>(x[i]));
    // One ulp of the float nearest the reference (subnormals count in
    // 2^-149 steps).
    const float near = std::fabs(static_cast<float>(ref));
    const float ulp =
        std::nextafter(near, std::numeric_limits<float>::infinity()) - near;
    const double err =
        static_cast<double>(std::fabs(static_cast<long double>(want[i]) - ref) /
                            static_cast<long double>(ulp));
    worst = std::max(worst, err);
    EXPECT_LE(err, 1.0) << "tanh(" << x[i] << ") = " << want[i];
    EXPECT_EQ(std::signbit(want[i]), std::signbit(x[i])) << x[i];
  }
  std::printf("tanh max error: %.3f float ulp over %zu inputs\n", worst,
              x.size());
  for (Level l : simd_levels()) {
    ScopedLevel lvl(l);
    for (std::size_t n = 0; n <= kMaxN; ++n) {
      const std::size_t off = offset_for(n);
      std::vector<float> got(n);
      tanh(std::span<const float>(x).subspan(40000 - off, n), got);
      expect_bits_equal(std::span<const float>(want).subspan(40000 - off, n),
                        got, level_name(l));
    }
    std::vector<float> got = x;
    tanh(got, got);
    expect_bits_equal(want, got, level_name(l));
    const float nan_in[] = {std::numeric_limits<float>::quiet_NaN(), 1.0f,
                            2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f, 8.0f};
    float nan_out[9];
    tanh(nan_in, nan_out);
    EXPECT_TRUE(std::isnan(nan_out[0])) << level_name(l);
  }
}

// --------------------------------------------------------- dispatch

TEST(SimdDispatch, SetLevelClampsToSupport) {
  const Level prev = active_level();
  set_level(Level::kAvx512);
  EXPECT_LE(static_cast<int>(active_level()),
            static_cast<int>(max_supported_level()));
  set_level(Level::kScalar);
  EXPECT_EQ(active_level(), Level::kScalar);
  set_level(prev);
}

// Without this, a build that lost a vector translation unit's flags would
// leave its kernels running nowhere in the suite: auto must reach the best
// level this CPU has, avx512 on AVX-512F hosts and avx2 on AVX2+FMA-only
// ones. Also prints the level this process resolved to, which
// tools/run_checks.sh shows before each of its CGX_SIMD passes.
TEST(SimdDispatch, AutoReachesBestLevelOfThisCpu) {
  std::printf("simd level: %s (max %s)\n", level_name(active_level()),
              level_name(max_supported_level()));
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    EXPECT_EQ(max_supported_level(), __builtin_cpu_supports("avx512f")
                                         ? Level::kAvx512
                                         : Level::kAvx2);
    return;
  }
#endif
  GTEST_SKIP() << "CPU lacks AVX2+FMA";
}

TEST(SimdDispatch, LevelNamesAreStable) {
  EXPECT_STREQ(level_name(Level::kScalar), "scalar");
  EXPECT_STREQ(level_name(Level::kSse2), "sse2");
  EXPECT_STREQ(level_name(Level::kAvx2), "avx2");
  EXPECT_STREQ(level_name(Level::kAvx512), "avx512");
}

}  // namespace
}  // namespace cgx::util::simd
