// Internal dispatch table shared by the scalar/SSE2/AVX2 translation units.
// Not installed API — include only from src/util/simd*.cpp and tests that
// poke specific levels.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/simd.h"

namespace cgx::util::simd::detail {

struct SimdOps {
  void (*axpy)(float alpha, const float* x, float* y, std::size_t n);
  void (*scale)(float* x, float alpha, std::size_t n);
  void (*sub)(const float* a, const float* b, float* out, std::size_t n);
  void (*add)(float* dst, const float* src, std::size_t n);
  void (*add_scaled)(const float* a, float beta, const float* b, float* out,
                     std::size_t n);
  void (*madd)(float* dst, const float* a, const float* b, std::size_t n);

  double (*reduce_sum)(const float* x, std::size_t n);
  double (*reduce_dot)(const float* x, const float* y, std::size_t n);
  double (*reduce_sqnorm)(const float* x, std::size_t n);
  double (*reduce_sqdiff)(const float* x, double mean, std::size_t n);
  float (*reduce_max)(const float* x, std::size_t n, float init);
  float (*reduce_max_abs)(const float* x, std::size_t n);

  void (*qsgd_quantize)(const float* v, const float* u, std::size_t n,
                        float inv_norm, std::uint32_t s, std::uint32_t sign_bit,
                        std::uint32_t* sym);
  void (*qsgd_dequantize)(const std::uint32_t* sym, std::size_t n, float scale,
                          std::uint32_t sign_bit, unsigned sign_shift,
                          float* out);
  void (*nuq_quantize)(const float* v, const float* u, std::size_t n,
                       float inv_norm, unsigned bits, std::uint32_t* sym);
  void (*nuq_dequantize)(const std::uint32_t* sym, std::size_t n, float norm,
                         unsigned bits, float* out);

  void (*gemm_tile)(const float* a, std::size_t lda, const float* b,
                    std::size_t ldb, float* c, std::size_t ldc, std::size_t mb,
                    std::size_t kb, std::size_t nb);
  void (*gemm_tile_at)(const float* a, std::size_t lda, const float* b,
                       std::size_t ldb, float* c, std::size_t ldc,
                       std::size_t mb, std::size_t kb, std::size_t nb);
  void (*dot_tile)(const float* a, std::size_t lda, const float* b,
                   std::size_t ldb, float* c, std::size_t ldc, std::size_t mb,
                   std::size_t nb, std::size_t n, bool accumulate);
  void (*adam_update)(const AdamCoeffs& coeffs, float* w, float* grad,
                      float* m, float* v, std::size_t n);

  // The exp family (see simd.h): exp_element per lane.
  void (*exp)(const double* x, double* out, std::size_t n);
  double (*exp_sum)(const float* x, double shift, double* out, std::size_t n);
  void (*tanh)(const float* x, float* out, std::size_t n);

  // May be null (no vector path at this level).
  bool (*pack_words)(const std::uint32_t* sym, std::size_t nwords,
                     unsigned bits, std::byte* out);
  bool (*unpack_words)(const std::byte* in, std::size_t nwords, unsigned bits,
                       std::uint32_t* sym);

  // Stochastic-rounding uniforms for up to four independent xoshiro256**
  // streams at once (see simd.h bucket_uniforms).
  void (*bucket_uniforms)(std::uint64_t (*states)[4], std::size_t count,
                          std::size_t len, float* out);

  // Copy-engine folds (see simd.h). copy_add performs dst[i] += src[i] in
  // increasing index order, the same per-element rounding as the scalar
  // loop (bit-identical at any width). copy_add2 folds two sources in one
  // pass over dst with the exact per-element sequence dst[i] += a[i];
  // dst[i] += b[i]; — bit-identical to two copy_add calls, but dst is read
  // and written once instead of twice.
  void (*copy_add)(float* dst, const float* src, std::size_t n);
  void (*copy_add2)(float* dst, const float* a, const float* b,
                    std::size_t n);

  // Bulk binary16 conversions covering the whole range [0, n). May be null
  // (no vector path at this level): the caller (util/half.cpp) then runs
  // its scalar reference loops. Vector implementations must be bit-identical
  // to float_to_half / half_to_float, including RN-even rounding, subnormals
  // and the NaN mantissa squash.
  bool (*f32_to_f16)(const float* in, std::uint16_t* out, std::size_t n);
  bool (*f16_to_f32)(const std::uint16_t* in, float* out, std::size_t n);
};

// One xoshiro256** step on a stream's four state words — the generator
// util::Rng runs. Every bucket_uniforms level reproduces it lane by lane.
inline std::uint64_t xoshiro_next(std::uint64_t s[4]) {
  const auto rotl = [](std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  };
  const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

// Rng::fill_floats' tail for one stream: floats [i, len) of out, four
// 16-bit windows per draw, high window first. The vector levels run it
// after their lane body, so their ragged ends match by construction.
inline void fill_uniforms_tail(std::uint64_t s[4], std::size_t i,
                               std::size_t len, float* out) {
  for (; i < len; i += 4) {
    const std::uint64_t r = xoshiro_next(s);
    for (unsigned k = 0; k < 4 && i + k < len; ++k) {
      out[i + k] =
          static_cast<float>((r >> (48 - 16 * k)) & 0xffffu) * 0x1.0p-16f;
    }
  }
}

// Canonical lane fold shared by every reduction implementation. The tree
// shape is part of the bit-exactness contract — do not reassociate.
inline double combine_lanes(const double l[8]) {
  return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

inline float combine_lanes_max(const float l[8]) {
  auto mx = [](float a, float b) { return a < b ? b : a; };
  return mx(mx(mx(l[0], l[1]), mx(l[2], l[3])),
            mx(mx(l[4], l[5]), mx(l[6], l[7])));
}

// dot_tile's store of one output: the dot rounded to float, written or
// added to c (c + v, the operand order of the elementwise add).
inline void store_dot(float& c, double dot, bool accumulate) {
  const float v = static_cast<float>(dot);
  c = accumulate ? c + v : v;
}

// The Adam per-element sequence (see simd.h), including the zeroing of the
// gradient. It is the specification: the scalar level runs it as is, every
// level runs it for its ragged tail, and the vector bodies reproduce it lane
// by lane (the AVX2 corrected reciprocal yields the same quotient bits as
// the divides here).
inline void adam_element(const AdamCoeffs& c, float& w, float& grad, float& m,
                         float& v) {
  const float g = grad + c.weight_decay * w;
  grad = 0.0f;
  m = c.beta1 * m + c.one_minus_beta1 * g;
  v = c.beta2 * v + c.one_minus_beta2 * g * g;
  const double mhat = m / c.bias1;
  const double vhat = v / c.bias2;
  w -= static_cast<float>(c.lr * mhat / (std::sqrt(vhat) + c.eps));
}

// The exp of simd.h, one element. It is the specification: the scalar
// level runs it as is, every level runs it for its ragged tail, and the
// vector bodies reproduce it lane by lane with the same operations in the
// same order.
namespace exp_const {
inline constexpr double kMax = 710.0;   // exp(710) overflows
inline constexpr double kMin = -746.0;  // exp(-746) flushes to +0
inline constexpr double kLog2e = 0x1.71547652b82fep0;
// x * log2(e) + kShifter rounds to an integer k held in the low mantissa
// bits: bits(t) - bits(kShifter) == k.
inline constexpr double kShifter = 0x1.8p52;
inline constexpr std::uint64_t kShifterBits = 0x4338000000000000ull;
// ln 2 split so that k * kLn2Hi is exact for |k| < 2^11 (fdlibm's pair).
inline constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
// kPoly[i] = 1/(i+2)!: q(r) = sum kPoly[i] r^i, the Taylor tail of exp
// past 1 + r, to degree 13.
inline constexpr double kPoly[12] = {
    1.0 / 2.0,       1.0 / 6.0,        1.0 / 24.0,        1.0 / 120.0,
    1.0 / 720.0,     1.0 / 5040.0,     1.0 / 40320.0,     1.0 / 362880.0,
    1.0 / 3628800.0, 1.0 / 39916800.0, 1.0 / 479001600.0, 1.0 / 6227020800.0};
// k + 2048 is positive for every clamped x, so halving it is a logical
// shift; 2^j has exponent bits (j + 1023) << 52.
inline constexpr std::uint64_t kBias = 2048 - kShifterBits;
}  // namespace exp_const

inline double exp_element(double x) {
  using namespace exp_const;
  x = kMax < x ? kMax : x;  // a NaN x fails both compares and stays NaN
  x = kMin > x ? kMin : x;
  const double t = x * kLog2e + kShifter;
  const double k = t - kShifter;
  const double r = (x - k * kLn2Hi) - k * kLn2Lo;
  // Estrin's scheme: six pairs, three quads, then two powers of r.
  const double r2 = r * r;
  const double r4 = r2 * r2;
  const double r8 = r4 * r4;
  double b[6];
  for (int i = 0; i < 6; ++i) b[i] = kPoly[2 * i] + kPoly[2 * i + 1] * r;
  const double c0 = b[0] + b[1] * r2;
  const double c1 = b[2] + b[3] * r2;
  const double c2 = b[4] + b[5] * r2;
  const double q = (c0 + c1 * r4) + c2 * r8;
  const double p = 1.0 + (r + r2 * q);
  const std::uint64_t kb = std::bit_cast<std::uint64_t>(t) + kBias;
  const std::uint64_t half = kb >> 1;
  return p * std::bit_cast<double>((half - 1) << 52) *
         std::bit_cast<double>((kb - half - 1) << 52);
}

// Below this |x|, tanh(x) rounds to x in float and (1 - e) / (1 + e)
// would lose x to cancellation.
inline constexpr double kTanhTiny = 0x1p-14;

inline float tanh_element(float x) {
  const std::uint64_t sign =
      std::bit_cast<std::uint64_t>(static_cast<double>(x)) & (1ull << 63);
  const double a = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(static_cast<double>(x)) ^ sign);
  const double e = exp_element(-2.0 * a);
  double t = (1.0 - e) / (1.0 + e);
  t = a < kTanhTiny ? a : t;
  return static_cast<float>(
      std::bit_cast<double>(std::bit_cast<std::uint64_t>(t) | sign));
}

// Doubles a vector dot tile widens its A rows into on its own stack. Rows
// up to this size never touch the heap, so no call allocates, not even a
// pool worker's first call on a row block it claims mid-run.
constexpr std::size_t kWidenStack = 4 * 1024;

// Grow-once per-thread buffer of at least `count` doubles for rows longer
// than kWidenStack allows.
double* widen_scratch(std::size_t count);

const SimdOps& scalar_ops();
const SimdOps& sse2_ops();  // null-equivalent to scalar on non-x86
const SimdOps& avx2_ops();  // only safe to call through when CPU has AVX2+FMA

}  // namespace cgx::util::simd::detail
