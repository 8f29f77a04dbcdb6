// Internal dispatch table shared by the scalar/SSE2/AVX2 translation units.
// Not installed API — include only from src/util/simd*.cpp and tests that
// poke specific levels.
#pragma once

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
                   std::size_t nb, std::size_t n);
  void (*adam_update)(const AdamCoeffs& coeffs, float* w, float* grad,
                      float* m, float* v, std::size_t n);

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

// Grow-once per-thread buffer of at least `count` doubles, into which the
// vector dot tiles widen their A rows. It reaches its high-water mark
// during warm-up; later calls return it without allocating.
double* widen_scratch(std::size_t count);

const SimdOps& scalar_ops();
const SimdOps& sse2_ops();  // null-equivalent to scalar on non-x86
const SimdOps& avx2_ops();  // only safe to call through when CPU has AVX2+FMA

}  // namespace cgx::util::simd::detail
