// AVX2 kernel implementations. Compiled with -mavx2 -mfma so the intrinsics
// are available, but arithmetic deliberately uses separate multiply+add —
// never FMA — and the TU is built with -ffp-contract=off, because fusing
// would change rounding and break the bit-exactness contract against the
// scalar reference (see simd.h). The two exceptions are dot_tile's
// double accumulate of a product of two widened floats (that product is
// exact in double, so the fused form rounds once, exactly like the
// separate add) and the Adam kernel's corrected reciprocal, whose fused
// residual and correction are what make it round exactly like the divide
// it replaces. Reductions stripe elements across eight double lanes
// exactly like the scalar path (element i -> lane i % 8) and fold with the
// shared canonical tree.
#include "util/simd_internal.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace cgx::util::simd::detail {
namespace {

// ------------------------------------------------------------- elementwise

void axpy_avx2(float alpha, const float* x, float* y, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy = _mm256_loadu_ps(y + i);
    const __m256 vx = _mm256_loadu_ps(x + i);
    _mm256_storeu_ps(y + i, _mm256_add_ps(vy, _mm256_mul_ps(va, vx)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void scale_avx2(float* x, float alpha, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void sub_avx2(const float* a, const float* b, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

void add_avx2(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void add_scaled_avx2(const float* a, float beta, const float* b, float* out,
                     std::size_t n) {
  const __m256 vb = _mm256_set1_ps(beta);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i,
                     _mm256_add_ps(_mm256_loadu_ps(a + i),
                                   _mm256_mul_ps(vb, _mm256_loadu_ps(b + i))));
  }
  for (; i < n; ++i) out[i] = a[i] + beta * b[i];
}

void madd_avx2(float* dst, const float* a, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i,
                     _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                   _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                                 _mm256_loadu_ps(b + i))));
  }
  for (; i < n; ++i) dst[i] += a[i] * b[i];
}

// ------------------------------------------------------------- reductions

// 8 floats widen to two 4-lane double vectors: lanes [0..3] and [4..7].
struct Lanes8d {
  __m256d d03, d47;
};

inline Lanes8d widen8(const float* p) {
  const __m256 x = _mm256_loadu_ps(p);
  return {_mm256_cvtps_pd(_mm256_castps256_ps128(x)),
          _mm256_cvtps_pd(_mm256_extractf128_ps(x, 1))};
}

double reduce_sum_avx2(const float* x, std::size_t n) {
  __m256d a03 = _mm256_setzero_pd();
  __m256d a47 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const Lanes8d v = widen8(x + i);
    a03 = _mm256_add_pd(a03, v.d03);
    a47 = _mm256_add_pd(a47, v.d47);
  }
  double lanes[8];
  _mm256_storeu_pd(lanes, a03);
  _mm256_storeu_pd(lanes + 4, a47);
  for (; i < n; ++i) lanes[i % 8] += static_cast<double>(x[i]);
  return combine_lanes(lanes);
}

// Spills a dot product's lane accumulators, adds the ragged tail [i, n) into
// lane i % 8, and folds with the canonical tree. Shared by reduce_dot and
// every output of dot_tile.
inline double finish_dot(__m256d a03, __m256d a47, const float* x,
                         const float* y, std::size_t i, std::size_t n) {
  double lanes[8];
  _mm256_storeu_pd(lanes, a03);
  _mm256_storeu_pd(lanes + 4, a47);
  for (; i < n; ++i) {
    lanes[i % 8] += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  return combine_lanes(lanes);
}

double reduce_dot_avx2(const float* x, const float* y, std::size_t n) {
  __m256d a03 = _mm256_setzero_pd();
  __m256d a47 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const Lanes8d vx = widen8(x + i);
    const Lanes8d vy = widen8(y + i);
    a03 = _mm256_add_pd(a03, _mm256_mul_pd(vx.d03, vy.d03));
    a47 = _mm256_add_pd(a47, _mm256_mul_pd(vx.d47, vy.d47));
  }
  return finish_dot(a03, a47, x, y, i, n);
}

double reduce_sqnorm_avx2(const float* x, std::size_t n) {
  return reduce_dot_avx2(x, x, n);
}

double reduce_sqdiff_avx2(const float* x, double mean, std::size_t n) {
  const __m256d vm = _mm256_set1_pd(mean);
  __m256d a03 = _mm256_setzero_pd();
  __m256d a47 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const Lanes8d v = widen8(x + i);
    const __m256d d03 = _mm256_sub_pd(v.d03, vm);
    const __m256d d47 = _mm256_sub_pd(v.d47, vm);
    a03 = _mm256_add_pd(a03, _mm256_mul_pd(d03, d03));
    a47 = _mm256_add_pd(a47, _mm256_mul_pd(d47, d47));
  }
  double lanes[8];
  _mm256_storeu_pd(lanes, a03);
  _mm256_storeu_pd(lanes + 4, a47);
  for (; i < n; ++i) {
    const double d = static_cast<double>(x[i]) - mean;
    lanes[i % 8] += d * d;
  }
  return combine_lanes(lanes);
}

float reduce_max_avx2(const float* x, std::size_t n, float init) {
  __m256 m = _mm256_set1_ps(init);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // max_ps(x, m): keeps m when x is NaN, matching the scalar ternary.
    m = _mm256_max_ps(_mm256_loadu_ps(x + i), m);
  }
  float lanes[8];
  _mm256_storeu_ps(lanes, m);
  for (; i < n; ++i) {
    lanes[i % 8] = lanes[i % 8] < x[i] ? x[i] : lanes[i % 8];
  }
  return combine_lanes_max(lanes);
}

float reduce_max_abs_avx2(const float* x, std::size_t n) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 m = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    m = _mm256_max_ps(_mm256_and_ps(_mm256_loadu_ps(x + i), abs_mask), m);
  }
  float lanes[8];
  _mm256_storeu_ps(lanes, m);
  for (; i < n; ++i) {
    const float a = std::bit_cast<float>(std::bit_cast<std::uint32_t>(x[i]) &
                                         0x7fffffffu);
    lanes[i % 8] = lanes[i % 8] < a ? a : lanes[i % 8];
  }
  return combine_lanes_max(lanes);
}

// ------------------------------------------------------------ quantization

void qsgd_quantize_avx2(const float* v, const float* u, std::size_t n,
                        float inv_norm, std::uint32_t s,
                        std::uint32_t sign_bit, std::uint32_t* sym) {
  const float s_f = static_cast<float>(s);
  const __m256 vinv = _mm256_set1_ps(inv_norm);
  const __m256 vs_f = _mm256_set1_ps(s_f);
  const __m256i vs_i = _mm256_set1_epi32(static_cast<int>(s));
  const __m256i abs_mask = _mm256_set1_epi32(0x7fffffff);
  const __m128i shift =
      _mm_cvtsi32_si128(static_cast<int>(std::countr_zero(sign_bit)));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vbits =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const __m256 a = _mm256_mul_ps(
        _mm256_castsi256_ps(_mm256_and_si256(vbits, abs_mask)), vinv);
    const __m256 t =
        _mm256_add_ps(_mm256_mul_ps(a, vs_f), _mm256_loadu_ps(u + i));
    const __m256i level = _mm256_min_epi32(_mm256_cvttps_epi32(t), vs_i);
    const __m256i sign =
        _mm256_sll_epi32(_mm256_srli_epi32(vbits, 31), shift);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sym + i),
                        _mm256_or_si256(level, sign));
  }
  const auto s_i = static_cast<std::int32_t>(s);
  for (; i < n; ++i) {
    const std::uint32_t v_bits = std::bit_cast<std::uint32_t>(v[i]);
    const float a = std::bit_cast<float>(v_bits & 0x7fffffffu) * inv_norm;
    std::int32_t level = static_cast<std::int32_t>(a * s_f + u[i]);
    level = level < s_i ? level : s_i;
    sym[i] = static_cast<std::uint32_t>(level) | ((v_bits >> 31) * sign_bit);
  }
}

void qsgd_dequantize_avx2(const std::uint32_t* sym, std::size_t n, float scale,
                          std::uint32_t sign_bit, unsigned sign_shift,
                          float* out) {
  const std::uint32_t level_mask = sign_bit - 1;
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256i vmask = _mm256_set1_epi32(static_cast<int>(level_mask));
  const __m256i vsign = _mm256_set1_epi32(static_cast<int>(sign_bit));
  const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(sign_shift));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sym + i));
    const __m256 mag = _mm256_mul_ps(
        _mm256_cvtepi32_ps(_mm256_and_si256(s, vmask)), vscale);
    const __m256i sg = _mm256_sll_epi32(_mm256_and_si256(s, vsign), shift);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_or_si256(_mm256_castps_si256(mag), sg));
  }
  for (; i < n; ++i) {
    const std::uint32_t symbol = sym[i];
    const float magnitude = static_cast<float>(symbol & level_mask) * scale;
    out[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(magnitude) |
                                  ((symbol & sign_bit) << sign_shift));
  }
}

void nuq_quantize_avx2(const float* v, const float* u, std::size_t n,
                       float inv_norm, unsigned bits, std::uint32_t* sym) {
  const int top = (1 << (bits - 1)) - 1;
  const std::uint32_t sign_bit = 1u << (bits - 1);
  const __m256 vinv = _mm256_set1_ps(inv_norm);
  const __m256 vone = _mm256_set1_ps(1.0f);
  const __m256i abs_mask = _mm256_set1_epi32(0x7fffffff);
  const __m256i vtop = _mm256_set1_epi32(top);
  const __m256i voff = _mm256_set1_epi32(top - 127);
  const __m256i vexp0 = _mm256_set1_epi32(127 - top);
  const __m256i vexp1 = _mm256_set1_epi32(128 - top);
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vone_i = _mm256_set1_epi32(1);
  const __m128i sshift = _mm_cvtsi32_si128(static_cast<int>(bits - 1));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vbits =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const __m256 a = _mm256_min_ps(
        _mm256_mul_ps(_mm256_castsi256_ps(_mm256_and_si256(vbits, abs_mask)),
                      vinv),
        vone);
    __m256i lo = _mm256_add_epi32(
        _mm256_srli_epi32(_mm256_castps_si256(a), 23), voff);
    lo = _mm256_min_epi32(_mm256_max_epi32(lo, vzero), vtop);
    const __m256 low = _mm256_castsi256_ps(_mm256_andnot_si256(
        _mm256_cmpeq_epi32(lo, vzero),
        _mm256_slli_epi32(_mm256_add_epi32(lo, vexp0), 23)));
    const __m256 high = _mm256_castsi256_ps(
        _mm256_slli_epi32(_mm256_add_epi32(lo, vexp1), 23));
    const __m256 p = _mm256_div_ps(_mm256_sub_ps(a, low),
                                   _mm256_sub_ps(high, low));
    // u < p, ordered (false on NaN p), matching the scalar `u[i] < p`.
    const __m256i ult =
        _mm256_castps_si256(_mm256_cmp_ps(_mm256_loadu_ps(u + i), p, _CMP_LT_OQ));
    const __m256i take = _mm256_and_si256(ult, _mm256_cmpgt_epi32(vtop, lo));
    const __m256i idx = _mm256_add_epi32(lo, _mm256_and_si256(take, vone_i));
    const __m256i sign =
        _mm256_sll_epi32(_mm256_srli_epi32(vbits, 31), sshift);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sym + i),
                        _mm256_or_si256(idx, sign));
  }
  for (; i < n; ++i) {
    const std::uint32_t v_bits = std::bit_cast<std::uint32_t>(v[i]);
    float a = std::bit_cast<float>(v_bits & 0x7fffffffu) * inv_norm;
    a = a < 1.0f ? a : 1.0f;
    const int e =
        static_cast<int>(std::bit_cast<std::uint32_t>(a) >> 23) - 127;
    int lo = e + top;
    lo = lo < 0 ? 0 : (lo > top ? top : lo);
    std::uint32_t inc = 0;
    if (lo < top) {
      const float low =
          lo == 0 ? 0.0f
                  : std::bit_cast<float>(
                        static_cast<std::uint32_t>(lo - top + 127) << 23);
      const float high = std::bit_cast<float>(
          static_cast<std::uint32_t>(lo + 1 - top + 127) << 23);
      const float p = (a - low) / (high - low);
      inc = u[i] < p ? 1u : 0u;
    }
    sym[i] = (static_cast<std::uint32_t>(lo) + inc) |
             ((v_bits >> 31) * sign_bit);
  }
}

void nuq_dequantize_avx2(const std::uint32_t* sym, std::size_t n, float norm,
                         unsigned bits, float* out) {
  const int top = (1 << (bits - 1)) - 1;
  const std::uint32_t sign_bit = 1u << (bits - 1);
  const std::uint32_t index_mask = sign_bit - 1;
  const __m256 vnorm = _mm256_set1_ps(norm);
  const __m256i vmask = _mm256_set1_epi32(static_cast<int>(index_mask));
  const __m256i vsign = _mm256_set1_epi32(static_cast<int>(sign_bit));
  const __m256i vexp0 = _mm256_set1_epi32(127 - top);
  const __m256i vzero = _mm256_setzero_si256();
  const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(32 - bits));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sym + i));
    const __m256i idx = _mm256_and_si256(s, vmask);
    const __m256 level = _mm256_castsi256_ps(_mm256_andnot_si256(
        _mm256_cmpeq_epi32(idx, vzero),
        _mm256_slli_epi32(_mm256_add_epi32(idx, vexp0), 23)));
    const __m256 value = _mm256_mul_ps(level, vnorm);
    const __m256i sg = _mm256_sll_epi32(_mm256_and_si256(s, vsign), shift);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_xor_si256(_mm256_castps_si256(value), sg));
  }
  for (; i < n; ++i) {
    const std::uint32_t symbol = sym[i];
    const auto idx = static_cast<int>(symbol & index_mask);
    const float level =
        idx == 0 ? 0.0f
                 : std::bit_cast<float>(
                       static_cast<std::uint32_t>(idx - top + 127) << 23);
    const float value = level * norm;
    out[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(value) ^
                                  ((symbol & sign_bit) ? 0x80000000u : 0u));
  }
}

// -------------------------------------------------------------------- gemm

inline void gemm_cols_scalar(const float* a, std::size_t lda, bool a_trans,
                             const float* b, std::size_t ldb, float* c,
                             std::size_t ldc, std::size_t mb, std::size_t kb,
                             std::size_t j0, std::size_t nb) {
  for (std::size_t i = 0; i < mb; ++i) {
    float* crow = c + i * ldc;
    for (std::size_t j = j0; j < nb; ++j) {
      float acc = crow[j];
      for (std::size_t k = 0; k < kb; ++k) {
        const float aik = a_trans ? a[k * lda + i] : a[i * lda + k];
        acc += aik * b[k * ldb + j];
      }
      crow[j] = acc;
    }
  }
}

// 4x16 register-blocked micro-kernel (8 ymm accumulators) with 4x8, 1x8 and
// scalar fallbacks for the fringes. mul+add, never FMA (see header comment).
template <bool ATrans>
inline void gemm_tile_impl(const float* a, std::size_t lda, const float* b,
                           std::size_t ldb, float* c, std::size_t ldc,
                           std::size_t mb, std::size_t kb, std::size_t nb) {
  auto a_at = [&](std::size_t i, std::size_t k) {
    return ATrans ? a[k * lda + i] : a[i * lda + k];
  };
  std::size_t i = 0;
  for (; i + 4 <= mb; i += 4) {
    float* c0 = c + (i + 0) * ldc;
    float* c1 = c + (i + 1) * ldc;
    float* c2 = c + (i + 2) * ldc;
    float* c3 = c + (i + 3) * ldc;
    std::size_t j = 0;
    for (; j + 16 <= nb; j += 16) {
      __m256 acc0a = _mm256_loadu_ps(c0 + j);
      __m256 acc0b = _mm256_loadu_ps(c0 + j + 8);
      __m256 acc1a = _mm256_loadu_ps(c1 + j);
      __m256 acc1b = _mm256_loadu_ps(c1 + j + 8);
      __m256 acc2a = _mm256_loadu_ps(c2 + j);
      __m256 acc2b = _mm256_loadu_ps(c2 + j + 8);
      __m256 acc3a = _mm256_loadu_ps(c3 + j);
      __m256 acc3b = _mm256_loadu_ps(c3 + j + 8);
      for (std::size_t k = 0; k < kb; ++k) {
        const float* brow = b + k * ldb + j;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        __m256 av = _mm256_set1_ps(a_at(i + 0, k));
        acc0a = _mm256_add_ps(acc0a, _mm256_mul_ps(av, b0));
        acc0b = _mm256_add_ps(acc0b, _mm256_mul_ps(av, b1));
        av = _mm256_set1_ps(a_at(i + 1, k));
        acc1a = _mm256_add_ps(acc1a, _mm256_mul_ps(av, b0));
        acc1b = _mm256_add_ps(acc1b, _mm256_mul_ps(av, b1));
        av = _mm256_set1_ps(a_at(i + 2, k));
        acc2a = _mm256_add_ps(acc2a, _mm256_mul_ps(av, b0));
        acc2b = _mm256_add_ps(acc2b, _mm256_mul_ps(av, b1));
        av = _mm256_set1_ps(a_at(i + 3, k));
        acc3a = _mm256_add_ps(acc3a, _mm256_mul_ps(av, b0));
        acc3b = _mm256_add_ps(acc3b, _mm256_mul_ps(av, b1));
      }
      _mm256_storeu_ps(c0 + j, acc0a);
      _mm256_storeu_ps(c0 + j + 8, acc0b);
      _mm256_storeu_ps(c1 + j, acc1a);
      _mm256_storeu_ps(c1 + j + 8, acc1b);
      _mm256_storeu_ps(c2 + j, acc2a);
      _mm256_storeu_ps(c2 + j + 8, acc2b);
      _mm256_storeu_ps(c3 + j, acc3a);
      _mm256_storeu_ps(c3 + j + 8, acc3b);
    }
    for (; j + 8 <= nb; j += 8) {
      __m256 acc0 = _mm256_loadu_ps(c0 + j);
      __m256 acc1 = _mm256_loadu_ps(c1 + j);
      __m256 acc2 = _mm256_loadu_ps(c2 + j);
      __m256 acc3 = _mm256_loadu_ps(c3 + j);
      for (std::size_t k = 0; k < kb; ++k) {
        const __m256 b0 = _mm256_loadu_ps(b + k * ldb + j);
        acc0 = _mm256_add_ps(acc0,
                             _mm256_mul_ps(_mm256_set1_ps(a_at(i + 0, k)), b0));
        acc1 = _mm256_add_ps(acc1,
                             _mm256_mul_ps(_mm256_set1_ps(a_at(i + 1, k)), b0));
        acc2 = _mm256_add_ps(acc2,
                             _mm256_mul_ps(_mm256_set1_ps(a_at(i + 2, k)), b0));
        acc3 = _mm256_add_ps(acc3,
                             _mm256_mul_ps(_mm256_set1_ps(a_at(i + 3, k)), b0));
      }
      _mm256_storeu_ps(c0 + j, acc0);
      _mm256_storeu_ps(c1 + j, acc1);
      _mm256_storeu_ps(c2 + j, acc2);
      _mm256_storeu_ps(c3 + j, acc3);
    }
    if (j < nb) {
      gemm_cols_scalar(ATrans ? a + i : a + i * lda, lda, ATrans, b, ldb,
                       c + i * ldc, ldc, 4, kb, j, nb);
    }
  }
  for (; i < mb; ++i) {
    float* crow = c + i * ldc;
    std::size_t j = 0;
    for (; j + 8 <= nb; j += 8) {
      __m256 acc = _mm256_loadu_ps(crow + j);
      for (std::size_t k = 0; k < kb; ++k) {
        acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(a_at(i, k)),
                                               _mm256_loadu_ps(b + k * ldb + j)));
      }
      _mm256_storeu_ps(crow + j, acc);
    }
    if (j < nb) {
      gemm_cols_scalar(ATrans ? a + i : a + i * lda, lda, ATrans, b, ldb,
                       crow, ldc, 1, kb, j, nb);
    }
  }
}

void gemm_tile_avx2(const float* a, std::size_t lda, const float* b,
                    std::size_t ldb, float* c, std::size_t ldc, std::size_t mb,
                    std::size_t kb, std::size_t nb) {
  gemm_tile_impl<false>(a, lda, b, ldb, c, ldc, mb, kb, nb);
}

void gemm_tile_at_avx2(const float* a, std::size_t lda, const float* b,
                       std::size_t ldb, float* c, std::size_t ldc,
                       std::size_t mb, std::size_t kb, std::size_t nb) {
  gemm_tile_impl<true>(a, lda, b, ldb, c, ldc, mb, kb, nb);
}

// ------------------------------------------------------------- pack/unpack

// Vector paths exist for the word-aligned prefix only; output words are
// bit-identical to bitio's scalar `word |= sym << (j*bits)` loop.

bool pack_words_avx2(const std::uint32_t* sym, std::size_t nwords,
                     unsigned bits, std::byte* out) {
  if (bits == 8) {
    // 8 symbols -> one 64-bit word: gather the low byte of each dword.
    const __m256i shuf = _mm256_setr_epi8(
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,  //
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
    for (std::size_t w = 0; w < nwords; ++w) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sym + w * 8));
      const __m256i t = _mm256_shuffle_epi8(v, shuf);
      const auto lo = static_cast<std::uint32_t>(
          _mm_cvtsi128_si32(_mm256_castsi256_si128(t)));
      const auto hi = static_cast<std::uint32_t>(
          _mm_cvtsi128_si32(_mm256_extracti128_si256(t, 1)));
      const std::uint64_t word =
          static_cast<std::uint64_t>(lo) | (static_cast<std::uint64_t>(hi) << 32);
      std::memcpy(out + w * 8, &word, 8);
    }
    return true;
  }
  if (bits == 4) {
    // 16 symbols -> one word: pair nibbles inside each qword, then gather.
    const __m256i nib_mask = _mm256_set1_epi32(0xF);
    const __m256i odd_shift = _mm256_setr_epi32(0, 4, 0, 4, 0, 4, 0, 4);
    const __m256i shuf = _mm256_setr_epi8(
        0, 8, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,  //
        0, 8, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
    auto gather4 = [&](const std::uint32_t* p) {
      __m256i v = _mm256_and_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)), nib_mask);
      v = _mm256_sllv_epi32(v, odd_shift);
      v = _mm256_or_si256(v, _mm256_srli_epi64(v, 32));
      const __m256i t = _mm256_shuffle_epi8(v, shuf);
      const auto lo = static_cast<std::uint32_t>(
          _mm_cvtsi128_si32(_mm256_castsi256_si128(t)));
      const auto hi = static_cast<std::uint32_t>(
          _mm_cvtsi128_si32(_mm256_extracti128_si256(t, 1)));
      return (lo & 0xFFFFu) | ((hi & 0xFFFFu) << 16);
    };
    for (std::size_t w = 0; w < nwords; ++w) {
      const std::uint32_t* p = sym + w * 16;
      const std::uint64_t word =
          static_cast<std::uint64_t>(gather4(p)) |
          (static_cast<std::uint64_t>(gather4(p + 8)) << 32);
      std::memcpy(out + w * 8, &word, 8);
    }
    return true;
  }
  return false;
}

bool unpack_words_avx2(const std::byte* in, std::size_t nwords, unsigned bits,
                       std::uint32_t* sym) {
  if (bits == 8) {
    for (std::size_t w = 0; w < nwords; ++w) {
      std::uint64_t word;
      std::memcpy(&word, in + w * 8, 8);
      const __m128i b = _mm_cvtsi64_si128(static_cast<long long>(word));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(sym + w * 8),
                          _mm256_cvtepu8_epi32(b));
    }
    return true;
  }
  if (bits == 4) {
    const __m256i shifts = _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28);
    const __m256i mask = _mm256_set1_epi32(0xF);
    for (std::size_t w = 0; w < nwords; ++w) {
      std::uint64_t word;
      std::memcpy(&word, in + w * 8, 8);
      const auto lo = static_cast<std::uint32_t>(word);
      const auto hi = static_cast<std::uint32_t>(word >> 32);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(sym + w * 16),
          _mm256_and_si256(
              _mm256_srlv_epi32(_mm256_set1_epi32(static_cast<int>(lo)), shifts),
              mask));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(sym + w * 16 + 8),
          _mm256_and_si256(
              _mm256_srlv_epi32(_mm256_set1_epi32(static_cast<int>(hi)), shifts),
              mask));
    }
    return true;
  }
  if (bits == 2) {
    const __m256i shifts = _mm256_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14);
    const __m256i mask = _mm256_set1_epi32(0x3);
    for (std::size_t w = 0; w < nwords; ++w) {
      std::uint64_t word;
      std::memcpy(&word, in + w * 8, 8);
      for (unsigned g = 0; g < 4; ++g) {
        const auto part =
            static_cast<std::uint32_t>((word >> (16 * g)) & 0xFFFFu);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(sym + w * 32 + g * 8),
            _mm256_and_si256(
                _mm256_srlv_epi32(_mm256_set1_epi32(static_cast<int>(part)),
                                  shifts),
                mask));
      }
    }
    return true;
  }
  return false;
}

// ---------------------------------------------------------------- dot tile

// 4 A rows x 1 B row: the four A rows are widened to double once, then every
// B row is widened once and fused-multiply-added into all four rows' eight
// lanes (eight accumulators). A float x float product is exact in double
// (24 + 24 significand bits; exponents far inside double range), so
// fma(a, b, acc) rounds exactly like acc + a * b (DESIGN.md §5e).
void dot_tile_avx2(const float* a, std::size_t lda, const float* b,
                   std::size_t ldb, float* c, std::size_t ldc, std::size_t mb,
                   std::size_t nb, std::size_t n, bool accumulate) {
  const std::size_t nv = n - n % 8;
  std::size_t i = 0;
  if (nv > 0) {
    alignas(32) double local[kWidenStack];
    double* wa = 4 * nv <= kWidenStack ? local : widen_scratch(4 * nv);
    for (; i + 4 <= mb; i += 4) {
      const float* arow = a + i * lda;
      for (std::size_t r = 0; r < 4; ++r) {
        for (std::size_t k = 0; k < nv; k += 8) {
          const Lanes8d v = widen8(arow + r * lda + k);
          _mm256_storeu_pd(wa + r * nv + k, v.d03);
          _mm256_storeu_pd(wa + r * nv + k + 4, v.d47);
        }
      }
      const double* w0 = wa;
      const double* w1 = wa + nv;
      const double* w2 = wa + 2 * nv;
      const double* w3 = wa + 3 * nv;
      for (std::size_t j = 0; j < nb; ++j) {
        const float* bj = b + j * ldb;
        __m256d a0l = _mm256_setzero_pd(), a0h = _mm256_setzero_pd();
        __m256d a1l = _mm256_setzero_pd(), a1h = _mm256_setzero_pd();
        __m256d a2l = _mm256_setzero_pd(), a2h = _mm256_setzero_pd();
        __m256d a3l = _mm256_setzero_pd(), a3h = _mm256_setzero_pd();
        for (std::size_t k = 0; k < nv; k += 8) {
          const Lanes8d vb = widen8(bj + k);
          a0l = _mm256_fmadd_pd(_mm256_loadu_pd(w0 + k), vb.d03, a0l);
          a0h = _mm256_fmadd_pd(_mm256_loadu_pd(w0 + k + 4), vb.d47, a0h);
          a1l = _mm256_fmadd_pd(_mm256_loadu_pd(w1 + k), vb.d03, a1l);
          a1h = _mm256_fmadd_pd(_mm256_loadu_pd(w1 + k + 4), vb.d47, a1h);
          a2l = _mm256_fmadd_pd(_mm256_loadu_pd(w2 + k), vb.d03, a2l);
          a2h = _mm256_fmadd_pd(_mm256_loadu_pd(w2 + k + 4), vb.d47, a2h);
          a3l = _mm256_fmadd_pd(_mm256_loadu_pd(w3 + k), vb.d03, a3l);
          a3h = _mm256_fmadd_pd(_mm256_loadu_pd(w3 + k + 4), vb.d47, a3h);
        }
        float* cj = c + i * ldc + j;
        store_dot(cj[0], finish_dot(a0l, a0h, arow, bj, nv, n), accumulate);
        store_dot(cj[ldc], finish_dot(a1l, a1h, arow + lda, bj, nv, n),
                  accumulate);
        store_dot(cj[2 * ldc],
                  finish_dot(a2l, a2h, arow + 2 * lda, bj, nv, n), accumulate);
        store_dot(cj[3 * ldc],
                  finish_dot(a3l, a3h, arow + 3 * lda, bj, nv, n), accumulate);
      }
    }
  }
  for (; i < mb; ++i) {
    for (std::size_t j = 0; j < nb; ++j) {
      store_dot(c[i * ldc + j], reduce_dot_avx2(a + i * lda, b + j * ldb, n),
                accumulate);
    }
  }
}

// -------------------------------------------------------------------- adam

// m / b for four widened floats m, given y = RN(1/b): the corrected
// reciprocal of simd.h. The residual r = m - q*b is exact in the fma, and
// q + r*y rounds to the correctly rounded quotient (Markstein). Lanes where
// m is ±0, ±inf or NaN keep q = m*y, which equals m / b there; the
// correction would give +0 for -0 and NaN for ±inf.
inline __m256d div_by_recip(__m256d m, __m256d b, __m256d y) {
  const __m256d q = _mm256_mul_pd(m, y);
  const __m256d r = _mm256_fnmadd_pd(q, b, m);
  const __m256d corrected = _mm256_fmadd_pd(r, y, q);
  const __m256d mag = _mm256_andnot_pd(_mm256_set1_pd(-0.0), m);
  const __m256d finite_nonzero = _mm256_and_pd(
      _mm256_cmp_pd(mag, _mm256_setzero_pd(), _CMP_GT_OQ),
      _mm256_cmp_pd(mag, _mm256_set1_pd(HUGE_VAL), _CMP_LT_OQ));
  return _mm256_blendv_pd(q, corrected, finite_nonzero);
}

// The double half of four Adam elements: lr * mhat / (sqrt(vhat) + eps).
inline __m128 adam_step4(__m128 m, __m128 v, __m256d bias1, __m256d y1,
                         __m256d bias2, __m256d y2, __m256d lr, __m256d eps) {
  const __m256d mhat = div_by_recip(_mm256_cvtps_pd(m), bias1, y1);
  const __m256d vhat = div_by_recip(_mm256_cvtps_pd(v), bias2, y2);
  return _mm256_cvtpd_ps(_mm256_div_pd(
      _mm256_mul_pd(lr, mhat), _mm256_add_pd(_mm256_sqrt_pd(vhat), eps)));
}

// Bias corrections for which the corrected reciprocal is exact for every
// widened float m: no intermediate can under- or overflow (simd.h).
inline bool recip_exact_for(double bias) {
  const double mag = std::fabs(bias);
  return mag >= 0x1p-64 && mag <= 0x1p64;
}

void adam_update_avx2(const AdamCoeffs& c, float* w, float* grad, float* m,
                      float* v, std::size_t n) {
  std::size_t i = 0;
  if (recip_exact_for(c.bias1) && recip_exact_for(c.bias2)) {
    const __m256 wd = _mm256_set1_ps(c.weight_decay);
    const __m256 b1 = _mm256_set1_ps(c.beta1);
    const __m256 c1 = _mm256_set1_ps(c.one_minus_beta1);
    const __m256 b2 = _mm256_set1_ps(c.beta2);
    const __m256 c2 = _mm256_set1_ps(c.one_minus_beta2);
    const __m256d bias1 = _mm256_set1_pd(c.bias1);
    const __m256d bias2 = _mm256_set1_pd(c.bias2);
    const __m256d y1 = _mm256_set1_pd(1.0 / c.bias1);
    const __m256d y2 = _mm256_set1_pd(1.0 / c.bias2);
    const __m256d lr = _mm256_set1_pd(c.lr);
    const __m256d eps = _mm256_set1_pd(c.eps);
    for (; i + 8 <= n; i += 8) {
      const __m256 vw = _mm256_loadu_ps(w + i);
      const __m256 g =
          _mm256_add_ps(_mm256_loadu_ps(grad + i), _mm256_mul_ps(wd, vw));
      _mm256_storeu_ps(grad + i, _mm256_setzero_ps());
      const __m256 vm = _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + i)),
                                      _mm256_mul_ps(c1, g));
      const __m256 vv =
          _mm256_add_ps(_mm256_mul_ps(b2, _mm256_loadu_ps(v + i)),
                        _mm256_mul_ps(_mm256_mul_ps(c2, g), g));
      _mm256_storeu_ps(m + i, vm);
      _mm256_storeu_ps(v + i, vv);
      const __m128 lo =
          adam_step4(_mm256_castps256_ps128(vm), _mm256_castps256_ps128(vv),
                     bias1, y1, bias2, y2, lr, eps);
      const __m128 hi = adam_step4(_mm256_extractf128_ps(vm, 1),
                                   _mm256_extractf128_ps(vv, 1), bias1, y1,
                                   bias2, y2, lr, eps);
      _mm256_storeu_ps(w + i, _mm256_sub_ps(vw, _mm256_set_m128(hi, lo)));
    }
  }
  for (; i < n; ++i) adam_element(c, w[i], grad[i], m[i], v[i]);
}

// --------------------------------------------------------------------- exp

// exp_element on four lanes: the same operations in the same order. minpd
// and maxpd return their second operand when either is NaN, which is what
// the scalar compares do with the constant first.
inline __m256d exp_pd(__m256d x) {
  using namespace exp_const;
  x = _mm256_min_pd(_mm256_set1_pd(kMax), x);
  x = _mm256_max_pd(_mm256_set1_pd(kMin), x);
  const __m256d shifter = _mm256_set1_pd(kShifter);
  const __m256d t =
      _mm256_add_pd(_mm256_mul_pd(x, _mm256_set1_pd(kLog2e)), shifter);
  const __m256d k = _mm256_sub_pd(t, shifter);
  const __m256d r = _mm256_sub_pd(
      _mm256_sub_pd(x, _mm256_mul_pd(k, _mm256_set1_pd(kLn2Hi))),
      _mm256_mul_pd(k, _mm256_set1_pd(kLn2Lo)));
  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d r4 = _mm256_mul_pd(r2, r2);
  const __m256d r8 = _mm256_mul_pd(r4, r4);
  __m256d b[6];
  for (int i = 0; i < 6; ++i) {
    b[i] = _mm256_add_pd(_mm256_set1_pd(kPoly[2 * i]),
                         _mm256_mul_pd(_mm256_set1_pd(kPoly[2 * i + 1]), r));
  }
  const __m256d c0 = _mm256_add_pd(b[0], _mm256_mul_pd(b[1], r2));
  const __m256d c1 = _mm256_add_pd(b[2], _mm256_mul_pd(b[3], r2));
  const __m256d c2 = _mm256_add_pd(b[4], _mm256_mul_pd(b[5], r2));
  const __m256d q = _mm256_add_pd(_mm256_add_pd(c0, _mm256_mul_pd(c1, r4)),
                                  _mm256_mul_pd(c2, r8));
  const __m256d p = _mm256_add_pd(
      _mm256_set1_pd(1.0), _mm256_add_pd(r, _mm256_mul_pd(r2, q)));
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i kb = _mm256_add_epi64(
      _mm256_castpd_si256(t),
      _mm256_set1_epi64x(static_cast<long long>(kBias)));
  const __m256i half = _mm256_srli_epi64(kb, 1);
  const __m256i e1 = _mm256_slli_epi64(_mm256_sub_epi64(half, one), 52);
  const __m256i e2 = _mm256_slli_epi64(
      _mm256_sub_epi64(_mm256_sub_epi64(kb, half), one), 52);
  return _mm256_mul_pd(_mm256_mul_pd(p, _mm256_castsi256_pd(e1)),
                       _mm256_castsi256_pd(e2));
}

// tanh_element on four widened lanes, narrowed back to float.
inline __m128 tanh_pd(__m256d x) {
  const __m256d sign = _mm256_and_pd(x, _mm256_set1_pd(-0.0));
  const __m256d a = _mm256_xor_pd(x, sign);
  const __m256d e = exp_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), a));
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d t = _mm256_div_pd(_mm256_sub_pd(one, e), _mm256_add_pd(one, e));
  const __m256d tiny =
      _mm256_cmp_pd(a, _mm256_set1_pd(kTanhTiny), _CMP_LT_OQ);
  t = _mm256_blendv_pd(t, a, tiny);
  return _mm256_cvtpd_ps(_mm256_or_pd(t, sign));
}

void exp_avx2(const double* x, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, exp_pd(_mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) out[i] = exp_element(x[i]);
}

double exp_sum_avx2(const float* x, double shift, double* out,
                    std::size_t n) {
  const __m256d s = _mm256_set1_pd(shift);
  __m256d a03 = _mm256_setzero_pd();
  __m256d a47 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const Lanes8d v = widen8(x + i);
    const __m256d e03 = exp_pd(_mm256_sub_pd(v.d03, s));
    const __m256d e47 = exp_pd(_mm256_sub_pd(v.d47, s));
    _mm256_storeu_pd(out + i, e03);
    _mm256_storeu_pd(out + i + 4, e47);
    a03 = _mm256_add_pd(a03, e03);
    a47 = _mm256_add_pd(a47, e47);
  }
  double lanes[8];
  _mm256_storeu_pd(lanes, a03);
  _mm256_storeu_pd(lanes + 4, a47);
  for (; i < n; ++i) {
    out[i] = exp_element(static_cast<double>(x[i]) - shift);
    lanes[i % 8] += out[i];
  }
  return combine_lanes(lanes);
}

void tanh_avx2(const float* x, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const Lanes8d v = widen8(x + i);
    _mm256_storeu_ps(out + i,
                     _mm256_set_m128(tanh_pd(v.d47), tanh_pd(v.d03)));
  }
  for (; i < n; ++i) out[i] = tanh_element(x[i]);
}

// ------------------------------------------------------------ uniforms

template <int K>
inline __m256i rotl64(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, K), _mm256_srli_epi64(x, 64 - K));
}

// xoshiro_next on four streams at once, one per 64-bit lane. The multiplies
// by 5 and 9 are shift-and-adds, exact mod 2^64 like the scalar products.
struct Xoshiro4 {
  __m256i s0, s1, s2, s3;
  __m256i next() {
    const __m256i x5 = _mm256_add_epi64(_mm256_slli_epi64(s1, 2), s1);
    const __m256i r = rotl64<7>(x5);
    const __m256i result = _mm256_add_epi64(_mm256_slli_epi64(r, 3), r);
    const __m256i t = _mm256_slli_epi64(s1, 17);
    s2 = _mm256_xor_si256(s2, s0);
    s3 = _mm256_xor_si256(s3, s1);
    s1 = _mm256_xor_si256(s1, s2);
    s0 = _mm256_xor_si256(s0, s3);
    s2 = _mm256_xor_si256(s2, t);
    s3 = rotl64<45>(s3);
    return result;
  }
};

// Eight 16-bit windows (two draws of one stream, high window first) to
// eight floats — the same exact u16 * 2^-16 the scalar fill computes.
inline void store_windows(__m128i w, float* out) {
  const __m256 f = _mm256_cvtepi32_ps(_mm256_cvtepu16_epi32(w));
  _mm256_storeu_ps(out, _mm256_mul_ps(f, _mm256_set1_ps(0x1.0p-16f)));
}

void bucket_uniforms_avx2(std::uint64_t (*states)[4], std::size_t count,
                          std::size_t len, float* out) {
  // Lane k runs stream k; unused lanes run an all-zero state, which stays
  // zero and is never stored.
  alignas(32) std::uint64_t words[4][4] = {};
  for (std::size_t k = 0; k < count; ++k) {
    for (unsigned w = 0; w < 4; ++w) words[w][k] = states[k][w];
  }
  const auto load = [&](unsigned w) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(words[w]));
  };
  Xoshiro4 g{load(0), load(1), load(2), load(3)};
  // Within each 64-bit draw, reverse the four 16-bit windows so the high
  // one comes first, as in Rng::fill_floats.
  const __m256i reverse = _mm256_setr_epi8(
      6, 7, 4, 5, 2, 3, 0, 1, 14, 15, 12, 13, 10, 11, 8, 9,
      6, 7, 4, 5, 2, 3, 0, 1, 14, 15, 12, 13, 10, 11, 8, 9);
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const __m256i ra = g.next();
    const __m256i rb = g.next();
    // [a0 b0 | a2 b2] and [a1 b1 | a3 b3]: each 128-bit half is one
    // stream's two consecutive draws.
    const __m256i even =
        _mm256_shuffle_epi8(_mm256_unpacklo_epi64(ra, rb), reverse);
    const __m256i odd =
        _mm256_shuffle_epi8(_mm256_unpackhi_epi64(ra, rb), reverse);
    store_windows(_mm256_castsi256_si128(even), out + i);
    if (count > 1) store_windows(_mm256_castsi256_si128(odd), out + len + i);
    if (count > 2) {
      store_windows(_mm256_extracti128_si256(even, 1), out + 2 * len + i);
    }
    if (count > 3) {
      store_windows(_mm256_extracti128_si256(odd, 1), out + 3 * len + i);
    }
  }
  _mm256_store_si256(reinterpret_cast<__m256i*>(words[0]), g.s0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(words[1]), g.s1);
  _mm256_store_si256(reinterpret_cast<__m256i*>(words[2]), g.s2);
  _mm256_store_si256(reinterpret_cast<__m256i*>(words[3]), g.s3);
  for (std::size_t k = 0; k < count; ++k) {
    for (unsigned w = 0; w < 4; ++w) states[k][w] = words[w][k];
    fill_uniforms_tail(states[k], i, len, out + k * len);
  }
}

// ------------------------------------------------------------- copy engine

// dst[i] += src[i] in index order — the scalar sequence, eight lanes at a
// time. Prefetch both streams; dst is read back, so no non-temporal path.
void copy_add_avx2(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    _mm_prefetch(reinterpret_cast<const char*>(src + i) + 256, _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(dst + i) + 256, _MM_HINT_T0);
    for (std::size_t j = 0; j < 32; j += 8) {
      const __m256 vd = _mm256_loadu_ps(dst + i + j);
      const __m256 vs = _mm256_loadu_ps(src + i + j);
      _mm256_storeu_ps(dst + i + j, _mm256_add_ps(vd, vs));
    }
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 vd = _mm256_loadu_ps(dst + i);
    const __m256 vs = _mm256_loadu_ps(src + i);
    _mm256_storeu_ps(dst + i, _mm256_add_ps(vd, vs));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void copy_add2_avx2(float* dst, const float* a, const float* b,
                    std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    _mm_prefetch(reinterpret_cast<const char*>(a + i) + 256, _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(b + i) + 256, _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(dst + i) + 256, _MM_HINT_T0);
    for (std::size_t j = 0; j < 32; j += 8) {
      const __m256 vd = _mm256_loadu_ps(dst + i + j);
      const __m256 va = _mm256_loadu_ps(a + i + j);
      const __m256 vb = _mm256_loadu_ps(b + i + j);
      _mm256_storeu_ps(dst + i + j,
                       _mm256_add_ps(_mm256_add_ps(vd, va), vb));
    }
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 vd = _mm256_loadu_ps(dst + i);
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_add_ps(vd, va), vb));
  }
  for (; i < n; ++i) {
    float acc = dst[i] + a[i];
    dst[i] = acc + b[i];
  }
}

// -------------------------------------------------------- half conversions
//
// Integer-exact vectorizations of util/half.cpp. Every step below is either
// pure integer manipulation or an exact float operation (int -> float for
// values < 2^24, multiply by a power of two), so the results are
// bit-identical to the scalar reference for every input, including
// subnormals, RN-even ties, and the NaN mantissa squash.

// 8 halves (zero-extended into 32-bit lanes) -> 8 float bit patterns.
inline __m256i f16_to_f32_block(__m256i h) {
  const __m256i sign = _mm256_slli_epi32(
      _mm256_and_si256(h, _mm256_set1_epi32(0x8000)), 16);
  const __m256i expf =
      _mm256_and_si256(_mm256_srli_epi32(h, 10), _mm256_set1_epi32(0x1f));
  const __m256i mant = _mm256_and_si256(h, _mm256_set1_epi32(0x3ff));
  const __m256i mant13 = _mm256_slli_epi32(mant, 13);
  // Normal: rebias exponent (half 15 -> float 127).
  const __m256i norm = _mm256_or_si256(
      _mm256_slli_epi32(_mm256_add_epi32(expf, _mm256_set1_epi32(112)), 23),
      mant13);
  // Inf/NaN: exponent all-ones, mantissa shifted up (preserves NaN payload
  // exactly like the scalar path).
  const __m256i infnan =
      _mm256_or_si256(_mm256_set1_epi32(0x7f800000), mant13);
  // Subnormal (and zero): value is mant * 2^-24 exactly. mant < 2^10, so
  // int -> float is exact, and the power-of-two multiply is exact.
  const __m256i sub = _mm256_castps_si256(_mm256_mul_ps(
      _mm256_cvtepi32_ps(mant), _mm256_set1_ps(0x1p-24f)));
  const __m256i zero_exp = _mm256_cmpeq_epi32(expf, _mm256_setzero_si256());
  const __m256i max_exp =
      _mm256_cmpeq_epi32(expf, _mm256_set1_epi32(0x1f));
  __m256i res = _mm256_blendv_epi8(norm, infnan, max_exp);
  res = _mm256_blendv_epi8(res, sub, zero_exp);
  return _mm256_or_si256(res, sign);
}

bool f16_to_f32_avx2(const std::uint16_t* in, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i h = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        f16_to_f32_block(h));
  }
  if (i < n) {
    // Ragged tail: run one padded vector block so the tail goes through the
    // exact same lanes as the body (no scalar duplicate to keep in sync).
    alignas(32) std::uint16_t tin[8] = {};
    alignas(32) float tout[8];
    std::memcpy(tin, in + i, (n - i) * sizeof(std::uint16_t));
    const __m256i h = _mm256_cvtepu16_epi32(
        _mm_load_si128(reinterpret_cast<const __m128i*>(tin)));
    _mm256_store_si256(reinterpret_cast<__m256i*>(tout), f16_to_f32_block(h));
    std::memcpy(out + i, tout, (n - i) * sizeof(float));
  }
  return true;
}

// 8 float bit patterns -> 8 half codes in the low 16 bits of each lane.
inline __m256i f32_to_f16_block(__m256i x) {
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i sign16 = _mm256_and_si256(_mm256_srli_epi32(x, 16),
                                          _mm256_set1_epi32(0x8000));
  const __m256i expf =
      _mm256_and_si256(_mm256_srli_epi32(x, 23), _mm256_set1_epi32(0xff));
  const __m256i mant = _mm256_and_si256(x, _mm256_set1_epi32(0x7fffff));
  const __m256i new_exp = _mm256_sub_epi32(expf, _mm256_set1_epi32(112));

  // Normal candidate with RN-even on the 13 dropped bits. A rounding carry
  // walks into the exponent (0x7bff + 1 = 0x7c00 = inf), as in scalar.
  __m256i vn = _mm256_or_si256(_mm256_slli_epi32(new_exp, 10),
                               _mm256_srli_epi32(mant, 13));
  {
    const __m256i dropped =
        _mm256_and_si256(mant, _mm256_set1_epi32(0x1fff));
    const __m256i gt =
        _mm256_cmpgt_epi32(dropped, _mm256_set1_epi32(0x1000));
    const __m256i eq =
        _mm256_cmpeq_epi32(dropped, _mm256_set1_epi32(0x1000));
    const __m256i odd =
        _mm256_cmpeq_epi32(_mm256_and_si256(vn, one), one);
    // Masks are all-ones (-1); subtracting adds the rounding increment.
    vn = _mm256_sub_epi32(vn, _mm256_or_si256(gt, _mm256_and_si256(eq, odd)));
  }

  // Subnormal candidate: shift = 14 - new_exp in [14, 24] for the lanes
  // that select it; per-lane variable shifts keep everything exact. Shift
  // counts > 31 (deeply underflowed lanes) produce 0 by vpsrlvd/vpsllvd
  // semantics and are masked to zero below anyway.
  const __m256i shift = _mm256_sub_epi32(_mm256_set1_epi32(14), new_exp);
  const __m256i m2 = _mm256_or_si256(mant, _mm256_set1_epi32(0x800000));
  __m256i vs = _mm256_srlv_epi32(m2, shift);
  {
    const __m256i low_mask =
        _mm256_sub_epi32(_mm256_sllv_epi32(one, shift), one);
    const __m256i dropped = _mm256_and_si256(m2, low_mask);
    const __m256i halfway =
        _mm256_sllv_epi32(one, _mm256_sub_epi32(shift, one));
    const __m256i gt = _mm256_cmpgt_epi32(dropped, halfway);
    const __m256i eq = _mm256_cmpeq_epi32(dropped, halfway);
    const __m256i odd =
        _mm256_cmpeq_epi32(_mm256_and_si256(vs, one), one);
    vs = _mm256_sub_epi32(vs, _mm256_or_si256(gt, _mm256_and_si256(eq, odd)));
  }

  // Select per the scalar branch ladder (later blends win, so order the
  // special cases from widest to most specific).
  __m256i res = vn;
  res = _mm256_blendv_epi8(
      res, _mm256_set1_epi32(0x7c00),
      _mm256_cmpgt_epi32(new_exp, _mm256_set1_epi32(30)));  // overflow
  res = _mm256_blendv_epi8(res, vs,
                           _mm256_cmpgt_epi32(one, new_exp));  // new_exp <= 0
  res = _mm256_blendv_epi8(
      res, _mm256_setzero_si256(),
      _mm256_cmpgt_epi32(_mm256_set1_epi32(-10), new_exp));  // underflow
  const __m256i nan_bit = _mm256_andnot_si256(
      _mm256_cmpeq_epi32(mant, _mm256_setzero_si256()),
      _mm256_set1_epi32(0x200));
  res = _mm256_blendv_epi8(
      res, _mm256_or_si256(_mm256_set1_epi32(0x7c00), nan_bit),
      _mm256_cmpeq_epi32(expf, _mm256_set1_epi32(0xff)));  // inf / NaN
  return _mm256_or_si256(res, sign16);
}

bool f32_to_f16_avx2(const float* in, std::uint16_t* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i res = f32_to_f16_block(x);
    // Lanes are <= 0xffff, so unsigned-saturating pack is lossless; the
    // permute undoes packus's per-128-bit-lane interleave.
    const __m256i packed = _mm256_packus_epi32(res, res);
    const __m256i lin = _mm256_permute4x64_epi64(packed, 0x08);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm256_castsi256_si128(lin));
  }
  if (i < n) {
    alignas(32) float tin[8] = {};
    alignas(32) std::uint16_t tout[8];
    std::memcpy(tin, in + i, (n - i) * sizeof(float));
    const __m256i x =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(tin));
    const __m256i packed = _mm256_packus_epi32(f32_to_f16_block(x),
                                               f32_to_f16_block(x));
    const __m256i lin = _mm256_permute4x64_epi64(packed, 0x08);
    _mm_store_si128(reinterpret_cast<__m128i*>(tout),
                    _mm256_castsi256_si128(lin));
    std::memcpy(out + i, tout, (n - i) * sizeof(std::uint16_t));
  }
  return true;
}

constexpr SimdOps kAvx2Ops = {
    axpy_avx2,       scale_avx2,          sub_avx2,
    add_avx2,        add_scaled_avx2,     madd_avx2,
    reduce_sum_avx2, reduce_dot_avx2,     reduce_sqnorm_avx2,
    reduce_sqdiff_avx2, reduce_max_avx2,  reduce_max_abs_avx2,
    qsgd_quantize_avx2, qsgd_dequantize_avx2,
    nuq_quantize_avx2,  nuq_dequantize_avx2,
    gemm_tile_avx2,  gemm_tile_at_avx2,
    dot_tile_avx2,   adam_update_avx2,
    exp_avx2,        exp_sum_avx2,        tanh_avx2,
    pack_words_avx2, unpack_words_avx2,
    bucket_uniforms_avx2, copy_add_avx2, copy_add2_avx2,
    f32_to_f16_avx2, f16_to_f32_avx2,
};

}  // namespace

const SimdOps& avx2_ops() { return kAvx2Ops; }

}  // namespace cgx::util::simd::detail

#else  // non-x86: never selected (max_supported_level() caps at scalar)

namespace cgx::util::simd::detail {
const SimdOps& avx2_ops() { return scalar_ops(); }
}  // namespace cgx::util::simd::detail

#endif
