// SSE2 kernel implementations (baseline on x86-64, so no special compile
// flags). Bit-identical to the scalar reference in simd.cpp: elementwise
// kernels perform the same mul-then-add sequence per element, reductions
// keep the same 8-lane striping (here as four 2-wide double vectors) and
// fold with the same canonical tree. Compiled with -ffp-contract=off.
#include "util/simd_internal.h"

#if defined(__x86_64__) || defined(__i386__)

#include <emmintrin.h>

#include <bit>
#include <cstdint>
#include <cstring>

namespace cgx::util::simd::detail {
namespace {

// select(mask, a, b): a where mask bits set, else b (SSE2 has no blendv).
inline __m128i select_i(__m128i mask, __m128i a, __m128i b) {
  return _mm_or_si128(_mm_and_si128(mask, a), _mm_andnot_si128(mask, b));
}

// ------------------------------------------------------------- elementwise

void axpy_sse2(float alpha, const float* x, float* y, std::size_t n) {
  const __m128 va = _mm_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 vy = _mm_loadu_ps(y + i);
    const __m128 vx = _mm_loadu_ps(x + i);
    _mm_storeu_ps(y + i, _mm_add_ps(vy, _mm_mul_ps(va, vx)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void scale_sse2(float* x, float alpha, std::size_t n) {
  const __m128 va = _mm_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(x + i, _mm_mul_ps(_mm_loadu_ps(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void sub_sse2(const float* a, const float* b, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(out + i,
                  _mm_sub_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

void add_sse2(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(dst + i,
                  _mm_add_ps(_mm_loadu_ps(dst + i), _mm_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void add_scaled_sse2(const float* a, float beta, const float* b, float* out,
                     std::size_t n) {
  const __m128 vb = _mm_set1_ps(beta);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(out + i,
                  _mm_add_ps(_mm_loadu_ps(a + i),
                             _mm_mul_ps(vb, _mm_loadu_ps(b + i))));
  }
  for (; i < n; ++i) out[i] = a[i] + beta * b[i];
}

void madd_sse2(float* dst, const float* a, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(dst + i,
                  _mm_add_ps(_mm_loadu_ps(dst + i),
                             _mm_mul_ps(_mm_loadu_ps(a + i),
                                        _mm_loadu_ps(b + i))));
  }
  for (; i < n; ++i) dst[i] += a[i] * b[i];
}

// ------------------------------------------------------------- reductions

// Widen 8 floats into four 2-lane double vectors (lanes [0,1][2,3][4,5][6,7]).
struct Lanes8d {
  __m128d d01, d23, d45, d67;
};

inline Lanes8d widen8(const float* p) {
  const __m128 x03 = _mm_loadu_ps(p);
  const __m128 x47 = _mm_loadu_ps(p + 4);
  return {_mm_cvtps_pd(x03), _mm_cvtps_pd(_mm_movehl_ps(x03, x03)),
          _mm_cvtps_pd(x47), _mm_cvtps_pd(_mm_movehl_ps(x47, x47))};
}

struct Acc8d {
  __m128d a01 = _mm_setzero_pd(), a23 = _mm_setzero_pd(),
          a45 = _mm_setzero_pd(), a67 = _mm_setzero_pd();
  void spill(double lanes[8]) const {
    _mm_storeu_pd(lanes + 0, a01);
    _mm_storeu_pd(lanes + 2, a23);
    _mm_storeu_pd(lanes + 4, a45);
    _mm_storeu_pd(lanes + 6, a67);
  }
};

double reduce_sum_sse2(const float* x, std::size_t n) {
  Acc8d acc;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const Lanes8d v = widen8(x + i);
    acc.a01 = _mm_add_pd(acc.a01, v.d01);
    acc.a23 = _mm_add_pd(acc.a23, v.d23);
    acc.a45 = _mm_add_pd(acc.a45, v.d45);
    acc.a67 = _mm_add_pd(acc.a67, v.d67);
  }
  double lanes[8];
  acc.spill(lanes);
  for (; i < n; ++i) lanes[i % 8] += static_cast<double>(x[i]);
  return combine_lanes(lanes);
}

// Spills a dot product's lane accumulators, adds the ragged tail [i, n) into
// lane i % 8, and folds with the canonical tree. Shared by reduce_dot and
// every output of dot_tile.
inline double finish_dot(const Acc8d& acc, const float* x, const float* y,
                         std::size_t i, std::size_t n) {
  double lanes[8];
  acc.spill(lanes);
  for (; i < n; ++i) {
    lanes[i % 8] += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  return combine_lanes(lanes);
}

double reduce_dot_sse2(const float* x, const float* y, std::size_t n) {
  Acc8d acc;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const Lanes8d vx = widen8(x + i);
    const Lanes8d vy = widen8(y + i);
    acc.a01 = _mm_add_pd(acc.a01, _mm_mul_pd(vx.d01, vy.d01));
    acc.a23 = _mm_add_pd(acc.a23, _mm_mul_pd(vx.d23, vy.d23));
    acc.a45 = _mm_add_pd(acc.a45, _mm_mul_pd(vx.d45, vy.d45));
    acc.a67 = _mm_add_pd(acc.a67, _mm_mul_pd(vx.d67, vy.d67));
  }
  return finish_dot(acc, x, y, i, n);
}

double reduce_sqnorm_sse2(const float* x, std::size_t n) {
  return reduce_dot_sse2(x, x, n);
}

double reduce_sqdiff_sse2(const float* x, double mean, std::size_t n) {
  const __m128d vm = _mm_set1_pd(mean);
  Acc8d acc;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const Lanes8d v = widen8(x + i);
    const __m128d d01 = _mm_sub_pd(v.d01, vm);
    const __m128d d23 = _mm_sub_pd(v.d23, vm);
    const __m128d d45 = _mm_sub_pd(v.d45, vm);
    const __m128d d67 = _mm_sub_pd(v.d67, vm);
    acc.a01 = _mm_add_pd(acc.a01, _mm_mul_pd(d01, d01));
    acc.a23 = _mm_add_pd(acc.a23, _mm_mul_pd(d23, d23));
    acc.a45 = _mm_add_pd(acc.a45, _mm_mul_pd(d45, d45));
    acc.a67 = _mm_add_pd(acc.a67, _mm_mul_pd(d67, d67));
  }
  double lanes[8];
  acc.spill(lanes);
  for (; i < n; ++i) {
    const double d = static_cast<double>(x[i]) - mean;
    lanes[i % 8] += d * d;
  }
  return combine_lanes(lanes);
}

float reduce_max_sse2(const float* x, std::size_t n, float init) {
  __m128 m03 = _mm_set1_ps(init);
  __m128 m47 = _mm_set1_ps(init);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // max_ps(x, m): keeps m when x is NaN, matching the scalar ternary.
    m03 = _mm_max_ps(_mm_loadu_ps(x + i), m03);
    m47 = _mm_max_ps(_mm_loadu_ps(x + i + 4), m47);
  }
  float lanes[8];
  _mm_storeu_ps(lanes, m03);
  _mm_storeu_ps(lanes + 4, m47);
  for (; i < n; ++i) {
    lanes[i % 8] = lanes[i % 8] < x[i] ? x[i] : lanes[i % 8];
  }
  return combine_lanes_max(lanes);
}

float reduce_max_abs_sse2(const float* x, std::size_t n) {
  const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  __m128 m03 = _mm_setzero_ps();
  __m128 m47 = _mm_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    m03 = _mm_max_ps(_mm_and_ps(_mm_loadu_ps(x + i), abs_mask), m03);
    m47 = _mm_max_ps(_mm_and_ps(_mm_loadu_ps(x + i + 4), abs_mask), m47);
  }
  float lanes[8];
  _mm_storeu_ps(lanes, m03);
  _mm_storeu_ps(lanes + 4, m47);
  for (; i < n; ++i) {
    const float a = std::bit_cast<float>(std::bit_cast<std::uint32_t>(x[i]) &
                                         0x7fffffffu);
    lanes[i % 8] = lanes[i % 8] < a ? a : lanes[i % 8];
  }
  return combine_lanes_max(lanes);
}

// ------------------------------------------------------------ quantization

void qsgd_quantize_sse2(const float* v, const float* u, std::size_t n,
                        float inv_norm, std::uint32_t s,
                        std::uint32_t sign_bit, std::uint32_t* sym) {
  const float s_f = static_cast<float>(s);
  const __m128 vinv = _mm_set1_ps(inv_norm);
  const __m128 vs_f = _mm_set1_ps(s_f);
  const __m128i vs_i = _mm_set1_epi32(static_cast<int>(s));
  const __m128i abs_mask = _mm_set1_epi32(0x7fffffff);
  const __m128i shift = _mm_cvtsi32_si128(
      static_cast<int>(std::countr_zero(sign_bit)));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i vbits =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
    const __m128 a =
        _mm_mul_ps(_mm_castsi128_ps(_mm_and_si128(vbits, abs_mask)), vinv);
    const __m128 t = _mm_add_ps(_mm_mul_ps(a, vs_f), _mm_loadu_ps(u + i));
    __m128i level = _mm_cvttps_epi32(t);
    level = select_i(_mm_cmpgt_epi32(level, vs_i), vs_i, level);
    const __m128i sign = _mm_sll_epi32(_mm_srli_epi32(vbits, 31), shift);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(sym + i),
                     _mm_or_si128(level, sign));
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

void qsgd_dequantize_sse2(const std::uint32_t* sym, std::size_t n, float scale,
                          std::uint32_t sign_bit, unsigned sign_shift,
                          float* out) {
  const std::uint32_t level_mask = sign_bit - 1;
  const __m128 vscale = _mm_set1_ps(scale);
  const __m128i vmask = _mm_set1_epi32(static_cast<int>(level_mask));
  const __m128i vsign = _mm_set1_epi32(static_cast<int>(sign_bit));
  const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(sign_shift));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sym + i));
    const __m128 mag =
        _mm_mul_ps(_mm_cvtepi32_ps(_mm_and_si128(s, vmask)), vscale);
    const __m128i sg = _mm_sll_epi32(_mm_and_si128(s, vsign), shift);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_or_si128(_mm_castps_si128(mag), sg));
  }
  for (; i < n; ++i) {
    const std::uint32_t symbol = sym[i];
    const float magnitude = static_cast<float>(symbol & level_mask) * scale;
    out[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(magnitude) |
                                  ((symbol & sign_bit) << sign_shift));
  }
}

void nuq_quantize_sse2(const float* v, const float* u, std::size_t n,
                       float inv_norm, unsigned bits, std::uint32_t* sym) {
  const int top = (1 << (bits - 1)) - 1;
  const std::uint32_t sign_bit = 1u << (bits - 1);
  const __m128 vinv = _mm_set1_ps(inv_norm);
  const __m128 vone = _mm_set1_ps(1.0f);
  const __m128i abs_mask = _mm_set1_epi32(0x7fffffff);
  const __m128i vtop = _mm_set1_epi32(top);
  const __m128i voff = _mm_set1_epi32(top - 127);   // e_field + voff = lo
  const __m128i vexp0 = _mm_set1_epi32(127 - top);  // lo + vexp0 = exp(L_lo)
  const __m128i vexp1 = _mm_set1_epi32(128 - top);
  const __m128i vzero = _mm_setzero_si128();
  const __m128i vone_i = _mm_set1_epi32(1);
  const __m128i sshift = _mm_cvtsi32_si128(static_cast<int>(bits - 1));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i vbits =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
    const __m128 a = _mm_min_ps(
        _mm_mul_ps(_mm_castsi128_ps(_mm_and_si128(vbits, abs_mask)), vinv),
        vone);
    __m128i lo = _mm_add_epi32(_mm_srli_epi32(_mm_castps_si128(a), 23), voff);
    lo = _mm_andnot_si128(_mm_cmpgt_epi32(vzero, lo), lo);  // max(lo, 0)
    lo = select_i(_mm_cmpgt_epi32(lo, vtop), vtop, lo);     // min(lo, top)
    const __m128 low = _mm_castsi128_ps(_mm_andnot_si128(
        _mm_cmpeq_epi32(lo, vzero),
        _mm_slli_epi32(_mm_add_epi32(lo, vexp0), 23)));
    const __m128 high =
        _mm_castsi128_ps(_mm_slli_epi32(_mm_add_epi32(lo, vexp1), 23));
    const __m128 p =
        _mm_div_ps(_mm_sub_ps(a, low), _mm_sub_ps(high, low));
    const __m128i take =
        _mm_and_si128(_mm_castps_si128(_mm_cmplt_ps(_mm_loadu_ps(u + i), p)),
                      _mm_cmpgt_epi32(vtop, lo));
    const __m128i idx = _mm_add_epi32(lo, _mm_and_si128(take, vone_i));
    const __m128i sign = _mm_sll_epi32(_mm_srli_epi32(vbits, 31), sshift);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(sym + i),
                     _mm_or_si128(idx, sign));
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

void nuq_dequantize_sse2(const std::uint32_t* sym, std::size_t n, float norm,
                         unsigned bits, float* out) {
  const int top = (1 << (bits - 1)) - 1;
  const std::uint32_t sign_bit = 1u << (bits - 1);
  const std::uint32_t index_mask = sign_bit - 1;
  const __m128 vnorm = _mm_set1_ps(norm);
  const __m128i vmask = _mm_set1_epi32(static_cast<int>(index_mask));
  const __m128i vsign = _mm_set1_epi32(static_cast<int>(sign_bit));
  const __m128i vexp0 = _mm_set1_epi32(127 - top);
  const __m128i vzero = _mm_setzero_si128();
  const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(32 - bits));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sym + i));
    const __m128i idx = _mm_and_si128(s, vmask);
    const __m128 level = _mm_castsi128_ps(_mm_andnot_si128(
        _mm_cmpeq_epi32(idx, vzero),
        _mm_slli_epi32(_mm_add_epi32(idx, vexp0), 23)));
    const __m128 value = _mm_mul_ps(level, vnorm);
    const __m128i sg = _mm_sll_epi32(_mm_and_si128(s, vsign), shift);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_xor_si128(_mm_castps_si128(value), sg));
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

// Scalar leftovers: per row, single float accumulator per element updated in
// increasing-k order (bit-identical to the vector path's register
// accumulation because float load/store round-trips exactly).
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
    for (; j + 8 <= nb; j += 8) {
      __m128 acc0a = _mm_loadu_ps(c0 + j), acc0b = _mm_loadu_ps(c0 + j + 4);
      __m128 acc1a = _mm_loadu_ps(c1 + j), acc1b = _mm_loadu_ps(c1 + j + 4);
      __m128 acc2a = _mm_loadu_ps(c2 + j), acc2b = _mm_loadu_ps(c2 + j + 4);
      __m128 acc3a = _mm_loadu_ps(c3 + j), acc3b = _mm_loadu_ps(c3 + j + 4);
      for (std::size_t k = 0; k < kb; ++k) {
        const float* brow = b + k * ldb + j;
        const __m128 b0 = _mm_loadu_ps(brow);
        const __m128 b1 = _mm_loadu_ps(brow + 4);
        __m128 av = _mm_set1_ps(a_at(i + 0, k));
        acc0a = _mm_add_ps(acc0a, _mm_mul_ps(av, b0));
        acc0b = _mm_add_ps(acc0b, _mm_mul_ps(av, b1));
        av = _mm_set1_ps(a_at(i + 1, k));
        acc1a = _mm_add_ps(acc1a, _mm_mul_ps(av, b0));
        acc1b = _mm_add_ps(acc1b, _mm_mul_ps(av, b1));
        av = _mm_set1_ps(a_at(i + 2, k));
        acc2a = _mm_add_ps(acc2a, _mm_mul_ps(av, b0));
        acc2b = _mm_add_ps(acc2b, _mm_mul_ps(av, b1));
        av = _mm_set1_ps(a_at(i + 3, k));
        acc3a = _mm_add_ps(acc3a, _mm_mul_ps(av, b0));
        acc3b = _mm_add_ps(acc3b, _mm_mul_ps(av, b1));
      }
      _mm_storeu_ps(c0 + j, acc0a);
      _mm_storeu_ps(c0 + j + 4, acc0b);
      _mm_storeu_ps(c1 + j, acc1a);
      _mm_storeu_ps(c1 + j + 4, acc1b);
      _mm_storeu_ps(c2 + j, acc2a);
      _mm_storeu_ps(c2 + j + 4, acc2b);
      _mm_storeu_ps(c3 + j, acc3a);
      _mm_storeu_ps(c3 + j + 4, acc3b);
    }
    for (; j + 4 <= nb; j += 4) {
      __m128 acc0 = _mm_loadu_ps(c0 + j);
      __m128 acc1 = _mm_loadu_ps(c1 + j);
      __m128 acc2 = _mm_loadu_ps(c2 + j);
      __m128 acc3 = _mm_loadu_ps(c3 + j);
      for (std::size_t k = 0; k < kb; ++k) {
        const __m128 b0 = _mm_loadu_ps(b + k * ldb + j);
        acc0 = _mm_add_ps(acc0, _mm_mul_ps(_mm_set1_ps(a_at(i + 0, k)), b0));
        acc1 = _mm_add_ps(acc1, _mm_mul_ps(_mm_set1_ps(a_at(i + 1, k)), b0));
        acc2 = _mm_add_ps(acc2, _mm_mul_ps(_mm_set1_ps(a_at(i + 2, k)), b0));
        acc3 = _mm_add_ps(acc3, _mm_mul_ps(_mm_set1_ps(a_at(i + 3, k)), b0));
      }
      _mm_storeu_ps(c0 + j, acc0);
      _mm_storeu_ps(c1 + j, acc1);
      _mm_storeu_ps(c2 + j, acc2);
      _mm_storeu_ps(c3 + j, acc3);
    }
    if (j < nb) {
      gemm_cols_scalar(ATrans ? a + i : a + i * lda, lda, ATrans, b, ldb,
                       c + i * ldc, ldc, 4, kb, j, nb);
    }
  }
  for (; i < mb; ++i) {
    float* crow = c + i * ldc;
    std::size_t j = 0;
    for (; j + 4 <= nb; j += 4) {
      __m128 acc = _mm_loadu_ps(crow + j);
      for (std::size_t k = 0; k < kb; ++k) {
        acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(a_at(i, k)),
                                         _mm_loadu_ps(b + k * ldb + j)));
      }
      _mm_storeu_ps(crow + j, acc);
    }
    if (j < nb) {
      gemm_cols_scalar(ATrans ? a + i : a + i * lda, lda, ATrans, b, ldb,
                       crow, ldc, 1, kb, j, nb);
    }
  }
}

void gemm_tile_sse2(const float* a, std::size_t lda, const float* b,
                    std::size_t ldb, float* c, std::size_t ldc, std::size_t mb,
                    std::size_t kb, std::size_t nb) {
  gemm_tile_impl<false>(a, lda, b, ldb, c, ldc, mb, kb, nb);
}

void gemm_tile_at_sse2(const float* a, std::size_t lda, const float* b,
                       std::size_t ldb, float* c, std::size_t ldc,
                       std::size_t mb, std::size_t kb, std::size_t nb) {
  gemm_tile_impl<true>(a, lda, b, ldb, c, ldc, mb, kb, nb);
}

// ---------------------------------------------------------------- dot tile

inline void dot_accumulate(Acc8d& acc, const double* wa, const Lanes8d& vb) {
  acc.a01 = _mm_add_pd(acc.a01, _mm_mul_pd(_mm_loadu_pd(wa + 0), vb.d01));
  acc.a23 = _mm_add_pd(acc.a23, _mm_mul_pd(_mm_loadu_pd(wa + 2), vb.d23));
  acc.a45 = _mm_add_pd(acc.a45, _mm_mul_pd(_mm_loadu_pd(wa + 4), vb.d45));
  acc.a67 = _mm_add_pd(acc.a67, _mm_mul_pd(_mm_loadu_pd(wa + 6), vb.d67));
}

// 2 A rows x 1 B row: the two A rows are widened to double once, then every
// B row is widened once and multiplied into both rows' eight lanes (eight
// accumulators fill half the SSE register file; four rows would spill).
void dot_tile_sse2(const float* a, std::size_t lda, const float* b,
                   std::size_t ldb, float* c, std::size_t ldc, std::size_t mb,
                   std::size_t nb, std::size_t n, bool accumulate) {
  const std::size_t nv = n - n % 8;
  std::size_t i = 0;
  if (nv > 0) {
    alignas(16) double local[kWidenStack];
    double* wa = 2 * nv <= kWidenStack ? local : widen_scratch(2 * nv);
    for (; i + 2 <= mb; i += 2) {
      const float* a0 = a + i * lda;
      const float* a1 = a0 + lda;
      for (std::size_t k = 0; k < nv; ++k) {
        wa[k] = static_cast<double>(a0[k]);
        wa[nv + k] = static_cast<double>(a1[k]);
      }
      for (std::size_t j = 0; j < nb; ++j) {
        const float* bj = b + j * ldb;
        Acc8d acc0, acc1;
        for (std::size_t k = 0; k < nv; k += 8) {
          const Lanes8d vb = widen8(bj + k);
          dot_accumulate(acc0, wa + k, vb);
          dot_accumulate(acc1, wa + nv + k, vb);
        }
        store_dot(c[i * ldc + j], finish_dot(acc0, a0, bj, nv, n),
                  accumulate);
        store_dot(c[(i + 1) * ldc + j], finish_dot(acc1, a1, bj, nv, n),
                  accumulate);
      }
    }
  }
  for (; i < mb; ++i) {
    for (std::size_t j = 0; j < nb; ++j) {
      store_dot(c[i * ldc + j], reduce_dot_sse2(a + i * lda, b + j * ldb, n),
                accumulate);
    }
  }
}

// -------------------------------------------------------------------- adam

// The double half of two Adam elements: lr * mhat / (sqrt(vhat) + eps).
inline __m128d adam_step2(__m128d m, __m128d v, __m128d bias1, __m128d bias2,
                          __m128d lr, __m128d eps) {
  const __m128d mhat = _mm_div_pd(m, bias1);
  const __m128d vhat = _mm_div_pd(v, bias2);
  return _mm_div_pd(_mm_mul_pd(lr, mhat), _mm_add_pd(_mm_sqrt_pd(vhat), eps));
}

void adam_update_sse2(const AdamCoeffs& c, float* w, float* grad, float* m,
                      float* v, std::size_t n) {
  const __m128 wd = _mm_set1_ps(c.weight_decay);
  const __m128 b1 = _mm_set1_ps(c.beta1);
  const __m128 c1 = _mm_set1_ps(c.one_minus_beta1);
  const __m128 b2 = _mm_set1_ps(c.beta2);
  const __m128 c2 = _mm_set1_ps(c.one_minus_beta2);
  const __m128d bias1 = _mm_set1_pd(c.bias1);
  const __m128d bias2 = _mm_set1_pd(c.bias2);
  const __m128d lr = _mm_set1_pd(c.lr);
  const __m128d eps = _mm_set1_pd(c.eps);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 vw = _mm_loadu_ps(w + i);
    const __m128 g = _mm_add_ps(_mm_loadu_ps(grad + i), _mm_mul_ps(wd, vw));
    _mm_storeu_ps(grad + i, _mm_setzero_ps());
    const __m128 vm = _mm_add_ps(_mm_mul_ps(b1, _mm_loadu_ps(m + i)),
                                 _mm_mul_ps(c1, g));
    const __m128 vv = _mm_add_ps(_mm_mul_ps(b2, _mm_loadu_ps(v + i)),
                                 _mm_mul_ps(_mm_mul_ps(c2, g), g));
    _mm_storeu_ps(m + i, vm);
    _mm_storeu_ps(v + i, vv);
    const __m128d lo = adam_step2(_mm_cvtps_pd(vm), _mm_cvtps_pd(vv), bias1,
                                  bias2, lr, eps);
    const __m128d hi =
        adam_step2(_mm_cvtps_pd(_mm_movehl_ps(vm, vm)),
                   _mm_cvtps_pd(_mm_movehl_ps(vv, vv)), bias1, bias2, lr, eps);
    const __m128 upd = _mm_movelh_ps(_mm_cvtpd_ps(lo), _mm_cvtpd_ps(hi));
    _mm_storeu_ps(w + i, _mm_sub_ps(vw, upd));
  }
  for (; i < n; ++i) adam_element(c, w[i], grad[i], m[i], v[i]);
}

// ------------------------------------------------------------ uniforms

template <int K>
inline __m128i rotl64(__m128i x) {
  return _mm_or_si128(_mm_slli_epi64(x, K), _mm_srli_epi64(x, 64 - K));
}

// xoshiro_next on two streams at once, one per 64-bit lane (SSE2 has the
// 64-bit adds and shifts; the multiplies by 5 and 9 are shift-and-adds).
struct Xoshiro2 {
  __m128i s0, s1, s2, s3;
  __m128i next() {
    const __m128i x5 = _mm_add_epi64(_mm_slli_epi64(s1, 2), s1);
    const __m128i r = rotl64<7>(x5);
    const __m128i result = _mm_add_epi64(_mm_slli_epi64(r, 3), r);
    const __m128i t = _mm_slli_epi64(s1, 17);
    s2 = _mm_xor_si128(s2, s0);
    s3 = _mm_xor_si128(s3, s1);
    s1 = _mm_xor_si128(s1, s2);
    s0 = _mm_xor_si128(s0, s3);
    s2 = _mm_xor_si128(s2, t);
    s3 = rotl64<45>(s3);
    return result;
  }
};

// Two draws of one stream (low and high 64 bits of `draws`) to eight
// floats, each draw's 16-bit windows high first: the exact u16 * 2^-16 of
// the scalar fill.
inline void store_windows(__m128i draws, float* out) {
  const __m128i rev = _mm_shufflehi_epi16(
      _mm_shufflelo_epi16(draws, _MM_SHUFFLE(0, 1, 2, 3)),
      _MM_SHUFFLE(0, 1, 2, 3));
  const __m128i zero = _mm_setzero_si128();
  const __m128 scale = _mm_set1_ps(0x1.0p-16f);
  _mm_storeu_ps(out, _mm_mul_ps(_mm_cvtepi32_ps(_mm_unpacklo_epi16(rev, zero)),
                                scale));
  _mm_storeu_ps(out + 4,
                _mm_mul_ps(_mm_cvtepi32_ps(_mm_unpackhi_epi16(rev, zero)),
                           scale));
}

void bucket_uniforms_sse2(std::uint64_t (*states)[4], std::size_t count,
                          std::size_t len, float* out) {
  // Streams run in pairs; the second lane of an odd pair runs an all-zero
  // state, which stays zero and is never stored.
  for (std::size_t p = 0; p < count; p += 2) {
    const std::size_t pair = count - p < 2 ? count - p : 2;
    alignas(16) std::uint64_t words[4][2] = {};
    for (std::size_t k = 0; k < pair; ++k) {
      for (unsigned w = 0; w < 4; ++w) words[w][k] = states[p + k][w];
    }
    const auto load = [&](unsigned w) {
      return _mm_load_si128(reinterpret_cast<const __m128i*>(words[w]));
    };
    Xoshiro2 g{load(0), load(1), load(2), load(3)};
    float* first = out + p * len;
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
      const __m128i ra = g.next();
      const __m128i rb = g.next();
      store_windows(_mm_unpacklo_epi64(ra, rb), first + i);
      if (pair > 1) store_windows(_mm_unpackhi_epi64(ra, rb), first + len + i);
    }
    _mm_store_si128(reinterpret_cast<__m128i*>(words[0]), g.s0);
    _mm_store_si128(reinterpret_cast<__m128i*>(words[1]), g.s1);
    _mm_store_si128(reinterpret_cast<__m128i*>(words[2]), g.s2);
    _mm_store_si128(reinterpret_cast<__m128i*>(words[3]), g.s3);
    for (std::size_t k = 0; k < pair; ++k) {
      for (unsigned w = 0; w < 4; ++w) states[p + k][w] = words[w][k];
      fill_uniforms_tail(states[p + k], i, len, first + k * len);
    }
  }
}

// ------------------------------------------------------------- copy engine

// dst[i] += src[i], same order as the scalar loop; prefetch both streams
// (dst is read-modify-write, so no non-temporal path here).
void copy_add_sse2(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm_prefetch(reinterpret_cast<const char*>(src + i) + 128, _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(dst + i) + 128, _MM_HINT_T0);
    for (std::size_t j = 0; j < 16; j += 4) {
      const __m128 vd = _mm_loadu_ps(dst + i + j);
      const __m128 vs = _mm_loadu_ps(src + i + j);
      _mm_storeu_ps(dst + i + j, _mm_add_ps(vd, vs));
    }
  }
  for (; i + 4 <= n; i += 4) {
    const __m128 vd = _mm_loadu_ps(dst + i);
    const __m128 vs = _mm_loadu_ps(src + i);
    _mm_storeu_ps(dst + i, _mm_add_ps(vd, vs));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void copy_add2_sse2(float* dst, const float* a, const float* b,
                    std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm_prefetch(reinterpret_cast<const char*>(a + i) + 128, _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(b + i) + 128, _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(dst + i) + 128, _MM_HINT_T0);
    for (std::size_t j = 0; j < 16; j += 4) {
      const __m128 vd = _mm_loadu_ps(dst + i + j);
      const __m128 va = _mm_loadu_ps(a + i + j);
      const __m128 vb = _mm_loadu_ps(b + i + j);
      _mm_storeu_ps(dst + i + j,
                    _mm_add_ps(_mm_add_ps(vd, va), vb));
    }
  }
  for (; i + 4 <= n; i += 4) {
    const __m128 vd = _mm_loadu_ps(dst + i);
    const __m128 va = _mm_loadu_ps(a + i);
    const __m128 vb = _mm_loadu_ps(b + i);
    _mm_storeu_ps(dst + i, _mm_add_ps(_mm_add_ps(vd, va), vb));
  }
  for (; i < n; ++i) {
    float acc = dst[i] + a[i];
    dst[i] = acc + b[i];
  }
}

constexpr SimdOps kSse2Ops = {
    axpy_sse2,       scale_sse2,          sub_sse2,
    add_sse2,        add_scaled_sse2,     madd_sse2,
    reduce_sum_sse2, reduce_dot_sse2,     reduce_sqnorm_sse2,
    reduce_sqdiff_sse2, reduce_max_sse2,  reduce_max_abs_sse2,
    qsgd_quantize_sse2, qsgd_dequantize_sse2,
    nuq_quantize_sse2,  nuq_dequantize_sse2,
    gemm_tile_sse2,  gemm_tile_at_sse2,
    dot_tile_sse2,   adam_update_sse2,
    nullptr,         nullptr,  // no SSE2 pack/unpack (needs AVX2 vpsrlvd)
    bucket_uniforms_sse2, copy_add_sse2, copy_add2_sse2,
    nullptr,         nullptr,  // no SSE2 half path (needs AVX2 vpsrlvd)
};

}  // namespace

const SimdOps& sse2_ops() { return kSse2Ops; }

}  // namespace cgx::util::simd::detail

#else  // non-x86: "sse2" aliases the scalar reference

namespace cgx::util::simd::detail {
const SimdOps& sse2_ops() { return scalar_ops(); }
}  // namespace cgx::util::simd::detail

#endif
