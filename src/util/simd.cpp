// Runtime dispatch plus the scalar reference implementations.
//
// The scalar kernels below ARE the numerical specification: the SSE2/AVX2
// TUs reproduce these exact per-element operation sequences and the same
// canonical 8-lane reduction order, so every level is bit-identical. This
// TU is compiled with -ffp-contract=off (see util/CMakeLists.txt) so the
// compiler cannot fuse the mul+add sequences the contract keeps separate.
#include "util/simd.h"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "util/check.h"
#include "util/simd_internal.h"

namespace cgx::util::simd {
namespace detail {
namespace {

// ------------------------------------------------------------- elementwise

void axpy_scalar(float alpha, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale_scalar(float* x, float alpha, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void sub_scalar(const float* a, const float* b, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void add_scalar(float* dst, const float* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void add_scaled_scalar(const float* a, float beta, const float* b, float* out,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + beta * b[i];
}

void madd_scalar(float* dst, const float* a, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += a[i] * b[i];
}

// ------------------------------------------------------------- reductions
//
// Element i always lands in lane i % 8; the lanes fold with combine_lanes.
// Keeping the lane loop in blocks of 8 lets the compiler map it onto
// whatever vector width it has without changing the math.

double reduce_sum_scalar(const float* x, std::size_t n) {
  double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (unsigned t = 0; t < 8; ++t) {
      lanes[t] += static_cast<double>(x[i + t]);
    }
  }
  for (; i < n; ++i) lanes[i % 8] += static_cast<double>(x[i]);
  return combine_lanes(lanes);
}

double reduce_dot_scalar(const float* x, const float* y, std::size_t n) {
  double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (unsigned t = 0; t < 8; ++t) {
      lanes[t] += static_cast<double>(x[i + t]) * static_cast<double>(y[i + t]);
    }
  }
  for (; i < n; ++i) {
    lanes[i % 8] += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  return combine_lanes(lanes);
}

double reduce_sqnorm_scalar(const float* x, std::size_t n) {
  return reduce_dot_scalar(x, x, n);
}

double reduce_sqdiff_scalar(const float* x, double mean, std::size_t n) {
  double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (unsigned t = 0; t < 8; ++t) {
      const double d = static_cast<double>(x[i + t]) - mean;
      lanes[t] += d * d;
    }
  }
  for (; i < n; ++i) {
    const double d = static_cast<double>(x[i]) - mean;
    lanes[i % 8] += d * d;
  }
  return combine_lanes(lanes);
}

float reduce_max_scalar(const float* x, std::size_t n, float init) {
  float lanes[8];
  for (auto& l : lanes) l = init;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (unsigned t = 0; t < 8; ++t) {
      // (lanes < x) ? x : lanes — keeps the lane value when x is NaN, the
      // same selection maxps(x, lanes) performs.
      lanes[t] = lanes[t] < x[i + t] ? x[i + t] : lanes[t];
    }
  }
  for (; i < n; ++i) {
    lanes[i % 8] = lanes[i % 8] < x[i] ? x[i] : lanes[i % 8];
  }
  return combine_lanes_max(lanes);
}

float reduce_max_abs_scalar(const float* x, std::size_t n) {
  float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (unsigned t = 0; t < 8; ++t) {
      const float a =
          std::bit_cast<float>(std::bit_cast<std::uint32_t>(x[i + t]) &
                               0x7fffffffu);
      lanes[t] = lanes[t] < a ? a : lanes[t];
    }
  }
  for (; i < n; ++i) {
    const float a = std::bit_cast<float>(std::bit_cast<std::uint32_t>(x[i]) &
                                         0x7fffffffu);
    lanes[i % 8] = lanes[i % 8] < a ? a : lanes[i % 8];
  }
  return combine_lanes_max(lanes);
}

// ------------------------------------------------------------ quantization

void qsgd_quantize_scalar(const float* v, const float* u, std::size_t n,
                          float inv_norm, std::uint32_t s,
                          std::uint32_t sign_bit, std::uint32_t* sym) {
  const float s_f = static_cast<float>(s);
  const auto s_i = static_cast<std::int32_t>(s);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t v_bits = std::bit_cast<std::uint32_t>(v[i]);
    const float a = std::bit_cast<float>(v_bits & 0x7fffffffu) * inv_norm;
    std::int32_t level = static_cast<std::int32_t>(a * s_f + u[i]);
    level = level < s_i ? level : s_i;
    sym[i] = static_cast<std::uint32_t>(level) | ((v_bits >> 31) * sign_bit);
  }
}

void qsgd_dequantize_scalar(const std::uint32_t* sym, std::size_t n,
                            float scale, std::uint32_t sign_bit,
                            unsigned sign_shift, float* out) {
  const std::uint32_t level_mask = sign_bit - 1;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t symbol = sym[i];
    const float magnitude = static_cast<float>(symbol & level_mask) * scale;
    out[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(magnitude) |
                                  ((symbol & sign_bit) << sign_shift));
  }
}

// NUQ interval search by exponent extraction. Level k >= 1 has value
// 2^(k - top); a normalized a in [2^j, 2^(j+1)) therefore sits in interval
// lo = j + top (clamped to [0, top]), and zero/subnormal a (exponent field
// 0) clamps to interval 0. Identical to a linear scan over the level table
// for every finite a in [0, 1].
void nuq_quantize_scalar(const float* v, const float* u, std::size_t n,
                         float inv_norm, unsigned bits, std::uint32_t* sym) {
  const int top = (1 << (bits - 1)) - 1;
  const std::uint32_t sign_bit = 1u << (bits - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t v_bits = std::bit_cast<std::uint32_t>(v[i]);
    float a = std::bit_cast<float>(v_bits & 0x7fffffffu) * inv_norm;
    a = a < 1.0f ? a : 1.0f;  // minps(a, 1) semantics: NaN -> 1
    const int e = static_cast<int>(std::bit_cast<std::uint32_t>(a) >> 23) -
                  127;
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

void nuq_dequantize_scalar(const std::uint32_t* sym, std::size_t n, float norm,
                           unsigned bits, float* out) {
  const int top = (1 << (bits - 1)) - 1;
  const std::uint32_t sign_bit = 1u << (bits - 1);
  const std::uint32_t index_mask = sign_bit - 1;
  for (std::size_t i = 0; i < n; ++i) {
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

void gemm_tile_scalar(const float* a, std::size_t lda, const float* b,
                      std::size_t ldb, float* c, std::size_t ldc,
                      std::size_t mb, std::size_t kb, std::size_t nb) {
  for (std::size_t i = 0; i < mb; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (std::size_t k = 0; k < kb; ++k) {
      const float aik = arow[k];
      const float* brow = b + k * ldb;
      for (std::size_t j = 0; j < nb; ++j) crow[j] += aik * brow[j];
    }
  }
}

void gemm_tile_at_scalar(const float* a, std::size_t lda, const float* b,
                         std::size_t ldb, float* c, std::size_t ldc,
                         std::size_t mb, std::size_t kb, std::size_t nb) {
  for (std::size_t i = 0; i < mb; ++i) {
    float* crow = c + i * ldc;
    for (std::size_t k = 0; k < kb; ++k) {
      const float aik = a[k * lda + i];
      const float* brow = b + k * ldb;
      for (std::size_t j = 0; j < nb; ++j) crow[j] += aik * brow[j];
    }
  }
}

// The scalar A·Bᵀ tile is one reduce_dot per output — the specification
// the vector tiles reproduce.
void dot_tile_scalar(const float* a, std::size_t lda, const float* b,
                     std::size_t ldb, float* c, std::size_t ldc,
                     std::size_t mb, std::size_t nb, std::size_t n,
                     bool accumulate) {
  for (std::size_t i = 0; i < mb; ++i) {
    for (std::size_t j = 0; j < nb; ++j) {
      store_dot(c[i * ldc + j],
                reduce_dot_scalar(a + i * lda, b + j * ldb, n), accumulate);
    }
  }
}

// -------------------------------------------------------------------- adam

void adam_update_scalar(const AdamCoeffs& c, float* w, float* grad, float* m,
                        float* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    adam_element(c, w[i], grad[i], m[i], v[i]);
  }
}

// --------------------------------------------------------------------- exp

void exp_scalar(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = exp_element(x[i]);
}

double exp_sum_scalar(const float* x, double shift, double* out,
                      std::size_t n) {
  double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = exp_element(static_cast<double>(x[i]) - shift);
    lanes[i % 8] += out[i];
  }
  return combine_lanes(lanes);
}

void tanh_scalar(const float* x, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = tanh_element(x[i]);
}

// ------------------------------------------------------------ uniforms

void bucket_uniforms_scalar(std::uint64_t (*states)[4], std::size_t count,
                            std::size_t len, float* out) {
  for (std::size_t k = 0; k < count; ++k) {
    fill_uniforms_tail(states[k], 0, len, out + k * len);
  }
}

// ------------------------------------------------------------- copy engine
//
// copy_add reuses the elementwise add loop — same per-element sequence the
// vector levels reproduce.

void copy_add2_scalar(float* dst, const float* a, const float* b,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    float acc = dst[i] + a[i];
    dst[i] = acc + b[i];
  }
}

constexpr SimdOps kScalarOps = {
    axpy_scalar,       scale_scalar,          sub_scalar,
    add_scalar,        add_scaled_scalar,     madd_scalar,
    reduce_sum_scalar, reduce_dot_scalar,     reduce_sqnorm_scalar,
    reduce_sqdiff_scalar, reduce_max_scalar,  reduce_max_abs_scalar,
    qsgd_quantize_scalar, qsgd_dequantize_scalar,
    nuq_quantize_scalar,  nuq_dequantize_scalar,
    gemm_tile_scalar,  gemm_tile_at_scalar,
    dot_tile_scalar,   adam_update_scalar,
    exp_scalar,        exp_sum_scalar,        tanh_scalar,
    nullptr,           nullptr,
    bucket_uniforms_scalar,
    add_scalar,  // copy_add == the elementwise add loop
    copy_add2_scalar,
    nullptr,           nullptr,     // no scalar vector path for half (see half.cpp)
};

}  // namespace

const SimdOps& scalar_ops() { return kScalarOps; }

double* widen_scratch(std::size_t count) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < count) scratch.resize(count);
  return scratch.data();
}

}  // namespace detail

// ----------------------------------------------------------------- dispatch

namespace {

const detail::SimdOps* ops_for(Level level) {
  switch (level) {
    case Level::kAvx2:
      return &detail::avx2_ops();
    case Level::kSse2:
      return &detail::sse2_ops();
    case Level::kScalar:
      return &detail::scalar_ops();
  }
  return &detail::scalar_ops();
}

Level level_from_env() {
  const char* env = std::getenv("CGX_SIMD");
  if (env == nullptr || env[0] == '\0' || std::strcmp(env, "auto") == 0) {
    return max_supported_level();
  }
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0) {
    return Level::kScalar;
  }
  if (std::strcmp(env, "sse2") == 0) return Level::kSse2;
  if (std::strcmp(env, "avx2") == 0) return Level::kAvx2;
  std::fprintf(stderr,
               "cgx: unknown CGX_SIMD value '%s' (want off|sse2|avx2|auto); "
               "using auto\n",
               env);
  return max_supported_level();
}

struct Dispatch {
  std::atomic<Level> level;
  std::atomic<const detail::SimdOps*> ops;
  Dispatch() {
    Level l = level_from_env();
    if (l > max_supported_level()) l = max_supported_level();
    level.store(l, std::memory_order_relaxed);
    ops.store(ops_for(l), std::memory_order_relaxed);
  }
};

Dispatch& dispatch() {
  static Dispatch d;
  return d;
}

const detail::SimdOps& ops() {
  return *dispatch().ops.load(std::memory_order_relaxed);
}

}  // namespace

Level max_supported_level() {
#if defined(__x86_64__) || defined(__i386__)
  static const Level kMax = [] {
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return Level::kAvx2;
    }
    return Level::kSse2;
  }();
  return kMax;
#else
  return Level::kScalar;
#endif
}

Level active_level() {
  return dispatch().level.load(std::memory_order_relaxed);
}

void set_level(Level level) {
  if (level > max_supported_level()) level = max_supported_level();
  dispatch().level.store(level, std::memory_order_relaxed);
  dispatch().ops.store(ops_for(level), std::memory_order_relaxed);
}

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSse2:
      return "sse2";
    case Level::kAvx2:
      return "avx2";
  }
  return "?";
}

// ----------------------------------------------------------- public wrappers

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  CGX_DCHECK(x.size() == y.size());
  ops().axpy(alpha, x.data(), y.data(), x.size());
}

void scale(std::span<float> x, float alpha) {
  ops().scale(x.data(), alpha, x.size());
}

void sub(std::span<const float> a, std::span<const float> b,
         std::span<float> out) {
  CGX_DCHECK(a.size() == b.size() && a.size() == out.size());
  ops().sub(a.data(), b.data(), out.data(), a.size());
}

void add(std::span<float> dst, std::span<const float> src) {
  CGX_DCHECK(dst.size() == src.size());
  ops().add(dst.data(), src.data(), dst.size());
}

void add_scaled(std::span<const float> a, float beta, std::span<const float> b,
                std::span<float> out) {
  CGX_DCHECK(a.size() == b.size() && a.size() == out.size());
  ops().add_scaled(a.data(), beta, b.data(), out.data(), a.size());
}

void madd(std::span<float> dst, std::span<const float> a,
          std::span<const float> b) {
  CGX_DCHECK(dst.size() == a.size() && dst.size() == b.size());
  ops().madd(dst.data(), a.data(), b.data(), dst.size());
}

double reduce_sum(std::span<const float> x) {
  return ops().reduce_sum(x.data(), x.size());
}

double reduce_dot(std::span<const float> x, std::span<const float> y) {
  CGX_DCHECK(x.size() == y.size());
  return ops().reduce_dot(x.data(), y.data(), x.size());
}

double reduce_sqnorm(std::span<const float> x) {
  return ops().reduce_sqnorm(x.data(), x.size());
}

double reduce_sqdiff(std::span<const float> x, double mean) {
  return ops().reduce_sqdiff(x.data(), mean, x.size());
}

float reduce_max(std::span<const float> x, float init) {
  return ops().reduce_max(x.data(), x.size(), init);
}

float reduce_max_abs(std::span<const float> x) {
  return ops().reduce_max_abs(x.data(), x.size());
}

void qsgd_quantize(const float* v, const float* u, std::size_t n,
                   float inv_norm, std::uint32_t s, std::uint32_t sign_bit,
                   std::uint32_t* sym) {
  ops().qsgd_quantize(v, u, n, inv_norm, s, sign_bit, sym);
}

void qsgd_dequantize(const std::uint32_t* sym, std::size_t n, float scale,
                     std::uint32_t sign_bit, unsigned sign_shift, float* out) {
  ops().qsgd_dequantize(sym, n, scale, sign_bit, sign_shift, out);
}

void nuq_quantize(const float* v, const float* u, std::size_t n,
                  float inv_norm, unsigned bits, std::uint32_t* sym) {
  ops().nuq_quantize(v, u, n, inv_norm, bits, sym);
}

void nuq_dequantize(const std::uint32_t* sym, std::size_t n, float norm,
                    unsigned bits, float* out) {
  ops().nuq_dequantize(sym, n, norm, bits, out);
}

void gemm_tile(const float* a, std::size_t lda, const float* b,
               std::size_t ldb, float* c, std::size_t ldc, std::size_t mb,
               std::size_t kb, std::size_t nb) {
  ops().gemm_tile(a, lda, b, ldb, c, ldc, mb, kb, nb);
}

void gemm_tile_at(const float* a, std::size_t lda, const float* b,
                  std::size_t ldb, float* c, std::size_t ldc, std::size_t mb,
                  std::size_t kb, std::size_t nb) {
  ops().gemm_tile_at(a, lda, b, ldb, c, ldc, mb, kb, nb);
}

void dot_tile(const float* a, std::size_t lda, const float* b,
              std::size_t ldb, float* c, std::size_t ldc, std::size_t mb,
              std::size_t nb, std::size_t n, bool accumulate) {
  ops().dot_tile(a, lda, b, ldb, c, ldc, mb, nb, n, accumulate);
}

void adam_update(const AdamCoeffs& coeffs, std::span<float> w,
                 std::span<float> grad, std::span<float> m,
                 std::span<float> v) {
  CGX_DCHECK(grad.size() == w.size());
  CGX_DCHECK(m.size() == w.size() && v.size() == w.size());
  ops().adam_update(coeffs, w.data(), grad.data(), m.data(), v.data(),
                    w.size());
}

void bucket_uniforms(std::uint64_t (*states)[4], std::size_t count,
                     std::size_t len, float* out) {
  CGX_DCHECK(count <= 4);
  ops().bucket_uniforms(states, count, len, out);
}

void exp(std::span<const double> x, std::span<double> out) {
  CGX_DCHECK(x.size() == out.size());
  ops().exp(x.data(), out.data(), x.size());
}

double exp_sum(std::span<const float> x, double shift,
               std::span<double> out) {
  CGX_DCHECK(x.size() == out.size());
  return ops().exp_sum(x.data(), shift, out.data(), x.size());
}

void tanh(std::span<const float> x, std::span<float> out) {
  CGX_DCHECK(x.size() == out.size());
  ops().tanh(x.data(), out.data(), x.size());
}

bool pack_words(const std::uint32_t* sym, std::size_t nwords, unsigned bits,
                std::byte* out) {
  const auto fn = ops().pack_words;
  return fn != nullptr && fn(sym, nwords, bits, out);
}

bool unpack_words(const std::byte* in, std::size_t nwords, unsigned bits,
                  std::uint32_t* sym) {
  const auto fn = ops().unpack_words;
  return fn != nullptr && fn(in, nwords, bits, sym);
}

// -------------------------------------------------------------- copy engine

namespace {

// Padded so the three counters never false-share with neighbours; eight rank
// threads bump these on every frame copy.
struct alignas(64) CopyCounters {
  std::atomic<std::uint64_t> copied_bytes{0};
  std::atomic<std::uint64_t> copy_add_bytes{0};
  std::atomic<std::uint64_t> calls{0};
};

CopyCounters& copy_counters() {
  static CopyCounters c;
  return c;
}

}  // namespace

CopyStats copy_engine_stats() {
  CopyCounters& c = copy_counters();
  CopyStats s;
  s.copied_bytes = c.copied_bytes.load(std::memory_order_relaxed);
  s.copy_add_bytes = c.copy_add_bytes.load(std::memory_order_relaxed);
  s.calls = c.calls.load(std::memory_order_relaxed);
  return s;
}

void reset_copy_engine_stats() {
  CopyCounters& c = copy_counters();
  c.copied_bytes.store(0, std::memory_order_relaxed);
  c.copy_add_bytes.store(0, std::memory_order_relaxed);
  c.calls.store(0, std::memory_order_relaxed);
}

void copy_bytes(void* dst, const void* src, std::size_t n) {
  if (n == 0) return;
  CopyCounters& c = copy_counters();
  c.copied_bytes.fetch_add(n, std::memory_order_relaxed);
  c.calls.fetch_add(1, std::memory_order_relaxed);
  std::memcpy(dst, src, n);
}

void copy_floats(std::span<const float> src, std::span<float> dst) {
  CGX_DCHECK(src.size() == dst.size());
  copy_bytes(dst.data(), src.data(), src.size() * sizeof(float));
}

void copy_add(std::span<float> dst, std::span<const float> src) {
  CGX_DCHECK(dst.size() == src.size());
  if (dst.empty()) return;
  CopyCounters& c = copy_counters();
  c.copy_add_bytes.fetch_add(src.size() * sizeof(float),
                             std::memory_order_relaxed);
  c.calls.fetch_add(1, std::memory_order_relaxed);
  ops().copy_add(dst.data(), src.data(), dst.size());
}

void copy_add2(std::span<float> dst, std::span<const float> a,
               std::span<const float> b) {
  CGX_DCHECK(dst.size() == a.size());
  CGX_DCHECK(dst.size() == b.size());
  if (dst.empty()) return;
  CopyCounters& c = copy_counters();
  c.copy_add_bytes.fetch_add(2 * dst.size() * sizeof(float),
                             std::memory_order_relaxed);
  c.calls.fetch_add(1, std::memory_order_relaxed);
  ops().copy_add2(dst.data(), a.data(), b.data(), dst.size());
}

bool f32_to_f16(const float* in, std::uint16_t* out, std::size_t n) {
  const auto fn = ops().f32_to_f16;
  return fn != nullptr && fn(in, out, n);
}

bool f16_to_f32(const std::uint16_t* in, float* out, std::size_t n) {
  const auto fn = ops().f16_to_f32;
  return fn != nullptr && fn(in, out, n);
}

}  // namespace cgx::util::simd
