// Portable SIMD kernel layer with runtime CPU dispatch.
//
// Every numerical hot path in the library (tensor_ops GEMM, the nn layer
// reductions and transcendentals, QSGD/NUQ quantization, bitio pack/unpack)
// routes through the kernels declared here. At startup the best instruction
// set the CPU supports is selected, in the order of Level below:
// scalar < SSE2 < AVX2+FMA < AVX-512F. The CGX_SIMD environment variable
// (`off`/`scalar`, `sse2`, `avx2`, `avx512`, `auto`) overrides the choice so
// tests can pin a level, and set_level() switches levels at runtime for
// in-process A/B comparison; both clamp to what the CPU has. The AVX-512
// level is the AVX2 table with only the three GEMM tiles (gemm_tile,
// gemm_tile_at, dot_tile) widened to zmm; every other kernel is AVX2's.
//
// Bit-exactness contract: for identical inputs, every kernel produces
// bit-identical outputs at every dispatch level. Elementwise kernels
// guarantee this by performing the exact same rounding sequence per element
// (multiply then add — never fused — for float math). Reductions guarantee
// it by a *canonical combine order*: the input is striped across eight
// double-precision lane accumulators (element i lands in lane i % 8,
// regardless of vector width) and the lanes are folded with the fixed tree
//   ((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7)).
// The scalar reference implements this same order, so "scalar" is not a
// different numerical contract — it is the specification. All four TUs
// (scalar/sse2/avx2/avx512) are compiled with -ffp-contract=off so the
// compiler cannot re-fuse what the contract keeps separate. Two AVX2
// kernels fuse on purpose, where the fused form provably rounds like the
// reference: the dot_tile's double-precision accumulate of a product of
// two widened floats (that product is exact in double, 24 + 24 significand
// bits, so fma(x, y, acc) rounds exactly like acc + x * y), and the Adam
// update's corrected reciprocal (see adam_update below).
//
// The zmm tiles keep the contract lane by lane. A float tile's zmm is 16
// consecutive columns of one C row, so each lane is one output running its
// own mul-then-add chain in increasing k, as in the scalar loop; a ragged
// right edge is the same code under a lane mask. A dot tile's zmm is the
// eight canonical double lanes of one output (element i in lane i % 8),
// accumulated with the exact-product FMA above, the n % 8 tail added into
// the same lanes under a mask, and folded with the tree above.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace cgx::util::simd {

enum class Level { kScalar = 0, kSse2 = 1, kAvx2 = 2, kAvx512 = 3 };

// Best level this CPU can execute (compile-time capped on non-x86).
Level max_supported_level();
// Currently active level. First call initializes from CGX_SIMD.
Level active_level();
// Forces a level (clamped to max_supported_level()); used by tests and the
// microbench to compare levels in-process. Thread-safe but not meant to be
// raced against in-flight kernels.
void set_level(Level level);
const char* level_name(Level level);

// ---------------------------------------------------------------------------
// Elementwise float kernels (bit-identical across levels, per-element ops).
// ---------------------------------------------------------------------------

// y += alpha * x
void axpy(float alpha, std::span<const float> x, std::span<float> y);
// x *= alpha
void scale(std::span<float> x, float alpha);
// out = a - b
void sub(std::span<const float> a, std::span<const float> b,
         std::span<float> out);
// dst += src
void add(std::span<float> dst, std::span<const float> src);
// out = a + beta * b  (the fused error-feedback decay+accumulate sweep)
void add_scaled(std::span<const float> a, float beta, std::span<const float> b,
                std::span<float> out);
// dst += a * b (elementwise)
void madd(std::span<float> dst, std::span<const float> a,
          std::span<const float> b);

// ---------------------------------------------------------------------------
// Reductions (canonical 8-lane double accumulators, fixed combine tree).
// ---------------------------------------------------------------------------

double reduce_sum(std::span<const float> x);
double reduce_dot(std::span<const float> x, std::span<const float> y);
double reduce_sqnorm(std::span<const float> x);
// sum over (x[i] - mean)^2, each term computed in double.
double reduce_sqdiff(std::span<const float> x, double mean);
// max(init, max_i x[i]); NaN elements are ignored (std::max semantics).
float reduce_max(std::span<const float> x, float init);
// max_i |x[i]| (0 for empty input).
float reduce_max_abs(std::span<const float> x);

// ---------------------------------------------------------------------------
// Quantization kernels.
// ---------------------------------------------------------------------------

// QSGD stochastic rounding: for each i,
//   a     = |v[i]| * inv_norm
//   level = min((int)(a * s + u[i]), s)
//   sym[i]= level | (signbit(v[i]) ? sign_bit : 0)
// u holds pre-drawn uniforms in [0,1); s = sign_bit - 1 magnitude levels.
void qsgd_quantize(const float* v, const float* u, std::size_t n,
                   float inv_norm, std::uint32_t s, std::uint32_t sign_bit,
                   std::uint32_t* sym);
// Inverse: out[i] = ±(sym_level * scale); sign_shift = 32 - bits moves the
// payload sign bit to the float sign position.
void qsgd_dequantize(const std::uint32_t* sym, std::size_t n, float scale,
                     std::uint32_t sign_bit, unsigned sign_shift, float* out);

// NUQ exponential-grid stochastic quantization (levels 0, 2^-(top), ...,
// 2^-1, 1 where top = 2^(bits-1) - 1). Interval search is done by exponent
// extraction, identically in scalar and vector form.
void nuq_quantize(const float* v, const float* u, std::size_t n,
                  float inv_norm, unsigned bits, std::uint32_t* sym);
void nuq_dequantize(const std::uint32_t* sym, std::size_t n, float norm,
                    unsigned bits, float* out);

// ---------------------------------------------------------------------------
// GEMM micro-kernels. Called by the tiled drivers in tensor_ops.cpp; each
// accumulates C[mb x nb] += A * B for one tile with row strides lda/ldb/ldc.
// Every output element keeps a single float accumulator updated in
// increasing-k order (register accumulation is bit-identical to the scalar
// store/reload loop because float load/store is exact).
// ---------------------------------------------------------------------------

// A tile addressed a[i*lda + k].
void gemm_tile(const float* a, std::size_t lda, const float* b,
               std::size_t ldb, float* c, std::size_t ldc, std::size_t mb,
               std::size_t kb, std::size_t nb);
// A tile addressed transposed: a[k*lda + i] (for C = A^T * B).
void gemm_tile_at(const float* a, std::size_t lda, const float* b,
                  std::size_t ldb, float* c, std::size_t ldc, std::size_t mb,
                  std::size_t kb, std::size_t nb);

// A·Bᵀ tile for tensor::matmul_a_bt: for i < mb and j < nb,
//   c[i*ldc + j] = (float)reduce_dot(a + i*lda, b + j*ldb)   (length n each),
// or, with `accumulate`, c[i*ldc + j] += (float)reduce_dot(...).
// Every output keeps reduce_dot's canonical lane order, so the tile is
// bit-identical to one reduce_dot per output. Vector levels widen a block
// of A rows to double once and stream each B row against all of them; the
// widening buffer is a grow-once per-thread scratch of 4*n doubles.
void dot_tile(const float* a, std::size_t lda, const float* b,
              std::size_t ldb, float* c, std::size_t ldc, std::size_t mb,
              std::size_t nb, std::size_t n, bool accumulate = false);

// ---------------------------------------------------------------------------
// Adam update (nn::Adam::step), per element i in increasing order:
//   g       = grad[i] + weight_decay * w[i]                    (float)
//   grad[i] = 0
//   m[i]    = beta1 * m[i] + one_minus_beta1 * g               (float)
//   v[i]    = beta2 * v[i] + (one_minus_beta2 * g) * g         (float)
//   w[i]   -= (float)(lr * (m[i] / bias1) /
//                     (sqrt(v[i] / bias2) + eps))              (double)
// `grad` is in/out: the update pass zeroes each element after reading it,
// so the optimizer needs no separate zeroing sweep.
// The SSE2 kernel runs this exact sequence 4 elements at a time. The AVX2
// kernel runs the float part 8 wide and replaces the two bias-correction
// divides with a corrected reciprocal multiply: with y = 1/bias computed
// once per call as an IEEE divide, each element takes
//   q = m * y,  r = fma(-q, bias, m),  q' = fma(r, y, q).
// By Markstein's theorem q' is the correctly rounded m / bias, because y
// is the correctly rounded reciprocal and q is within 1 ulp of the
// quotient; m and v are widened floats, so nothing under- or overflows
// while bias stays within [2^-64, 2^64] (outside it, the kernel divides).
// Lanes where m (or v) is ±0, ±inf or NaN keep q, which is exactly what
// the divide gives; the correction would turn -0 into +0 and ±inf into
// NaN. The final divide and the square root are the IEEE operations at
// every level, so the result is bit-identical at every level.
// ---------------------------------------------------------------------------

struct AdamCoeffs {
  float weight_decay;
  float beta1, one_minus_beta1;
  float beta2, one_minus_beta2;
  double bias1, bias2;  // 1 - beta^t bias corrections
  double lr, eps;
};

void adam_update(const AdamCoeffs& coeffs, std::span<float> w,
                 std::span<float> grad, std::span<float> m,
                 std::span<float> v);

// ---------------------------------------------------------------------------
// Transcendentals: the repo's own exp on doubles, and what is built on it.
// Every per-element exp and tanh in the nn layers runs through these, not
// through libm, whose exp picks a code path by host CPU (FMA or not) and
// so is not the same function on every machine. Per element:
//   x = min(710, x), then max(-746, x), NaN passing through both;
//   k = x * log2(e) rounded to nearest even (add and subtract 1.5 * 2^52);
//   r = (x - k * ln2_hi) - k * ln2_lo   (Cody-Waite; k * ln2_hi is exact);
//   q = sum_{i<12} r^i / (i+2)!  by Estrin's scheme in a fixed order
//       (simd_internal.h exp_element);
//   p = 1 + (r + (r * r) * q);
//   exp = (p * 2^(k >> 1)) * 2^(k - (k >> 1)),
// each 2^j built from exponent bits, so the split keeps both factors
// normal and the one rounding of a subnormal result is the last multiply.
// IEEE add, multiply and divide only: no FMA, no libm, no round
// instruction, so the bits are the same at every level and on every host.
// Error: under 1 ulp against a long double reference over [-746, 710]
// (tests/util/simd_test.cpp sweeps it); exp(±0) = 1, exp(-inf) = +0,
// exp(+inf) = +inf, results past 709.78 overflow to +inf and below -745.13
// flush to +0, NaN in gives NaN out.
// ---------------------------------------------------------------------------

// out[i] = exp(x[i]); out may alias x.
void exp(std::span<const double> x, std::span<double> out);
// out[i] = exp((double)x[i] - shift); returns the sum of out in the
// canonical 8-lane order. The softmax row: with shift = the row's max,
// every argument is <= 0. A NaN x[i] makes out[i] and the sum NaN.
double exp_sum(std::span<const float> x, double shift, std::span<double> out);
// out[i] = (float)tanh(x[i]), computed in double as
//   a = |x|,  e = exp(-2a),  t = (1 - e) / (1 + e),
// t = a below 2^-14 (where 1 - e cancels), then x's sign bit OR-ed back
// in. Within 1 float ulp of tanh; out may alias x.
void tanh(std::span<const float> x, std::span<float> out);

// ---------------------------------------------------------------------------
// Stochastic-rounding uniforms, several streams at once.
//
// states[k] (k < count <= 4) is the four-word xoshiro256** state of one
// util::Rng stream (Rng::state()). Stream k writes out[k*len .. k*len+len)
// with exactly what Rng::fill_floats writes for len floats: one draw per
// four floats, each draw's 16-bit windows high first, (r >> 48) * 2^-16,
// then (r >> 32) & 0xffff, (r >> 16) & 0xffff, r & 0xffff; a ragged end
// takes one more draw and keeps its leading windows. states[k] advances by
// ceil(len / 4) draws, so a stream filled in pieces whose lengths are
// multiples of 4 (except the last) matches one fill of the whole. The
// streams are independent, so vector levels run them side by side in
// 64-bit lanes (four on AVX2, two pairs on SSE2) with the generator's own
// integer ops; the scalar level runs them one after another.
// ---------------------------------------------------------------------------

void bucket_uniforms(std::uint64_t (*states)[4], std::size_t count,
                     std::size_t len, float* out);

// ---------------------------------------------------------------------------
// Bit pack/unpack fast paths for util/bitio. Operates on complete 64-bit
// payload words only (nwords words, 64/bits symbols each); the caller packs
// the ragged tail with its scalar loop. Returns false when the active level
// has no vector path for `bits`, in which case the caller must run its
// scalar loop over the whole range.
// ---------------------------------------------------------------------------

bool pack_words(const std::uint32_t* sym, std::size_t nwords, unsigned bits,
                std::byte* out);
bool unpack_words(const std::byte* in, std::size_t nwords, unsigned bits,
                  std::uint32_t* sym);

// ---------------------------------------------------------------------------
// Copy engine. The data plane's ring-channel copy-in/copy-out, peer-direct
// pulls, and tensor copies all route through these instead of raw
// std::memcpy / element loops, so the byte counters below see the whole
// hot path. copy_bytes IS std::memcpy at every level: every large copy on
// the step's path is read back at once (a hook gather by the compressor, a
// scatter by the optimizer, a ring write by its peer, a pull by the fold),
// so the destination should stay in cache. copy_add applies the exact
// scalar per-element sequence dst[i] += src[i] in increasing index order,
// so it is bit-identical at every level.
// ---------------------------------------------------------------------------

// Process-wide copy-engine counters (relaxed atomics; cheap enough for the
// hot path, precise enough for the bench roofline accounting).
struct CopyStats {
  std::uint64_t copied_bytes = 0;    // moved by copy_bytes / copy_floats
  std::uint64_t copy_add_bytes = 0;  // accumulated by copy_add (src bytes)
  std::uint64_t calls = 0;
};
CopyStats copy_engine_stats();
void reset_copy_engine_stats();

// memcpy contract (regions must not overlap); n == 0 is a no-op.
void copy_bytes(void* dst, const void* src, std::size_t n);
// Typed convenience over copy_bytes.
void copy_floats(std::span<const float> src, std::span<float> dst);
// dst[i] += src[i] with software prefetch; bit-identical to add().
void copy_add(std::span<float> dst, std::span<const float> src);
// Fused two-source fold: per element dst += a, then dst += b — bit-identical
// to copy_add(dst, a); copy_add(dst, b); but one pass over dst. The SRA
// scatter-reduce pairs peers through this to halve dst read/write traffic.
void copy_add2(std::span<float> dst, std::span<const float> a,
               std::span<const float> b);

// Bulk binary16 conversions. Return false when the active level has no
// vector path, in which case the caller must run its scalar loop (this is
// how CGX_SIMD=off pins the scalar contract — see util/half.cpp).
bool f32_to_f16(const float* in, std::uint16_t* out, std::size_t n);
bool f16_to_f32(const std::uint16_t* in, float* out, std::size_t n);

}  // namespace cgx::util::simd
