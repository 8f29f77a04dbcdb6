// AVX-512 level: the AVX2 table with its three GEMM tiles widened to zmm.
// Compiled with -mavx512f -mavx2 -mfma -ffp-contract=off; its code is only
// reached after a runtime __builtin_cpu_supports("avx512f") check. Every
// other kernel is the AVX2 one, so nothing but the tiles is duplicated.
//
// The tiles keep the bits of the scalar reference (see simd.h):
//   - gemm_tile / gemm_tile_at: a zmm holds 16 consecutive columns of one C
//     row, one column per lane, and each lane runs the contract's
//     acc + a[i][k] * b[k][j] (mul, then add, never fused) in increasing k.
//     The ragged right edge is the same code under a lane mask.
//   - dot_tile: a zmm holds one output's eight canonical double lanes
//     (element i in lane i % 8) and accumulates with FMA on widened floats,
//     whose product is exact in double (DESIGN.md §5e). The n % 8 tail is
//     one more masked step into the same lanes, so the fold is
//     reduce_dot's.
#include "util/simd_internal.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace cgx::util::simd::detail {
namespace {

// -------------------------------------------------------------------- gemm

constexpr __mmask16 kAll16 = 0xffff;

// The low `n` lanes (n <= 16).
inline __mmask16 low_lanes16(std::size_t n) {
  return static_cast<__mmask16>((1u << n) - 1u);
}

template <bool Masked>
inline __m512 load16(const float* p, __mmask16 m) {
  if constexpr (Masked) return _mm512_maskz_loadu_ps(m, p);
  return _mm512_loadu_ps(p);
}

template <bool Masked>
inline void store16(float* p, __mmask16 m, __m512 v) {
  if constexpr (Masked) {
    _mm512_mask_storeu_ps(p, m, v);
  } else {
    _mm512_storeu_ps(p, v);
  }
}

// C[R x 16V] += A * B for R <= 4 rows of A starting at `a` (row r at
// a + r * lda, or column r at a + r when ATrans) and 16V columns of B and C,
// the v-th zmm limited to the lanes in m[v] when Masked. 4 x 32 is eight
// accumulators, two B loads and four broadcasts per k.
template <bool ATrans, int R, int V, bool Masked>
inline void gemm_block(const float* a, std::size_t lda, const float* b,
                       std::size_t ldb, float* c, std::size_t ldc,
                       std::size_t kb, __mmask16 m0, __mmask16 m1) {
  const __mmask16 m[2] = {m0, m1};
  __m512 acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      acc[r][v] = load16<Masked>(c + r * ldc + 16 * v, m[v]);
    }
  }
  for (std::size_t k = 0; k < kb; ++k) {
    const float* brow = b + k * ldb;
    __m512 bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) bv[v] = load16<Masked>(brow + 16 * v, m[v]);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m512 av =
          _mm512_set1_ps(ATrans ? a[k * lda + r] : a[r * lda + k]);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm512_add_ps(acc[r][v], _mm512_mul_ps(av, bv[v]));
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      store16<Masked>(c + r * ldc + 16 * v, m[v], acc[r][v]);
    }
  }
}

// R rows of C across all nb columns: 32-column blocks, then the ragged
// rest (1..31 columns) as one or two masked zmm.
template <bool ATrans, int R>
inline void gemm_rows(const float* a, std::size_t lda, const float* b,
                      std::size_t ldb, float* c, std::size_t ldc,
                      std::size_t kb, std::size_t nb) {
  std::size_t j = 0;
  for (; j + 32 <= nb; j += 32) {
    gemm_block<ATrans, R, 2, false>(a, lda, b + j, ldb, c + j, ldc, kb,
                                    kAll16, kAll16);
  }
  const std::size_t rest = nb - j;
  if (rest > 16) {
    gemm_block<ATrans, R, 2, true>(a, lda, b + j, ldb, c + j, ldc, kb, kAll16,
                                   low_lanes16(rest - 16));
  } else if (rest > 0) {
    gemm_block<ATrans, R, 1, true>(a, lda, b + j, ldb, c + j, ldc, kb,
                                   low_lanes16(rest), 0);
  }
}

template <bool ATrans>
inline void gemm_tile_impl(const float* a, std::size_t lda, const float* b,
                           std::size_t ldb, float* c, std::size_t ldc,
                           std::size_t mb, std::size_t kb, std::size_t nb) {
  // Where row i of the tile's A starts.
  const auto arow = [&](std::size_t i) { return ATrans ? a + i : a + i * lda; };
  std::size_t i = 0;
  for (; i + 4 <= mb; i += 4) {
    gemm_rows<ATrans, 4>(arow(i), lda, b, ldb, c + i * ldc, ldc, kb, nb);
  }
  switch (mb - i) {
    case 3:
      gemm_rows<ATrans, 3>(arow(i), lda, b, ldb, c + i * ldc, ldc, kb, nb);
      break;
    case 2:
      gemm_rows<ATrans, 2>(arow(i), lda, b, ldb, c + i * ldc, ldc, kb, nb);
      break;
    case 1:
      gemm_rows<ATrans, 1>(arow(i), lda, b, ldb, c + i * ldc, ldc, kb, nb);
      break;
    default:
      break;
  }
}

void gemm_tile_avx512(const float* a, std::size_t lda, const float* b,
                      std::size_t ldb, float* c, std::size_t ldc,
                      std::size_t mb, std::size_t kb, std::size_t nb) {
  gemm_tile_impl<false>(a, lda, b, ldb, c, ldc, mb, kb, nb);
}

void gemm_tile_at_avx512(const float* a, std::size_t lda, const float* b,
                         std::size_t ldb, float* c, std::size_t ldc,
                         std::size_t mb, std::size_t kb, std::size_t nb) {
  gemm_tile_impl<true>(a, lda, b, ldb, c, ldc, mb, kb, nb);
}

// ---------------------------------------------------------------- dot tile

// Eight floats at p widened to double. The maskz form with every lane set
// is _mm512_cvtps_pd without the undefined pass-through operand, which
// GCC 12's header flags under -Wmaybe-uninitialized.
inline __m512d widen8(const float* p) {
  return _mm512_maskz_cvtps_pd(0xff, _mm256_loadu_ps(p));
}
// The low n < 8 floats at p widened, the other lanes zero; nothing past
// p + n is read.
inline __m512d widen_low(const float* p, std::size_t n) {
  const __m256i live = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(n)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  return _mm512_maskz_cvtps_pd(0xff, _mm256_maskload_ps(p, live));
}

// R widened A rows x C rows of B: R * C outputs, each in one zmm of eight
// canonical lanes. wa holds the rows' first nv elements (row r at
// wa + r * nv), tail[r] the rest zero-padded to eight. 4 x 6 is 24
// accumulators fed by six B widens and four A loads per eight elements.
template <int R, int C>
inline void dot_block(const double* wa, const double (*tail)[8],
                      const float* b, std::size_t ldb, float* c,
                      std::size_t ldc, std::size_t n, std::size_t nv,
                      bool accumulate) {
  __m512d acc[R][C];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 6
    for (int j = 0; j < C; ++j) acc[r][j] = _mm512_setzero_pd();
  }
  for (std::size_t k = 0; k < nv; k += 8) {
    __m512d bv[C];
#pragma GCC unroll 6
    for (int j = 0; j < C; ++j) bv[j] = widen8(b + j * ldb + k);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m512d av = _mm512_loadu_pd(wa + r * nv + k);
#pragma GCC unroll 6
      for (int j = 0; j < C; ++j) {
        acc[r][j] = _mm512_fmadd_pd(av, bv[j], acc[r][j]);
      }
    }
  }
  if (nv < n) {
    // Tail element nv + t lands in lane t = (nv + t) % 8; the other lanes
    // keep their bits.
    const __mmask8 live = static_cast<__mmask8>((1u << (n - nv)) - 1u);
    __m512d bv[C];
#pragma GCC unroll 6
    for (int j = 0; j < C; ++j) bv[j] = widen_low(b + j * ldb + nv, n - nv);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m512d av = _mm512_loadu_pd(tail[r]);
#pragma GCC unroll 6
      for (int j = 0; j < C; ++j) {
        acc[r][j] = _mm512_mask3_fmadd_pd(av, bv[j], acc[r][j], live);
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 6
    for (int j = 0; j < C; ++j) {
      double lanes[8];
      _mm512_storeu_pd(lanes, acc[r][j]);
      store_dot(c[r * ldc + j], combine_lanes(lanes), accumulate);
    }
  }
}

// R rows of A against all nb rows of B: widen the A rows once, then six
// B rows at a time and the 1..5 left over as one narrower block.
template <int R>
inline void dot_rows(const float* a, std::size_t lda, const float* b,
                     std::size_t ldb, float* c, std::size_t ldc,
                     std::size_t nb, std::size_t n, std::size_t nv,
                     double* wa, bool accumulate) {
  alignas(64) double tail[R][8];
  for (int r = 0; r < R; ++r) {
    const float* arow = a + r * lda;
    for (std::size_t k = 0; k < nv; k += 8) {
      _mm512_storeu_pd(wa + r * nv + k, widen8(arow + k));
    }
    _mm512_storeu_pd(tail[r], widen_low(arow + nv, n - nv));
  }
  std::size_t j = 0;
  for (; j + 6 <= nb; j += 6) {
    dot_block<R, 6>(wa, tail, b + j * ldb, ldb, c + j, ldc, n, nv,
                    accumulate);
  }
  const float* bj = b + j * ldb;
  switch (nb - j) {
    case 5:
      dot_block<R, 5>(wa, tail, bj, ldb, c + j, ldc, n, nv, accumulate);
      break;
    case 4:
      dot_block<R, 4>(wa, tail, bj, ldb, c + j, ldc, n, nv, accumulate);
      break;
    case 3:
      dot_block<R, 3>(wa, tail, bj, ldb, c + j, ldc, n, nv, accumulate);
      break;
    case 2:
      dot_block<R, 2>(wa, tail, bj, ldb, c + j, ldc, n, nv, accumulate);
      break;
    case 1:
      dot_block<R, 1>(wa, tail, bj, ldb, c + j, ldc, n, nv, accumulate);
      break;
    default:
      break;
  }
}

void dot_tile_avx512(const float* a, std::size_t lda, const float* b,
                     std::size_t ldb, float* c, std::size_t ldc,
                     std::size_t mb, std::size_t nb, std::size_t n,
                     bool accumulate) {
  const std::size_t nv = n - n % 8;
  alignas(64) double local[kWidenStack];
  double* wa = 4 * nv <= kWidenStack ? local : widen_scratch(4 * nv);
  std::size_t i = 0;
  for (; i + 4 <= mb; i += 4) {
    dot_rows<4>(a + i * lda, lda, b, ldb, c + i * ldc, ldc, nb, n, nv, wa,
                accumulate);
  }
  const float* ai = a + i * lda;
  float* ci = c + i * ldc;
  switch (mb - i) {
    case 3:
      dot_rows<3>(ai, lda, b, ldb, ci, ldc, nb, n, nv, wa, accumulate);
      break;
    case 2:
      dot_rows<2>(ai, lda, b, ldb, ci, ldc, nb, n, nv, wa, accumulate);
      break;
    case 1:
      dot_rows<1>(ai, lda, b, ldb, ci, ldc, nb, n, nv, wa, accumulate);
      break;
    default:
      break;
  }
}

}  // namespace

const SimdOps& avx512_ops() {
  static const SimdOps ops = [] {
    SimdOps o = avx2_ops();
    o.gemm_tile = gemm_tile_avx512;
    o.gemm_tile_at = gemm_tile_at_avx512;
    o.dot_tile = dot_tile_avx512;
    return o;
  }();
  return ops;
}

}  // namespace cgx::util::simd::detail

#else  // non-x86: never selected (max_supported_level() caps at scalar)

namespace cgx::util::simd::detail {
const SimdOps& avx512_ops() { return scalar_ops(); }
}  // namespace cgx::util::simd::detail

#endif
