#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/check.h"
#include "util/simd.h"
#include "util/threadpool.h"

namespace cgx::tensor {

namespace {

// Tile shape for the blocked GEMM drivers. Row blocks (kMB) are the unit of
// thread parallelism; k/j blocks keep one A panel + one B panel resident in
// L1/L2. The k0 loop runs outermost inside a row block so every C element
// accumulates its k terms in increasing order no matter how the tiles split
// — that ordering (plus the micro-kernels' single-float-accumulator rule) is
// what makes results bit-identical across thread counts and dispatch levels.
constexpr std::size_t kMB = 64;
constexpr std::size_t kKB = 128;
constexpr std::size_t kNB = 256;
// Rows of the accumulate form's per-thread tile: 16 x kNB floats (16 KiB)
// stay in L1 between the zero fill, the k sweep and the add into C.
constexpr std::size_t kAccRows = 16;

// Runs fn(block) for row blocks [0, nblocks), on the calling thread's
// executor when one is bound (util::thread_executor; parallel_for itself
// runs serially on pool workers and inside another job). Serial and
// parallel paths execute the same per-block work, so results do not depend
// on the choice.
template <typename Fn>
void for_each_row_block(std::size_t nblocks, const Fn& fn) {
  if (nblocks > 1) {
    if (const auto executor = util::thread_executor()) {
      executor->parallel_for(nblocks, fn);
      return;
    }
  }
  for (std::size_t blk = 0; blk < nblocks; ++blk) fn(blk);
}

}  // namespace

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  util::simd::axpy(alpha, x, y);
}

void scale(std::span<float> x, float alpha) { util::simd::scale(x, alpha); }

double dot(std::span<const float> x, std::span<const float> y) {
  return util::simd::reduce_dot(x, y);
}

double squared_norm(std::span<const float> x) {
  // All norm/dot reductions share simd::reduce_*'s canonical 8-lane combine
  // order (see simd.h), so this value is bit-identical across dispatch
  // levels and across every caller — no ulp drift between paths.
  return util::simd::reduce_sqnorm(x);
}

double l2_norm(std::span<const float> x) { return std::sqrt(squared_norm(x)); }

float linf_norm(std::span<const float> x) {
  return util::simd::reduce_max_abs(x);
}

double sum(std::span<const float> x) { return util::simd::reduce_sum(x); }

void sub(std::span<const float> a, std::span<const float> b,
         std::span<float> out) {
  util::simd::sub(a, b, out);
}

void add_inplace(std::span<float> dst, std::span<const float> src) {
  // The prefetching accumulate kernel — bit-identical to simd::add (same
  // per-element order), faster on past-L2 gradient sweeps.
  util::simd::copy_add(dst, src);
}

void add_inplace2(std::span<float> dst, std::span<const float> a,
                  std::span<const float> b) {
  util::simd::copy_add2(dst, a, b);
}

void copy(std::span<const float> src, std::span<float> dst) {
  util::simd::copy_floats(src, dst);
}

void matmul(std::span<const float> a, std::span<const float> b,
            std::span<float> c, std::size_t m, std::size_t k, std::size_t n) {
  CGX_DCHECK(a.size() == m * k);
  CGX_DCHECK(b.size() == k * n);
  CGX_DCHECK(c.size() == m * n);
  std::fill(c.begin(), c.end(), 0.0f);
  if (m == 0 || k == 0 || n == 0) return;
  const std::size_t nblocks = (m + kMB - 1) / kMB;
  for_each_row_block(nblocks, [&](std::size_t blk) {
    const std::size_t i0 = blk * kMB;
    const std::size_t mb = std::min(kMB, m - i0);
    for (std::size_t k0 = 0; k0 < k; k0 += kKB) {
      const std::size_t kb = std::min(kKB, k - k0);
      for (std::size_t j0 = 0; j0 < n; j0 += kNB) {
        const std::size_t nb = std::min(kNB, n - j0);
        util::simd::gemm_tile(a.data() + i0 * k + k0, k,
                              b.data() + k0 * n + j0, n,
                              c.data() + i0 * n + j0, n, mb, kb, nb);
      }
    }
  });
}

void matmul_at_b(std::span<const float> a, std::span<const float> b,
                 std::span<float> c, std::size_t k, std::size_t m,
                 std::size_t n, Store store) {
  // C[m x n] = A^T * B, with A stored [k x m] row-major, B [k x n].
  CGX_DCHECK(a.size() == k * m);
  CGX_DCHECK(b.size() == k * n);
  CGX_DCHECK(c.size() == m * n);
  const std::size_t nblocks = (m + kMB - 1) / kMB;
  if (store == Store::kOverwrite) {
    std::fill(c.begin(), c.end(), 0.0f);
    if (m == 0 || k == 0 || n == 0) return;
    for_each_row_block(nblocks, [&](std::size_t blk) {
      const std::size_t i0 = blk * kMB;
      const std::size_t mb = std::min(kMB, m - i0);
      for (std::size_t k0 = 0; k0 < k; k0 += kKB) {
        const std::size_t kb = std::min(kKB, k - k0);
        for (std::size_t j0 = 0; j0 < n; j0 += kNB) {
          const std::size_t nb = std::min(kNB, n - j0);
          util::simd::gemm_tile_at(a.data() + k0 * m + i0, m,
                                   b.data() + k0 * n + j0, n,
                                   c.data() + i0 * n + j0, n, mb, kb, nb);
        }
      }
    });
    return;
  }
  // Each output's sum forms in a zeroed tile over all k blocks, in the
  // same increasing-k order as above, and is then added into C once — so
  // C needs no scratch copy and no separate add sweep. The tile covers
  // kAccRows rows of the row block at a time. k == 0 still adds the +0
  // sums, as the scratch form would. (Storing the overwrite form through
  // the same tile measured up to 17% slower, so it keeps summing in C.)
  if (m == 0 || n == 0) return;
  for_each_row_block(nblocks, [&](std::size_t blk) {
    alignas(64) float tile[kAccRows * kNB];
    const std::size_t i0 = blk * kMB;
    const std::size_t mb = std::min(kMB, m - i0);
    for (std::size_t j0 = 0; j0 < n; j0 += kNB) {
      const std::size_t nb = std::min(kNB, n - j0);
      for (std::size_t r0 = 0; r0 < mb; r0 += kAccRows) {
        const std::size_t rb = std::min(kAccRows, mb - r0);
        std::fill(tile, tile + rb * nb, 0.0f);
        for (std::size_t k0 = 0; k0 < k; k0 += kKB) {
          const std::size_t kb = std::min(kKB, k - k0);
          util::simd::gemm_tile_at(a.data() + k0 * m + i0 + r0, m,
                                   b.data() + k0 * n + j0, n, tile, nb, rb, kb,
                                   nb);
        }
        for (std::size_t i = 0; i < rb; ++i) {
          util::simd::add(c.subspan((i0 + r0 + i) * n + j0, nb),
                          std::span<const float>(tile + i * nb, nb));
        }
      }
    }
  });
}

void matmul_a_bt(std::span<const float> a, std::span<const float> b,
                 std::span<float> c, std::size_t m, std::size_t n,
                 std::size_t k, Store store) {
  // C[m x k] = A * B^T, with A [m x n], B [k x n] row-major. Both operands
  // are traversed along contiguous rows, so each output is a dot product in
  // double with reduce_dot's canonical lane order; simd::dot_tile computes a
  // row block's worth of them at once, bit-identical to one reduce_dot each.
  CGX_DCHECK(a.size() == m * n);
  CGX_DCHECK(b.size() == k * n);
  CGX_DCHECK(c.size() == m * k);
  if (m == 0 || k == 0) return;
  const bool accumulate = store == Store::kAccumulate;
  const std::size_t rows_per_block = std::max<std::size_t>(1, kMB / 8);
  const std::size_t nblocks = (m + rows_per_block - 1) / rows_per_block;
  for_each_row_block(nblocks, [&](std::size_t blk) {
    const std::size_t i0 = blk * rows_per_block;
    const std::size_t mb = std::min(rows_per_block, m - i0);
    util::simd::dot_tile(a.data() + i0 * n, n, b.data(), n,
                         c.data() + i0 * k, k, mb, k, n, accumulate);
  });
}

}  // namespace cgx::tensor
