// Thread-count determinism for the tiled GEMM drivers and the layers built
// on them: results must be bit-identical with no pool and with pools of
// 1, 2, and 7 workers. The tiling fixes each output element's
// k-accumulation order and row blocks are disjoint, so parallelism changes
// only *who* computes a block, never the arithmetic — this suite is the
// enforcement of that contract (and is labeled tsan, since a data race in
// the row-block partitioning is exactly what would break it).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "nn/conv.h"
#include "simd_levels.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/threadpool.h"

namespace cgx::tensor {
namespace {

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.next_gaussian());
  return v;
}

void expect_bits_equal(std::span<const float> expected,
                       std::span<const float> got, const char* what) {
  ASSERT_EQ(expected.size(), got.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(expected[i]),
              std::bit_cast<std::uint32_t>(got[i]))
        << what << " diverges at i=" << i;
  }
}

// Binds a pool of `threads` workers (0: none) to this thread as its
// executor for the scope, and unbinds on exit.
class ScopedPool {
 public:
  explicit ScopedPool(std::size_t threads) {
    if (threads > 0) pool_ = std::make_shared<util::ThreadPool>(threads);
    util::bind_thread_executor(pool_);
  }
  ~ScopedPool() { util::bind_thread_executor({}); }

 private:
  std::shared_ptr<util::ThreadPool> pool_;
};

constexpr std::size_t kThreadCounts[] = {1, 2, 7};

struct Gemm3 {
  std::size_t m, k, n;
};

TEST(GemmDeterminism, MatmulBitIdenticalAcrossThreadCounts) {
  // 3 row blocks plus a ragged one (kMB = 64), ragged k and n panels; the
  // rest cross the tiles' column edges (n % 32 and n % 16) and every row
  // remainder m % 4.
  const Gemm3 shapes[] = {{201, 93, 37}, {67, 30, 63}, {6, 7, 17},
                          {130, 65, 94}, {3, 129, 31}};
  for (const Gemm3& s : shapes) {
    SCOPED_TRACE(::testing::Message()
                 << "m=" << s.m << " k=" << s.k << " n=" << s.n);
    const auto a = random_floats(s.m * s.k, 1 + s.m);
    const auto b = random_floats(s.k * s.n, 2 + s.n);

    std::vector<float> ref(s.m * s.n);
    {
      ScopedPool no_pool(0);
      matmul(a, b, ref, s.m, s.k, s.n);
    }
    for (std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      ScopedPool use(threads);
      std::vector<float> c(s.m * s.n);
      matmul(a, b, c, s.m, s.k, s.n);
      expect_bits_equal(ref, c, "matmul");
    }
  }
}

TEST(GemmDeterminism, MatmulVariantsBitIdenticalAcrossThreadCounts) {
  // A^T B and A B^T, both onto [m, n] outputs: ragged row blocks, n % 32
  // columns, and for A B^T dot lengths k % 8 and k < 8 and n % 6 B rows.
  const Gemm3 shapes[] = {{130, 65, 41}, {9, 13, 5}, {22, 6, 71},
                          {5, 23, 120},  {7, 4, 8}};
  for (const Gemm3& s : shapes) {
    SCOPED_TRACE(::testing::Message()
                 << "m=" << s.m << " k=" << s.k << " n=" << s.n);
    const std::size_t m = s.m, k = s.k, n = s.n;
    const auto a = random_floats(m * k, 4 + m);    // [m, k]
    const auto at = random_floats(k * m, 5 + m);   // [k, m] for A^T B
    const auto b = random_floats(k * n, 6 + n);    // [k, n]
    const auto bt = random_floats(n * k, 7 + n);   // B^T operand: B is [k, n]

    std::vector<float> ref_atb(m * n), ref_abt(m * n);
    {
      ScopedPool no_pool(0);
      matmul_at_b(at, b, ref_atb, k, m, n);
      matmul_a_bt(a, bt, ref_abt, m, k, n);
    }
    for (std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      ScopedPool use(threads);
      std::vector<float> c_atb(m * n), c_abt(m * n);
      matmul_at_b(at, b, c_atb, k, m, n);
      matmul_a_bt(a, bt, c_abt, m, k, n);
      expect_bits_equal(ref_atb, c_atb, "matmul_at_b");
      expect_bits_equal(ref_abt, c_abt, "matmul_a_bt");
    }
  }
}

TEST(GemmDeterminism, ConvForwardBackwardBitIdenticalAcrossThreadCounts) {
  const std::size_t b = 2, c = 3, h = 9, w = 9, oc = 5, kk = 3;
  Tensor x(Shape{b, c, h, w});
  {
    util::Rng rng(8);
    for (auto& v : x.data()) v = static_cast<float>(rng.next_gaussian());
  }
  Tensor go;  // grad w.r.t. conv output, filled after the first forward

  // Reference run: no pool.
  std::vector<float> out_ref, gin_ref, gw_ref;
  {
    ScopedPool no_pool(0);
    util::Rng rng(9);
    nn::Conv2d conv(c, oc, kk, 1, 1, rng);
    const Tensor& out = conv.forward(x, true);
    out_ref.assign(out.data().begin(), out.data().end());
    go = Tensor(out.shape());
    {
      util::Rng grng(10);
      for (auto& v : go.data()) v = static_cast<float>(grng.next_gaussian());
    }
    const Tensor& gin = conv.backward(go);
    gin_ref.assign(gin.data().begin(), gin.data().end());
    std::vector<nn::Param*> params;
    conv.collect_params("", params);
    gw_ref.assign(params[0]->grad.data().begin(),
                  params[0]->grad.data().end());
  }

  for (std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ScopedPool use(threads);
    util::Rng rng(9);  // same seed -> same weights
    nn::Conv2d conv(c, oc, kk, 1, 1, rng);
    const Tensor& out = conv.forward(x, true);
    expect_bits_equal(out_ref, out.data(), "conv forward");
    const Tensor& gin = conv.backward(go);
    expect_bits_equal(gin_ref, gin.data(), "conv grad_in");
    std::vector<nn::Param*> params;
    conv.collect_params("", params);
    expect_bits_equal(gw_ref, params[0]->grad.data(), "conv grad_w");
  }
}

// ---- Accumulate forms: C += product, with no scratch ----
//
// Store::kAccumulate must equal "overwrite into scratch, then add_inplace"
// byte for byte, at every SIMD level and with no pool, 1 and 3 workers.

// A destination with prior values: random, plus -0, a NaN and ±Inf spread
// over the rows and tile columns.
std::vector<float> prior_dst(std::size_t n, std::uint64_t seed) {
  std::vector<float> d = random_floats(n, seed);
  const float specials[] = {-0.0f, std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), 0.0f};
  for (std::size_t i = 0; i < n; i += 7) d[i] = specials[(i / 7) % 5];
  return d;
}

using test::ScopedLevel;

// Runs check() with no pool and with pools of 1 and 3 workers, at every
// reachable SIMD level.
template <typename Fn>
void for_each_level_and_pool(const Fn& check) {
  for (util::simd::Level level : test::simd_levels()) {
    ScopedLevel lvl(level);
    for (std::size_t threads : {0u, 1u, 3u}) {
      SCOPED_TRACE(::testing::Message()
                   << "level=" << util::simd::level_name(level)
                   << " threads=" << threads);
      ScopedPool use(threads);
      check();
    }
  }
}

TEST(GemmAccumulate, AtBEqualsScratchPlusAdd) {
  // C[m x n] += A^T B with A [k x m]: m crosses kMB = 64 and the 4-row
  // micro-kernel (m % 4 of 0..3), k crosses kKB = 128 (k > 128), n crosses
  // kNB = 256 and the 32/16/8-column kernels (n % 32 from 1 to 31).
  const Gemm3 shapes[] = {{131, 261, 267}, {64, 128, 256}, {65, 129, 257},
                          {3, 1, 5},       {7, 8, 1030},   {70, 300, 13},
                          {5, 0, 9},       {1, 17, 16},    {6, 11, 31},
                          {9, 7, 47},      {4, 20, 63},    {2, 3, 94},
                          {11, 5, 281},    {15, 9, 24}};
  for (const Gemm3& s : shapes) {
    SCOPED_TRACE(::testing::Message()
                 << "m=" << s.m << " k=" << s.k << " n=" << s.n);
    const auto a = random_floats(s.k * s.m, 21 + s.m);
    const auto b = random_floats(s.k * s.n, 22 + s.n);
    const auto prior = prior_dst(s.m * s.n, 23 + s.k);
    std::vector<float> ref = prior, scratch(s.m * s.n);
    {
      ScopedLevel lvl(util::simd::Level::kScalar);
      ScopedPool no_pool(0);
      matmul_at_b(a, b, scratch, s.k, s.m, s.n);
      add_inplace(ref, scratch);
    }
    for_each_level_and_pool([&] {
      std::vector<float> via_scratch = prior, c = prior;
      matmul_at_b(a, b, scratch, s.k, s.m, s.n);
      add_inplace(via_scratch, scratch);
      expect_bits_equal(ref, via_scratch, "matmul_at_b + add_inplace");
      matmul_at_b(a, b, c, s.k, s.m, s.n, Store::kAccumulate);
      expect_bits_equal(ref, c, "matmul_at_b kAccumulate");
    });
  }
}

TEST(GemmAccumulate, ABtEqualsScratchPlusAdd) {
  // C[m x k] += A B^T with dot length n: m crosses the 8-row driver block
  // and the 4-/2-row tiles, n crosses the 8-lane body (n % 8 of 0..7,
  // n < 8, n = 0), k (B rows) is ragged against the 6-row block (k % 6 of
  // 0..5).
  const Gemm3 shapes[] = {{13, 19, 135}, {8, 64, 144}, {9, 3, 7},
                          {1, 1, 1},     {6, 5, 0},    {17, 30, 1024},
                          {4, 6, 8},     {7, 8, 9},    {5, 14, 5},
                          {12, 11, 23},  {3, 2, 62},   {10, 13, 3}};
  for (const Gemm3& s : shapes) {
    SCOPED_TRACE(::testing::Message()
                 << "m=" << s.m << " k=" << s.k << " n=" << s.n);
    const auto a = random_floats(s.m * s.n, 31 + s.m);
    const auto b = random_floats(s.k * s.n, 32 + s.k);
    const auto prior = prior_dst(s.m * s.k, 33 + s.n);
    std::vector<float> ref = prior, scratch(s.m * s.k);
    {
      ScopedLevel lvl(util::simd::Level::kScalar);
      ScopedPool no_pool(0);
      matmul_a_bt(a, b, scratch, s.m, s.n, s.k);
      add_inplace(ref, scratch);
    }
    for_each_level_and_pool([&] {
      std::vector<float> via_scratch = prior, c = prior;
      matmul_a_bt(a, b, scratch, s.m, s.n, s.k);
      add_inplace(via_scratch, scratch);
      expect_bits_equal(ref, via_scratch, "matmul_a_bt + add_inplace");
      matmul_a_bt(a, b, c, s.m, s.n, s.k, Store::kAccumulate);
      expect_bits_equal(ref, c, "matmul_a_bt kAccumulate");
    });
  }
}

}  // namespace
}  // namespace cgx::tensor
