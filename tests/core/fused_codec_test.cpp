// The fused codec entry points against the calls they replace. For every
// operator make_compressor builds (plus QSGD at odd widths, long buckets
// and on a thread pool, and an ErrorFeedback wrapper):
//   * decompress_add(p, dst, scratch) == decompress(p, tmp); add_inplace;
//   * compress_reconstruct(x, p, rng) == compress(x, p, rng) and then
//     decompress(p, x) — the same payload bytes, floats and RNG draws.
// Two instances run the two forms side by side for three steps, so
// per-instance state (error-feedback residuals, DGC velocities, PowerSGD
// warm starts) must evolve identically too, through all-zero and (for
// QSGD) non-finite buckets. Checked at every SIMD level.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/compression_config.h"
#include "core/compressor.h"
#include "core/qsgd.h"
#include "simd_levels.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/threadpool.h"

namespace cgx::core {
namespace {

constexpr std::size_t kRows = 48;
constexpr std::size_t kNumel = kRows * 97;  // ragged against every bucket

struct Case {
  std::string label;
  LayerCompression cfg;
  bool pool = false;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  const auto add = [&](std::string label, auto&& edit, bool pool = false) {
    LayerCompression cfg;
    edit(cfg);
    out.push_back({std::move(label), cfg, pool});
  };
  add("none", [](LayerCompression& c) { c.method = Method::None; });
  add("fp16", [](LayerCompression& c) { c.method = Method::Fp16; });
  add("qsgd4", [](LayerCompression& c) { c.method = Method::Qsgd; });
  add("qsgd3_b100", [](LayerCompression& c) {
    c.bits = 3;
    c.bucket_size = 100;
  });
  add("qsgd8_b2500", [](LayerCompression& c) {
    c.bits = 8;
    c.bucket_size = 2500;
  });
  add("qsgd5_b7_pool", [](LayerCompression& c) {
    c.bits = 5;
    c.bucket_size = 7;
  }, /*pool=*/true);
  add("nuq", [](LayerCompression& c) { c.method = Method::Nuq; });
  add("topk", [](LayerCompression& c) {
    c.method = Method::TopK;
    c.topk_ratio = 0.05;
  });
  add("dgc", [](LayerCompression& c) {
    c.method = Method::TopK;
    c.topk_ratio = 0.05;
    c.dgc = true;
  });
  add("powersgd", [](LayerCompression& c) {
    c.method = Method::PowerSgd;
    c.rank = 2;
  });
  add("terngrad", [](LayerCompression& c) { c.method = Method::TernGrad; });
  add("onebit", [](LayerCompression& c) { c.method = Method::OneBit; });
  add("fake", [](LayerCompression& c) {
    c.method = Method::Fake;
    c.fake_ratio = 4.0;
  });
  add("ef_qsgd3", [](LayerCompression& c) {
    c.bits = 3;
    c.error_feedback = true;
  });
  add("ef_topk", [](LayerCompression& c) {
    c.method = Method::TopK;
    c.topk_ratio = 0.05;
    c.error_feedback = true;
  });
  return out;
}

std::vector<float> gaussian(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.next_gaussian());
  return v;
}

void expect_bits_equal(const std::vector<float>& want,
                       const std::vector<float>& got, const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(want[i]),
              std::bit_cast<std::uint32_t>(got[i]))
        << what << " diverges at i=" << i;
  }
}

void check_case(const Case& c) {
  // `fused` runs the fused entry points; `plain` the calls they replace.
  const std::unique_ptr<Compressor> fused = make_compressor(c.cfg, kRows);
  const std::unique_ptr<Compressor> plain = make_compressor(c.cfg, kRows);
  if (c.pool) dynamic_cast<QsgdCompressor&>(*fused).set_split_min_numel(0);
  const std::size_t cap = fused->compressed_size(kNumel);
  for (int step = 0; step < 3; ++step) {
    SCOPED_TRACE(::testing::Message() << "step=" << step);
    std::vector<float> x = gaussian(kNumel, 31 + step);
    // Degenerate buckets: an all-zero run, and for QSGD a non-finite one.
    if (step == 1) std::fill(x.begin() + 128, x.begin() + 384, 0.0f);
    if (step == 2 && c.cfg.method == Method::Qsgd && !c.cfg.error_feedback) {
      x[700] = std::numeric_limits<float>::infinity();
      x[3000] = std::numeric_limits<float>::quiet_NaN();
    }

    std::vector<std::byte> fused_bytes(cap), plain_bytes(cap);
    std::vector<float> roundtrip = x;
    util::Rng fused_rng(500 + step), plain_rng(500 + step);
    const std::size_t fused_written =
        fused->compress_reconstruct(roundtrip, fused_bytes, fused_rng);
    const std::size_t plain_written =
        plain->compress(x, plain_bytes, plain_rng);
    ASSERT_EQ(fused_written, plain_written);
    fused_bytes.resize(fused_written);
    plain_bytes.resize(plain_written);
    EXPECT_EQ(fused_bytes, plain_bytes) << "compress_reconstruct payload";
    EXPECT_EQ(fused_rng.next_u64(), plain_rng.next_u64()) << "rng draws";
    std::vector<float> decoded(kNumel, -5.0f);
    plain->decompress(plain_bytes, decoded);
    expect_bits_equal(decoded, roundtrip, "compress_reconstruct floats");

    const std::vector<float> base = gaussian(kNumel, 77 + step);
    std::vector<float> fused_sum = base;
    std::vector<float> scratch(kNumel, 9.0f);
    fused->decompress_add(fused_bytes, fused_sum, scratch);
    std::vector<float> plain_sum = base;
    std::vector<float> tmp(kNumel);
    plain->decompress(plain_bytes, tmp);
    tensor::add_inplace(plain_sum, tmp);
    expect_bits_equal(plain_sum, fused_sum, "decompress_add");
  }
}

TEST(FusedCodec, MatchesUnfusedCallsAtEveryLevel) {
  const auto pool = std::make_shared<util::ThreadPool>(3);
  for (util::simd::Level level : test::simd_levels()) {
    test::ScopedLevel pin(level);
    for (const Case& c : cases()) {
      SCOPED_TRACE(::testing::Message()
                   << c.label << " level=" << util::simd::level_name(level));
      // A pool case splits `fused` over the bound pool; `plain` keeps the
      // default split threshold, above kNumel, and stays serial.
      util::bind_thread_executor(c.pool ? pool : nullptr);
      check_case(c);
    }
  }
  util::bind_thread_executor({});
}

}  // namespace
}  // namespace cgx::core
