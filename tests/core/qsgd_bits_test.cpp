// Pins the exact bytes QSGD writes and the exact floats it decodes. Every
// (bits, bucket, n) case compresses a seeded Gaussian vector, and its
// payload (plus the caller RNG's next draw, which checks that compress
// takes exactly one seed off it) folds into one FNV-1a hash per bit width;
// the decoded floats fold into a second. Three extra vectors carry an
// all-zero bucket, a NaN bucket and an Inf bucket. Bucket 2500 is longer
// than the compressor's 1024-element tile, so one bucket's stream spans
// several uniforms calls. The pins were recorded
// from the two-pass compressor (n-sized uniform and symbol scratch, one
// pack over the whole vector) before compress became the per-group fused
// kernel, so any drift in RNG stream order, window order, quantization or
// packing shows up here. The same pins hold serially and on a 3-thread
// pool, at every CGX_SIMD level. The pool case runs in the tsan-labelled
// binary, so the sanitizer preset races the group-parallel pack.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/qsgd.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace cgx::core {
namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

struct BitsPins {
  unsigned bits;
  std::uint64_t payload;
  std::uint64_t decoded;
};

// Recorded from the two-pass compressor (see the file comment).
constexpr BitsPins kPins[] = {
    {2, 0xcf2df2cca0c9cb6full, 0x0ff5f176c9251f36ull},
    {3, 0xb17016eff3f15a16ull, 0xc5a92fb461b7fc31ull},
    {4, 0xffcbff19ac0000dfull, 0x80fec2d8cde316ecull},
    {5, 0x8f9e67d762f90872ull, 0x3fa43133791cd397ull},
    {8, 0xfc67e54d82b5a031ull, 0x86d057705ade738bull},
};

std::vector<float> gaussian(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.next_gaussian());
  return v;
}

// Folds one compress/decompress round of `input` into the two hashes.
void fold_case(QsgdCompressor& codec, const std::vector<float>& input,
               std::uint64_t seed, std::uint64_t& payload_hash,
               std::uint64_t& decoded_hash) {
  std::vector<std::byte> payload(codec.compressed_size(input.size()));
  util::Rng rng(seed);
  const std::size_t written = codec.compress(input, payload, rng);
  ASSERT_EQ(written, payload.size());
  const std::uint64_t next = rng.next_u64();
  payload_hash = fnv1a(payload_hash, payload.data(), written);
  payload_hash = fnv1a(payload_hash, &next, sizeof next);
  std::vector<float> decoded(input.size(), -3.0f);
  codec.decompress(payload, decoded);
  decoded_hash =
      fnv1a(decoded_hash, decoded.data(), decoded.size() * sizeof(float));
}

// Runs every case for one bit width; `pool` null means serial. A pool is
// bound to the calling thread for the run, and the codecs split any input.
void hash_bits(unsigned bits, const std::shared_ptr<util::ThreadPool>& pool,
               std::uint64_t& payload_hash, std::uint64_t& decoded_hash) {
  payload_hash = kFnvBasis;
  decoded_hash = kFnvBasis;
  util::bind_thread_executor(pool);
  for (std::size_t bucket : {1u, 7u, 100u, 128u, 1000u, 2500u}) {
    QsgdCompressor codec(bits, bucket);
    if (pool != nullptr) codec.set_split_min_numel(0);
    for (std::size_t n : {0u, 1u, 3u, 127u, 128u, 129u, 513u, 4099u}) {
      SCOPED_TRACE(::testing::Message()
                   << "bits=" << bits << " bucket=" << bucket << " n=" << n);
      const std::uint64_t seed = 1000003ull * bits + 1009ull * bucket + n;
      fold_case(codec, gaussian(n, seed), seed ^ 0x5eedull, payload_hash,
                decoded_hash);
    }
  }
  // Degenerate buckets: all zero, one NaN, one Inf, between normal ones.
  QsgdCompressor codec(bits, 128);
  if (pool != nullptr) codec.set_split_min_numel(0);
  const float specials[] = {0.0f, std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity()};
  for (int k = 0; k < 3; ++k) {
    std::vector<float> input = gaussian(5 * 128 + 17, 77 + k);
    if (k == 0) {
      for (std::size_t i = 128; i < 256; ++i) input[i] = 0.0f;
    } else {
      input[128 + 40] = specials[k];
      input[3 * 128 + 5] = -specials[k];
    }
    fold_case(codec, input, 4242 + k, payload_hash, decoded_hash);
  }
  util::bind_thread_executor({});
}

void expect_pins(const std::shared_ptr<util::ThreadPool>& pool) {
  for (const BitsPins& pin : kPins) {
    std::uint64_t payload = 0, decoded = 0;
    hash_bits(pin.bits, pool, payload, decoded);
    EXPECT_EQ(payload, pin.payload)
        << "bits=" << pin.bits << " payload hash 0x" << std::hex << payload;
    EXPECT_EQ(decoded, pin.decoded)
        << "bits=" << pin.bits << " decoded hash 0x" << std::hex << decoded;
  }
}

TEST(QsgdBits, SerialPayloadsMatchPins) { expect_pins(nullptr); }

TEST(QsgdBits, PoolPayloadsMatchPins) {
  expect_pins(std::make_shared<util::ThreadPool>(3));
}

}  // namespace
}  // namespace cgx::core
