// Bit-reproducibility of the parallel bucket compression path.
//
// The contract (qsgd.h): a compress() call draws exactly one u64 from the
// caller's RNG to seed per-bucket stochastic-rounding streams, so the
// payload is bit-identical whether buckets are quantized serially or across
// a thread pool of any size — and the caller's RNG advances identically.
// A pool splits a codec's calls when it is bound to the calling thread.
// This binary carries the `tsan` ctest label (see tests/CMakeLists.txt) so
// the sanitizer preset exercises it under ThreadSanitizer.
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include "core/qsgd.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace cgx::core {
namespace {

std::vector<float> gaussian_data(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> data(n);
  for (auto& v : data) v = static_cast<float>(rng.next_gaussian());
  return data;
}

TEST(ThreadedCompression, PayloadBitIdenticalToSerial) {
  constexpr std::size_t kNumel = 70000;  // > threshold, ragged last bucket
  constexpr std::size_t kBucket = 512;
  const auto data = gaussian_data(kNumel, 42);

  for (unsigned bits : {2u, 3u, 4u, 8u}) {
    QsgdCompressor serial(bits, kBucket);
    // The reference never splits, even while a pool is bound.
    serial.set_split_min_numel(std::numeric_limits<std::size_t>::max());
    std::vector<std::byte> serial_payload(serial.compressed_size(kNumel));
    util::Rng serial_rng(777);
    const std::size_t serial_written =
        serial.compress(data, serial_payload, serial_rng);
    const std::uint64_t after_serial = serial_rng.next_u64();

    for (std::size_t threads : {2ul, 3ul, 8ul}) {
      const auto pool = std::make_shared<util::ThreadPool>(threads);
      util::bind_thread_executor(pool);
      QsgdCompressor threaded(bits, kBucket);
      threaded.set_split_min_numel(1);
      std::vector<std::byte> payload(threaded.compressed_size(kNumel));
      util::Rng rng(777);
      const std::size_t written = threaded.compress(data, payload, rng);

      ASSERT_EQ(written, serial_written) << "bits=" << bits;
      EXPECT_EQ(payload, serial_payload)
          << "bits=" << bits << " threads=" << threads;
      // Caller RNG must advance identically regardless of threading.
      EXPECT_EQ(rng.next_u64(), after_serial);

      // Threaded decompress of a serial payload reproduces the serial
      // decompression bit-for-bit too.
      std::vector<float> serial_out(kNumel), threaded_out(kNumel);
      serial.decompress(serial_payload, serial_out);
      threaded.decompress(serial_payload, threaded_out);
      EXPECT_EQ(serial_out, threaded_out)
          << "bits=" << bits << " threads=" << threads;
    }
  }
}

TEST(ThreadedCompression, ThresholdGatesPoolUse) {
  // Below the min-numel threshold the pool must not be touched; results are
  // still identical (same RNG discipline either way).
  constexpr std::size_t kNumel = 4096;
  const auto data = gaussian_data(kNumel, 7);
  const auto pool = std::make_shared<util::ThreadPool>(4);
  util::bind_thread_executor(pool);

  QsgdCompressor gated(4, 512);
  gated.set_split_min_numel(1 << 20);
  QsgdCompressor serial(4, 512);

  std::vector<std::byte> a(gated.compressed_size(kNumel));
  std::vector<std::byte> b(serial.compressed_size(kNumel));
  util::Rng ra(9), rb(9);
  gated.compress(data, a, ra);
  serial.compress(data, b, rb);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ra.next_u64(), rb.next_u64());
}

// On-grid inputs (rounding probability exactly 0 for every element) must
// not change how much caller entropy a compress call consumes: the RNG
// advances by exactly one u64 per call for any input, so lockstep replicas
// that compress different tensors stay in lockstep.
TEST(ThreadedCompression, RngAdvanceIndependentOfContent) {
  constexpr std::size_t kNumel = 2048;
  constexpr unsigned kBits = 4;
  // Max-norm: all-equal values sit exactly on the top quantization level,
  // so p == 0 for every element.
  QsgdCompressor compressor(kBits, 256, QsgdNorm::Linf);
  std::vector<std::byte> payload(compressor.compressed_size(kNumel));

  const std::vector<float> on_grid(kNumel, 3.0f);
  const std::vector<float> zeros(kNumel, 0.0f);  // degenerate bucket norm
  const auto noise = gaussian_data(kNumel, 21);

  for (const auto* input : {&on_grid, &zeros, &noise}) {
    util::Rng rng(1234);
    compressor.compress(*input, payload, rng);
    util::Rng reference(1234);
    reference.next_u64();  // the single stream-seed draw
    EXPECT_EQ(rng.next_u64(), reference.next_u64());
  }

  // And determinism: same seed, same input => same payload.
  std::vector<std::byte> again(payload.size());
  util::Rng r1(55), r2(55);
  compressor.compress(on_grid, payload, r1);
  compressor.compress(on_grid, again, r2);
  EXPECT_EQ(payload, again);

  // On-grid values must round-trip exactly (no stochastic perturbation).
  std::vector<float> out(kNumel);
  compressor.decompress(payload, out);
  for (float v : out) ASSERT_EQ(v, 3.0f);
}

}  // namespace
}  // namespace cgx::core
