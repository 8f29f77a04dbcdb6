// Bucketed stochastic gradient quantization — CGX's default compressor
// (paper §2.3 and §4 "Quantization").
//
// The vector is split into buckets of `bucket_size` elements; each bucket is
// quantized independently against its own norm, which fixes the scaling
// problems of whole-vector QSGD at the cost of one stored float per bucket
// (§4). With b bits per element, one bit encodes the sign and the remaining
// b-1 bits encode a stochastic level on the uniform grid
// {0, 1/s, ..., s/s}, s = 2^(b-1) - 1:
//
//   Q(v_i) = ||v|| * sign(v_i) * q(|v_i| / ||v||, s)
//   q(a, s) = floor(a s)/s + 1/s w.p. (a s - floor(a s)),  else floor(a s)/s
//
// which makes the estimator unbiased: E[Q(v_i)] = v_i. The wire format is
// [bucket norms: fp32 x ceil(n/B)] [packed symbols: b bits x n].
//
// Defaults follow the paper: 4 bits, bucket 128 "always recovers full
// accuracy" (§4); CNNs tolerate bucket 1024 (§6.2).
// Implementation note (performance): compress runs one L1-resident pass
// per group of buckets. Each bucket's stochastic-rounding stream is split
// off one seed taken from the caller's generator (streams.split(b)), so the
// streams are independent, and util::simd::bucket_uniforms advances four of
// them side by side in SIMD lanes. A group's norms, uniforms and symbols
// live in stack tiles, and the symbols pack straight into the payload; a
// group that does not end on a 64-bit word carries its last symbols into
// the next. Large inputs split word-aligned bucket ranges across a
// ThreadPool (enable_threading); the payload is bit-identical for any
// thread count and to Rng::fill_floats drawn bucket by bucket. Decoding
// unpacks tile by tile, and the fused decompress_add / compress_reconstruct
// decode each tile where it lands (compressor.h).
#pragma once

#include <cstddef>

#include "core/compressor.h"

namespace cgx::core {

enum class QsgdNorm { L2, Linf };

class QsgdCompressor final : public Compressor {
 public:
  // bits in [2, 16] (one sign bit + at least one level bit).
  QsgdCompressor(unsigned bits = 4, std::size_t bucket_size = 128,
                 QsgdNorm norm = QsgdNorm::L2);

  std::size_t compressed_size(std::size_t n) const override;
  std::size_t compress(std::span<const float> in, std::span<std::byte> out,
                       util::Rng& rng) override;
  void decompress(std::span<const std::byte> in,
                  std::span<float> out) override;
  void decompress_add(std::span<const std::byte> in, std::span<float> dst,
                      std::span<float> scratch) override;
  std::size_t compress_reconstruct(std::span<float> inout,
                                   std::span<std::byte> out,
                                   util::Rng& rng) override;
  std::string name() const override;

  void enable_threading(util::ThreadPool* pool,
                        std::size_t min_numel) override;

  unsigned bits() const { return bits_; }
  std::size_t bucket_size() const { return bucket_size_; }

  // Upper bound on E||Q(v) - v||^2 / ||v||^2 for a bucket of d elements with
  // s levels (QSGD Lemma 3.1): min(d / s^2, sqrt(d) / s). Used by tests and
  // by the adaptive assigner's analytic error estimates.
  static double variance_bound(std::size_t d, unsigned bits);

 private:
  bool use_pool(std::size_t n, std::size_t buckets) const;
  // compress, and with `reconstruct` non-null also the decode of the
  // payload written there (compress_reconstruct).
  std::size_t encode(std::span<const float> in, std::span<std::byte> out,
                     util::Rng& rng, float* reconstruct);
  // Quantizes and packs buckets [first, last) into the payload; the first
  // bucket's first symbol must start a 64-bit word.
  void encode_buckets(std::span<const float> in, std::span<std::byte> out,
                      const util::Rng& streams, std::size_t first,
                      std::size_t last, float* reconstruct) const;
  // decompress (add == false) or decompress_add (add == true).
  void decode(std::span<const std::byte> in, std::span<float> out, bool add);
  // Decodes symbols [first, last) of the payload into out (or adds them);
  // `first` must start a 64-bit word.
  void decode_symbols(std::span<const std::byte> in, std::span<float> out,
                      std::size_t first, std::size_t last, bool add) const;

  unsigned bits_;
  std::size_t bucket_size_;
  QsgdNorm norm_;
  util::ThreadPool* pool_ = nullptr;
  std::size_t threading_min_numel_ = 0;
};

}  // namespace cgx::core
