// Gradient compression operator interface.
//
// A Compressor maps a float vector to a byte payload and back. CGX treats
// compression as a *non-associative* reduction operator (paper §3): summing
// compressed gradients requires decompress -> add -> recompress, which is
// why the operator plugs into the communication engine rather than into a
// stock collective library.
//
// Contract:
//  * compressed_size(n) is an exact upper bound on the payload for n
//    elements; compress() returns the actual size (== the bound for
//    fixed-rate schemes).
//  * decompress(payload, out) reconstructs exactly out.size() elements and
//    must accept its own compress() output verbatim.
//  * Quantizers are *unbiased*: E[decompress(compress(v))] = v, the property
//    QSGD's convergence proof rests on. Deterministic schemes (TopK) are
//    biased and must be run under error feedback to converge (§2.3).
//  * Instances may hold per-layer state (PowerSGD warm-started Q, error
//    feedback residuals) and are NOT thread-safe: the engine creates one
//    instance per (rank, layer).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "util/rng.h"

namespace cgx::core {

class Compressor {
 public:
  virtual ~Compressor() = default;

  virtual std::size_t compressed_size(std::size_t n) const = 0;

  // Returns the number of bytes written into `out`
  // (out.size() >= compressed_size(in.size())).
  virtual std::size_t compress(std::span<const float> in,
                               std::span<std::byte> out, util::Rng& rng) = 0;

  virtual void decompress(std::span<const std::byte> in,
                          std::span<float> out) = 0;

  // Fused fold: dst += decompress(in), bit-identical to decompress() into
  // `scratch` (at least dst.size() floats) followed by tensor::add_inplace.
  // The default does exactly that; an operator that can decode where the
  // sum lands (QSGD, per bucket) overrides it and leaves `scratch` unused.
  virtual void decompress_add(std::span<const std::byte> in,
                              std::span<float> dst, std::span<float> scratch);

  // Fused round trip: compresses `inout` into `out`, then overwrites
  // `inout` with the decoded payload — bit-identical to compress() followed
  // by decompress() of its output, in the payload bytes, the floats and the
  // RNG draws. Aggregators use it to canonicalize their own copy of a chunk
  // they broadcast. Returns the bytes written.
  virtual std::size_t compress_reconstruct(std::span<float> inout,
                                           std::span<std::byte> out,
                                           util::Rng& rng);

  virtual std::string name() const = 0;

  // True if decompress(compress(v)) == v bit-exactly.
  virtual bool lossless() const { return false; }

  // Bytes of grow-only internal scratch currently held (symbol buffers
  // etc.). Used by the zero-allocation-after-warm-up engine test.
  virtual std::size_t scratch_bytes() const { return 0; }
};

// Identity "compressor": full-precision FP32 on the wire. Used for layers
// routed around compression by the layer filters (bias/norm layers, §3).
class NoneCompressor final : public Compressor {
 public:
  std::size_t compressed_size(std::size_t n) const override { return 4 * n; }
  std::size_t compress(std::span<const float> in, std::span<std::byte> out,
                       util::Rng& rng) override;
  void decompress(std::span<const std::byte> in,
                  std::span<float> out) override;
  std::string name() const override { return "none"; }
  bool lossless() const override { return true; }
};

// FP16 wire format — the mixed-precision baseline's gradient encoding.
class Fp16Compressor final : public Compressor {
 public:
  std::size_t compressed_size(std::size_t n) const override { return 2 * n; }
  std::size_t compress(std::span<const float> in, std::span<std::byte> out,
                       util::Rng& rng) override;
  void decompress(std::span<const std::byte> in,
                  std::span<float> out) override;
  std::string name() const override { return "fp16"; }
};

// The paper's synthetic motivating benchmark (§2.1 / Fig. 1): transmit only
// the first n/ratio elements, reconstruct the rest as zero. Useful only to
// measure how step time responds to transmission size.
class FakeCompressor final : public Compressor {
 public:
  explicit FakeCompressor(double ratio);
  std::size_t compressed_size(std::size_t n) const override;
  std::size_t compress(std::span<const float> in, std::span<std::byte> out,
                       util::Rng& rng) override;
  void decompress(std::span<const std::byte> in,
                  std::span<float> out) override;
  std::string name() const override;

 private:
  double ratio_;
};

}  // namespace cgx::core
