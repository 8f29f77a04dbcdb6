// Error feedback (Karimireddy et al. 2019; paper §2.3).
//
// Wraps any compressor with a residual memory: each step compresses
// (gradient + residual) and stores what the compression dropped back into
// the residual, to be re-injected next step. This is the standard fix that
// makes biased operators (TopK, 1-bit, PowerSGD) converge, and the "cost of
// maintaining the error buffer" the paper counts against them (§2.4).
//
// The wrapper holds per-instance state, so — like all stateful compressors —
// the engine creates one per (rank, layer).
#pragma once

#include <memory>
#include <vector>

#include "core/compressor.h"
#include "util/arena.h"

namespace cgx::core {

class ErrorFeedback final : public Compressor {
 public:
  // decay scales the residual before re-injection (corrected = gradient +
  // decay * residual, applied in one fused sweep); 1.0 is classic EF.
  explicit ErrorFeedback(std::unique_ptr<Compressor> inner,
                         float decay = 1.0f);

  std::size_t compressed_size(std::size_t n) const override;
  std::size_t compress(std::span<const float> in, std::span<std::byte> out,
                       util::Rng& rng) override;
  void decompress(std::span<const std::byte> in,
                  std::span<float> out) override;
  void decompress_add(std::span<const std::byte> in, std::span<float> dst,
                      std::span<float> scratch) override;
  // compress() already decodes its payload to update the residual; the
  // round trip hands that decode back instead of decoding twice.
  std::size_t compress_reconstruct(std::span<float> inout,
                                   std::span<std::byte> out,
                                   util::Rng& rng) override;
  std::string name() const override;

  // L2 norm of the current residual; tests use it to verify accumulation.
  double residual_norm() const;

  Compressor& inner() { return *inner_; }

 private:
  std::unique_ptr<Compressor> inner_;
  float decay_;
  // Arena-aware (grow-only, NUMA-local when built on a bound rank thread):
  // the residual lives as long as the layer trains, exactly arena lifecycle.
  util::ArenaBuffer<float> residual_;
  util::ArenaBuffer<float> corrected_;      // scratch: gradient + decay * residual
  util::ArenaBuffer<float> reconstructed_;  // scratch: decompress(payload)
};

}  // namespace cgx::core
