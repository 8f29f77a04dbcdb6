#include "core/error_feedback.h"

#include <cmath>

#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/simd.h"

namespace cgx::core {

ErrorFeedback::ErrorFeedback(std::unique_ptr<Compressor> inner, float decay)
    : inner_(std::move(inner)), decay_(decay) {
  CGX_CHECK(inner_ != nullptr);
  CGX_CHECK(decay >= 0.0f && decay <= 1.0f && std::isfinite(decay));
}

std::size_t ErrorFeedback::compressed_size(std::size_t n) const {
  return inner_->compressed_size(n);
}

std::size_t ErrorFeedback::compress(std::span<const float> in,
                                    std::span<std::byte> out,
                                    util::Rng& rng) {
  const std::size_t n = in.size();
  if (residual_.size() != n) residual_.assign(n, 0.0f);
  corrected_.resize(n);
  reconstructed_.resize(n);
  // Fused decay + accumulate: one sweep instead of a scale pass followed by
  // an add pass. decay == 1 takes the same path (beta * r is exact).
  util::simd::add_scaled(in, decay_, residual_, corrected_);

  const std::size_t written = inner_->compress(corrected_, out, rng);

  // residual = corrected - decompress(payload): what this step dropped.
  // reconstructed_ is a grow-only member so the steady state allocates
  // nothing.
  inner_->decompress(out.first(written), reconstructed_);
  util::simd::sub(corrected_, reconstructed_, residual_);
  return written;
}

void ErrorFeedback::decompress(std::span<const std::byte> in,
                               std::span<float> out) {
  inner_->decompress(in, out);
}

void ErrorFeedback::decompress_add(std::span<const std::byte> in,
                                   std::span<float> dst,
                                   std::span<float> scratch) {
  inner_->decompress_add(in, dst, scratch);
}

std::size_t ErrorFeedback::compress_reconstruct(std::span<float> inout,
                                                std::span<std::byte> out,
                                                util::Rng& rng) {
  const std::size_t written = compress(inout, out, rng);
  util::simd::copy_floats(
      std::span<const float>(reconstructed_.data(), inout.size()), inout);
  return written;
}

std::string ErrorFeedback::name() const { return "ef+" + inner_->name(); }

double ErrorFeedback::residual_norm() const {
  return tensor::l2_norm(residual_);
}

}  // namespace cgx::core
