#include "core/compressor.h"

#include <algorithm>
#include <cstring>

#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/half.h"

namespace cgx::core {

void Compressor::decompress_add(std::span<const std::byte> in,
                                std::span<float> dst,
                                std::span<float> scratch) {
  const std::span<float> decoded = scratch.first(dst.size());
  decompress(in, decoded);
  tensor::add_inplace(dst, decoded);
}

std::size_t Compressor::compress_reconstruct(std::span<float> inout,
                                             std::span<std::byte> out,
                                             util::Rng& rng) {
  const std::size_t written = compress(inout, out, rng);
  decompress(out.first(written), inout);
  return written;
}

std::size_t NoneCompressor::compress(std::span<const float> in,
                                     std::span<std::byte> out,
                                     util::Rng& rng) {
  (void)rng;
  const std::size_t bytes = in.size() * 4;
  CGX_CHECK_LE(bytes, out.size());
  if (bytes) std::memcpy(out.data(), in.data(), bytes);
  return bytes;
}

void NoneCompressor::decompress(std::span<const std::byte> in,
                                std::span<float> out) {
  CGX_CHECK_EQ(in.size(), out.size() * 4);
  if (!out.empty()) std::memcpy(out.data(), in.data(), in.size());
}

std::size_t Fp16Compressor::compress(std::span<const float> in,
                                     std::span<std::byte> out,
                                     util::Rng& rng) {
  (void)rng;
  const std::size_t bytes = in.size() * 2;
  CGX_CHECK_LE(bytes, out.size());
  auto* halves = reinterpret_cast<std::uint16_t*>(out.data());
  util::floats_to_halves(in, std::span<std::uint16_t>(halves, in.size()));
  return bytes;
}

void Fp16Compressor::decompress(std::span<const std::byte> in,
                                std::span<float> out) {
  CGX_CHECK_EQ(in.size(), out.size() * 2);
  const auto* halves = reinterpret_cast<const std::uint16_t*>(in.data());
  util::halves_to_floats(std::span<const std::uint16_t>(halves, out.size()),
                         out);
}

FakeCompressor::FakeCompressor(double ratio) : ratio_(ratio) {
  CGX_CHECK_GE(ratio, 1.0);
}

std::size_t FakeCompressor::compressed_size(std::size_t n) const {
  if (n == 0) return 0;
  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(n) / ratio_));
  return 4 * std::min(k, n);
}

std::size_t FakeCompressor::compress(std::span<const float> in,
                                     std::span<std::byte> out,
                                     util::Rng& rng) {
  (void)rng;
  const std::size_t bytes = compressed_size(in.size());
  CGX_CHECK_LE(bytes, out.size());
  if (bytes) std::memcpy(out.data(), in.data(), bytes);
  return bytes;
}

void FakeCompressor::decompress(std::span<const std::byte> in,
                                std::span<float> out) {
  const std::size_t k = in.size() / 4;
  CGX_CHECK_LE(k, out.size());
  if (k) std::memcpy(out.data(), in.data(), in.size());
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(k), out.end(), 0.0f);
}

std::string FakeCompressor::name() const {
  return "fake(x" + std::to_string(ratio_) + ")";
}

}  // namespace cgx::core
