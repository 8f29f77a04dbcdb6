// Deterministic, fast pseudo-random number generation.
//
// All stochastic components of the library (stochastic rounding in QSGD,
// data generators, weight init, k-means++ seeding) draw from this generator
// so that every test and bench is reproducible from a single seed.
//
// The engine is xoshiro256** (Blackman & Vigna), which is much faster than
// std::mt19937_64 and has no measurable bias for our use cases. `split()`
// derives an independent stream per device thread from a parent seed, so
// data-parallel workers produce uncorrelated randomness without sharing
// state.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace cgx::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform on [0, 2^64).
  std::uint64_t next_u64();

  // Uniform on [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  // Uniform on [0, 1).
  double next_double();

  // Uniform on [0, 1) with float precision; used in hot quantization loops.
  float next_float();

  // Fills `out` with uniform [0, 1) floats; what the quantizers' fused
  // kernels use instead of one next_float() call per gradient element. The
  // batch loop keeps the generator state in registers and extracts four
  // 16-bit floats per 64-bit draw (plenty of resolution for stochastic
  // rounding), so it is much faster than — though NOT bit-equivalent to —
  // repeated next_float(). Deterministic in the state: equal states produce
  // equal batches, and the state advances by ceil(out.size() / 4) draws.
  void fill_floats(std::span<float> out);

  // Standard normal via Box-Muller (cached second value).
  double next_gaussian();

  // Derives an independent child stream; deterministic in (parent state, i).
  Rng split(std::uint64_t i) const;

  // The four xoshiro256** state words. Kernels that advance several
  // streams side by side (util::simd::bucket_uniforms) start from these.
  std::array<std::uint64_t, 4> state() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }

 private:
  std::uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace cgx::util
