#include "core/qsgd.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "tensor/tensor_ops.h"
#include "util/bitio.h"
#include "util/check.h"
#include "util/simd.h"
#include "util/threadpool.h"

namespace cgx::core {
namespace {

// Buckets whose stochastic-rounding streams advance side by side
// (util::simd::bucket_uniforms lanes).
constexpr std::size_t kLanes = 4;
// Elements per lane per uniforms call: a lane batch's uniforms (16 KiB)
// and a group's symbols (kGroupSymbols, 16 KiB) stay in L1.
constexpr std::size_t kTile = 1024;
constexpr std::size_t kGroupSymbols = kLanes * kTile;
// The longest word cycle (odd bit widths): 64 symbols fill `bits` words.
// Every cycle divides it, so offsets in multiples of it start a word.
constexpr std::size_t kMaxCycle = 64;

// Decode scale of a bucket; a non-finite norm reconstructs as zero.
float dequant_scale(float norm, std::uint32_t s) {
  const float finite = std::isfinite(norm) ? norm : 0.0f;
  return finite / static_cast<float>(s);
}

bool quantizable(float norm) { return norm != 0.0f && std::isfinite(norm); }

}  // namespace

QsgdCompressor::QsgdCompressor(unsigned bits, std::size_t bucket_size,
                               QsgdNorm norm)
    : bits_(bits), bucket_size_(bucket_size), norm_(norm) {
  CGX_CHECK(bits >= 2 && bits <= 16) << "qsgd bits out of range";
  CGX_CHECK_GT(bucket_size, 0u);
}

std::size_t QsgdCompressor::compressed_size(std::size_t n) const {
  if (n == 0) return 0;
  const std::size_t buckets = (n + bucket_size_ - 1) / bucket_size_;
  return 4 * buckets + util::packed_size_bytes(n, bits_);
}

std::shared_ptr<util::ThreadPool> QsgdCompressor::split_executor(
    std::size_t n, std::size_t buckets) const {
  if (buckets < 2 || n < split_min_numel_) return nullptr;
  std::shared_ptr<util::ThreadPool> executor = util::thread_executor();
  if (executor != nullptr && executor->size() < 2) executor.reset();
  return executor;
}

std::size_t QsgdCompressor::compress(std::span<const float> in,
                                     std::span<std::byte> out,
                                     util::Rng& rng) {
  return encode(in, out, rng, nullptr);
}

std::size_t QsgdCompressor::compress_reconstruct(std::span<float> inout,
                                                 std::span<std::byte> out,
                                                 util::Rng& rng) {
  return encode(inout, out, rng, inout.data());
}

std::size_t QsgdCompressor::encode(std::span<const float> in,
                                   std::span<std::byte> out, util::Rng& rng,
                                   float* reconstruct) {
  const std::size_t n = in.size();
  if (n == 0) return 0;
  const std::size_t total = compressed_size(n);
  CGX_CHECK_LE(total, out.size());
  const std::size_t buckets = (n + bucket_size_ - 1) / bucket_size_;
  const std::span<std::byte> body = out.first(total);

  // One draw off the caller's stream seeds every per-bucket stream, so the
  // caller's RNG advances identically — and the payload is bit-identical —
  // whether buckets run serially or across the executor.
  const util::Rng streams(rng.next_u64());

  if (const auto executor = split_executor(n, buckets)) {
    // Ranges of whole buckets that start on a payload word: workers write
    // disjoint words, and each range is the serial kernel's own loop.
    const std::size_t cycle = util::symbols_per_word_cycle(bits_);
    const std::size_t align = cycle / std::gcd(cycle, bucket_size_);
    const std::size_t per =
        ((buckets + executor->size() - 1) / executor->size() + align - 1) /
        align * align;
    const std::size_t chunks = (buckets + per - 1) / per;
    executor->parallel_for(chunks, [&](std::size_t c) {
      const std::size_t first = c * per;
      encode_buckets(in, body, streams, first,
                     std::min(buckets, first + per), reconstruct);
    });
  } else {
    encode_buckets(in, body, streams, 0, buckets, reconstruct);
  }
  return total;
}

void QsgdCompressor::encode_buckets(std::span<const float> in,
                                    std::span<std::byte> out,
                                    const util::Rng& streams,
                                    std::size_t first, std::size_t last,
                                    float* reconstruct) const {
  const std::size_t n = in.size();
  const std::size_t bucket = bucket_size_;
  const std::size_t buckets = (n + bucket - 1) / bucket;
  auto* norms = reinterpret_cast<float*>(out.data());
  const std::span<std::byte> payload = out.subspan(4 * buckets);
  const std::uint32_t s = (1u << (bits_ - 1)) - 1;  // magnitude levels
  const std::uint32_t sign_bit = 1u << (bits_ - 1);
  const unsigned sign_shift = 32 - bits_;
  const std::size_t cycle = util::symbols_per_word_cycle(bits_);

  alignas(64) std::uint32_t sym[kGroupSymbols + kMaxCycle];
  alignas(64) float u[kGroupSymbols];
  std::size_t pending = 0;             // symbols in sym not yet packed
  std::size_t packed = first * bucket;  // stream position of sym[0]

  // Packs the word-aligned prefix of the pending symbols (all of them at
  // the end of the range) and carries the partial word's symbols forward.
  const auto flush = [&](bool all) {
    const std::size_t count = all ? pending : pending / cycle * cycle;
    if (count == 0) return;
    util::pack_symbols_at({sym, count}, packed, bits_, payload);
    packed += count;
    pending -= count;
    std::memmove(sym, sym + count, pending * sizeof(std::uint32_t));
  };

  const auto bucket_norm = [&](std::size_t b, std::size_t len) {
    const std::span<const float> v = in.subspan(b * bucket, len);
    return norm_ == QsgdNorm::L2 ? static_cast<float>(tensor::l2_norm(v))
                                 : tensor::linf_norm(v);
  };

  // Symbols for `len` elements of bucket b at offset `at`, quantized with
  // uniforms `rand` — or zero symbols for an all-zero or non-finite bucket,
  // which keeps the payload self-describing — then decoded in place when
  // reconstructing. Branchless stochastic rounding, floor(scaled + u): see
  // util/simd.h. Every SIMD level is bit-identical to the scalar kernel.
  const auto quantize = [&](std::size_t b, std::size_t at, std::size_t len,
                            const float* rand, std::uint32_t* dst) {
    const float norm = norms[b];
    if (quantizable(norm)) {
      util::simd::qsgd_quantize(in.data() + b * bucket + at, rand, len,
                                1.0f / norm, s, sign_bit, dst);
    } else {
      std::memset(dst, 0, len * sizeof(std::uint32_t));
    }
    if (reconstruct != nullptr) {
      util::simd::qsgd_dequantize(dst, len, dequant_scale(norm, s), sign_bit,
                                  sign_shift, reconstruct + b * bucket + at);
    }
  };

  // Buckets [q, q_end), all `len` long, one lane each.
  const auto lane_batch = [&](std::size_t q, std::size_t q_end,
                              std::size_t len) {
    std::uint64_t states[kLanes][4];
    std::size_t lanes = 0;
    for (std::size_t b = q; b < q_end; ++b) {
      norms[b] = bucket_norm(b, len);
      if (!quantizable(norms[b])) continue;
      const auto state = streams.split(b).state();
      std::copy(state.begin(), state.end(), states[lanes++]);
    }
    util::simd::bucket_uniforms(states, lanes, len, u);
    std::size_t lane = 0;
    for (std::size_t b = q; b < q_end; ++b) {
      quantize(b, 0, len, u + lane * len, sym + pending);
      if (quantizable(norms[b])) ++lane;
      pending += len;
    }
  };

  std::size_t b = first;
  while (b < last) {
    const std::size_t len = std::min(bucket, n - b * bucket);
    if (len > kTile) {
      // A bucket longer than a tile runs alone, tile by tile; its stream
      // carries across tiles (every tile but the last is a multiple of 4
      // long, so the windows line up with one fill of the whole bucket).
      norms[b] = bucket_norm(b, len);
      std::uint64_t state[1][4];
      const std::size_t lanes = quantizable(norms[b]) ? 1 : 0;
      const auto st = streams.split(b).state();
      std::copy(st.begin(), st.end(), state[0]);
      for (std::size_t at = 0; at < len; at += kTile) {
        const std::size_t tile = std::min(kTile, len - at);
        util::simd::bucket_uniforms(state, lanes, tile, u);
        quantize(b, at, tile, u, sym + pending);
        pending += tile;
        flush(false);
      }
      ++b;
      continue;
    }
    // A group of whole buckets filling at most kGroupSymbols, in lane
    // batches of equal length (only the vector's last bucket is short).
    const std::size_t group_end =
        std::min(last, b + std::max<std::size_t>(1, kGroupSymbols / bucket));
    for (std::size_t q = b; q < group_end; q += kLanes) {
      std::size_t q_end = std::min(group_end, q + kLanes);
      const bool short_tail =
          q_end == buckets && n % bucket != 0 && q_end - q > 1;
      if (short_tail) --q_end;
      lane_batch(q, q_end, std::min(bucket, n - q * bucket));
      if (short_tail) lane_batch(q_end, q_end + 1, n - q_end * bucket);
    }
    flush(false);
    b = group_end;
  }
  flush(true);
}

void QsgdCompressor::decompress(std::span<const std::byte> in,
                                std::span<float> out) {
  decode(in, out, /*add=*/false);
}

void QsgdCompressor::decompress_add(std::span<const std::byte> in,
                                    std::span<float> dst,
                                    std::span<float> scratch) {
  (void)scratch;  // each tile decodes into L1 and adds from there
  decode(in, dst, /*add=*/true);
}

void QsgdCompressor::decode(std::span<const std::byte> in,
                            std::span<float> out, bool add) {
  const std::size_t n = out.size();
  if (n == 0) return;
  CGX_CHECK_EQ(in.size(), compressed_size(n));
  const std::size_t buckets = (n + bucket_size_ - 1) / bucket_size_;
  if (const auto executor = split_executor(n, buckets)) {
    // Symbol ranges starting on a payload word; workers write disjoint
    // slices of out.
    const std::size_t per =
        ((n + executor->size() - 1) / executor->size() + kMaxCycle - 1) /
        kMaxCycle * kMaxCycle;
    const std::size_t chunks = (n + per - 1) / per;
    executor->parallel_for(chunks, [&](std::size_t c) {
      const std::size_t first = c * per;
      decode_symbols(in, out, first, std::min(n, first + per), add);
    });
  } else {
    decode_symbols(in, out, 0, n, add);
  }
}

void QsgdCompressor::decode_symbols(std::span<const std::byte> in,
                                    std::span<float> out, std::size_t first,
                                    std::size_t last, bool add) const {
  const std::size_t bucket = bucket_size_;
  const std::size_t buckets = (out.size() + bucket - 1) / bucket;
  const auto* norms = reinterpret_cast<const float*>(in.data());
  const std::span<const std::byte> payload = in.subspan(4 * buckets);
  const std::uint32_t s = (1u << (bits_ - 1)) - 1;
  const std::uint32_t sign_bit = 1u << (bits_ - 1);
  // sign_bit sits at bit (bits_ - 1); the kernel shifts it up to the float
  // sign position and ORs it in (util/simd.h).
  const unsigned sign_shift = 32 - bits_;

  alignas(64) std::uint32_t sym[kGroupSymbols];
  alignas(64) float decoded[kGroupSymbols];
  for (std::size_t at = first; at < last; at += kGroupSymbols) {
    const std::size_t tile = std::min(kGroupSymbols, last - at);
    util::unpack_symbols_at(payload, at, bits_, {sym, tile});
    float* dst = add ? decoded : out.data() + at;
    // The tile's slices of each bucket it overlaps; decoding is per
    // element, so slicing a bucket does not change a bit.
    for (std::size_t i = at; i < at + tile;) {
      const std::size_t b = i / bucket;
      const std::size_t end = std::min(at + tile, (b + 1) * bucket);
      util::simd::qsgd_dequantize(sym + (i - at), end - i,
                                  dequant_scale(norms[b], s), sign_bit,
                                  sign_shift, dst + (i - at));
      i = end;
    }
    if (add) tensor::add_inplace(out.subspan(at, tile), {decoded, tile});
  }
}

std::string QsgdCompressor::name() const {
  return "qsgd(b=" + std::to_string(bits_) +
         ",bucket=" + std::to_string(bucket_size_) + ")";
}

double QsgdCompressor::variance_bound(std::size_t d, unsigned bits) {
  CGX_CHECK_GE(bits, 2u);
  const double s = static_cast<double>((1u << (bits - 1)) - 1);
  const double dd = static_cast<double>(d);
  return std::min(dd / (s * s), std::sqrt(dd) / s);
}

}  // namespace cgx::core
