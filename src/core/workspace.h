// Per-rank grow-only scratch arena for the collective hot path.
//
// Every compressed_allreduce_* call used to heap-allocate payload and
// accumulation vectors — every layer, every step. A CollectiveWorkspace
// instead owns a set of numbered slots whose backing storage only ever
// grows: after the first step touches the largest layer, no collective on
// that rank allocates again (the property the Appendix A overhead budget
// needs, and what the zero-allocation engine test asserts).
//
// Ownership rules:
//  * One workspace per rank. Collectives run on the rank's thread, so no
//    locking; a workspace must never be shared across concurrently running
//    ranks.
//  * A slot span is valid until the next request for the SAME slot; nested
//    helpers must use disjoint slot numbers (the collectives' slots are
//    the kSlot* constants below).
//  * Storage never shrinks mid-epoch: high_water_bytes() is monotone and
//    stabilizes once the biggest message has been seen.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/arena.h"

namespace cgx::core {

// Grow-only resize helper shared by the workspace and compressor scratch
// buffers: requests never shrink the backing vector.
template <class T>
std::span<T> ensure_span(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return {v.data(), n};
}

template <class T>
std::span<T> ensure_span(util::ArenaBuffer<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return {v.data(), n};
}

// Slots of the compressed collectives (compressed_allreduce.h and
// hierarchical.h). Byte, float and size slots are independent namespaces.
// The two-level schedule's intra hop reuses the SRA's numbers: it never
// holds a span across its call into the SRA. Engine-private slots live in
// engine.cpp, numbered high so a collective never invalidates them.
inline constexpr std::size_t kSlotPayload = 0;    // bytes: outbound payload
inline constexpr std::size_t kSlotInPayload = 1;  // bytes: inbound payload
inline constexpr std::size_t kSlotRingBase = 2;   // bytes: ring, per chunk
inline constexpr std::size_t kSlotIncoming = 0;   // floats: staging / sums
inline constexpr std::size_t kSlotRingSizes = 0;  // sizes: ring, per chunk

class CollectiveWorkspace {
 public:
  CollectiveWorkspace() = default;
  CollectiveWorkspace(const CollectiveWorkspace&) = delete;
  CollectiveWorkspace& operator=(const CollectiveWorkspace&) = delete;
  CollectiveWorkspace(CollectiveWorkspace&&) = default;
  CollectiveWorkspace& operator=(CollectiveWorkspace&&) = default;

  // Pins every slot (existing and future) to `arena`: slot growth then
  // carves 64-byte-aligned, NUMA-local memory from the rank's arena instead
  // of the heap. The engines call this with rank_arena(rank) when they build
  // per-rank state; unpinned workspaces (stack-local test conveniences)
  // behave exactly as before.
  void set_arena(util::Arena* arena);

  // A span of n elements backed by slot `slot`; contents unspecified.
  std::span<std::byte> bytes(std::size_t slot, std::size_t n);
  std::span<float> floats(std::size_t slot, std::size_t n);
  std::span<std::size_t> sizes(std::size_t slot, std::size_t n);

  // Total capacity currently held across all slots, in bytes. Monotone
  // non-decreasing; the warm-up test asserts it stops growing after the
  // first step.
  std::size_t high_water_bytes() const;

 private:
  // Slot storage is arena-aware: slots grown on a rank thread with a bound
  // ScopedArena carve NUMA-local, 64-byte-aligned memory from that rank's
  // arena (the slot vector itself is cold metadata and stays on the heap).
  std::vector<util::ArenaBuffer<std::byte>> byte_slots_;
  std::vector<util::ArenaBuffer<float>> float_slots_;
  std::vector<util::ArenaBuffer<std::size_t>> size_slots_;
  util::Arena* arena_ = nullptr;
};

}  // namespace cgx::core
