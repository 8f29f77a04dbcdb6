// Uncompressed collective operations over a Transport.
//
// Implements the three reduction schemes analysed in the paper (§3,
// "Reduction Schemes"):
//
//   Scatter-Reduce-Allgather (SRA) — two rounds of direct exchanges;
//     bandwidth O(d(N-1)) per round total, latency 2α. CGX's default:
//     with compression it performs exactly two compress/decompress cycles.
//   Ring — bandwidth-optimal O(d(N-1)/N) per rank, latency 2α(N-1).
//   Tree — hierarchical parameter-server; O(2d log N), latency 2α log N.
//
// All collectives are SPMD: every rank of the world must call the same
// function with the same sizes. Reduction is summation in float, matching
// what the GPU kernels do. A world of size 1 is a no-op.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <utility>

#include "comm/world.h"

namespace cgx::comm {

enum class ReductionScheme { ScatterReduceAllgather, Ring, Tree };

const char* reduction_scheme_name(ReductionScheme s);

// Worlds up to this size get any-source receives with stack-only
// bookkeeping; larger worlds fall back to fixed-order (correct, slower).
inline constexpr int kMaxAnySourceWorld = 128;

// The members a collective runs over: an ascending list of dense ranks that
// includes the caller, member j owning chunk j. An empty list is the whole
// world, where member j is rank j.
struct RankGroup {
  RankGroup(const Comm& comm, std::span<const int> ranks = {});

  int rank(int j) const {
    return ranks.empty() ? j : ranks[static_cast<std::size_t>(j)];
  }
  // Member index of dense rank `r`, which must belong to the group.
  int index_of(int r) const;

  std::span<const int> ranks;
  int size;  // member count
  int self;  // the caller's member index
};

// Calls fn(j) exactly once for every member j of `group` other than the
// caller, servicing whichever member has bytes pending for (this rank, tag)
// first. fn must consume the member's entire contribution for this tag
// before returning, so the next selection sees fresh arrivals only. Groups
// with more than kMaxAnySourceWorld peers are served in fixed member order.
template <typename Fn>
void for_each_member_by_arrival(Comm& comm, const RankGroup& group, int tag,
                                Fn&& fn) {
  if (group.size - 1 > kMaxAnySourceWorld) {
    for (int j = 0; j < group.size; ++j) {
      if (j != group.self) fn(j);
    }
    return;
  }
  std::array<int, static_cast<std::size_t>(kMaxAnySourceWorld)> remaining;
  int count = 0;
  for (int j = 0; j < group.size; ++j) {
    if (j != group.self) {
      remaining[static_cast<std::size_t>(count++)] = group.rank(j);
    }
  }
  while (count > 0) {
    // A single remaining peer needs no any-source wait — and receiving on
    // the named link means a silent peer surfaces as a TimeoutError that
    // identifies exactly that link instead of an anonymous any-source wait.
    const int p = count == 1
                      ? remaining[0]
                      : comm.select_source(
                            {remaining.data(),
                             static_cast<std::size_t>(count)},
                            tag);
    fn(group.index_of(p));
    for (int i = 0; i < count; ++i) {
      if (remaining[static_cast<std::size_t>(i)] == p) {
        remaining[static_cast<std::size_t>(i)] =
            remaining[static_cast<std::size_t>(count - 1)];
        --count;
        break;
      }
    }
  }
}

// Element range [first, last) of chunk i when d elements are split across n
// ranks (balanced split, first chunks one element larger on remainder).
std::pair<std::size_t, std::size_t> chunk_range(std::size_t d, int n, int i);

// In-place sum-allreduce with the chosen scheme. The `scratch` overloads
// take a caller-owned accumulation buffer (scratch.size() >= data.size()
// always suffices; the chunk pipeline needs only one pipeline sub-chunk,
// 64Ki floats) so steady-state callers — the engines' per-rank workspaces —
// make no heap allocation per call. The plain overloads allocate a
// transient buffer.
//
// Large buffers move as pipelined sub-chunk messages: the fold of sub-chunk
// k overlaps the transit of sub-chunk k+1, and scatter-reduce contributions
// are RECEIVED in arrival order (any-source receive over the transport's
// dense channel table, staged into per-peer scratch slots) so one slow peer
// does not serialise the drain. The adds themselves always run in fixed
// rank order, so results stay bit-identical across ranks AND run to run —
// arrival order decides only scheduling, never the float association. Byte
// volume per link is unchanged by the pipelining; only message counts grow.
void allreduce(Comm& comm, std::span<float> data, ReductionScheme scheme);
void allreduce(Comm& comm, std::span<float> data, ReductionScheme scheme,
               std::span<float> scratch);

void allreduce_sra(Comm& comm, std::span<float> data);
void allreduce_sra(Comm& comm, std::span<float> data,
                   std::span<float> scratch);
void allreduce_ring(Comm& comm, std::span<float> data);
void allreduce_ring(Comm& comm, std::span<float> data,
                    std::span<float> scratch);
void allreduce_tree(Comm& comm, std::span<float> data);
void allreduce_tree(Comm& comm, std::span<float> data,
                    std::span<float> scratch);

// In-place broadcast from `root`.
void broadcast(Comm& comm, std::span<float> data, int root);

// Gathers each rank's `in` into `out` ordered by rank;
// out.size() == in.size() * world size.
void allgather(Comm& comm, std::span<const float> in, std::span<float> out);

// Direct reduce-scatter: afterwards each rank's own chunk (per chunk_range)
// holds the full sum; other positions are unspecified. The scratch overload
// follows the same zero-allocation contract as the allreduce family.
void reduce_scatter(Comm& comm, std::span<float> data);
void reduce_scatter(Comm& comm, std::span<float> data,
                    std::span<float> scratch);

}  // namespace cgx::comm
