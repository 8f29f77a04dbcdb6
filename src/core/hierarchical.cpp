#include "core/hierarchical.h"

#include "comm/tagspace.h"
#include "core/compressed_allreduce.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace cgx::core {
namespace {

// The leader-level SRA's operators: compressor j aggregates leader chunk j.
std::span<Compressor* const> leader_compressors(
    std::span<Compressor* const> compressors,
    const comm::Topology& topology) {
  const auto nodes = static_cast<std::size_t>(topology.num_nodes());
  CGX_CHECK_GE(compressors.size(), nodes);
  return compressors.first(nodes);
}

Compressor& intra_compressor(std::span<Compressor* const> compressors,
                             const comm::Topology& topology) {
  // The intra hop gets its own operator AFTER the leader-chunk bindings so
  // its error-feedback never mixes with any node-boundary residual. The
  // slot exists whenever the hop is exercised: a world with members has
  // fewer nodes than ranks, and engines size the span by world.
  const auto slot = static_cast<std::size_t>(topology.num_nodes());
  CGX_CHECK_GT(compressors.size(), slot);
  return *compressors[slot];
}

// Calls fn(m) for every member (non-leader rank) of the calling leader's
// node, in ascending rank order. Members rank above their leader, which is
// the lowest rank on the node.
template <typename Fn>
void for_each_member(const comm::Comm& comm, const comm::Topology& topology,
                     Fn&& fn) {
  const int leader = comm.rank();
  for (int m = leader + 1; m < topology.world_size(); ++m) {
    if (topology.leader(m) == leader) fn(m);
  }
}

// ---------------------------------------------------------------- members

void member_begin(comm::Comm& comm, std::span<float> data,
                  std::span<Compressor* const> compressors, util::Rng& rng,
                  const comm::Topology& topology,
                  const HierarchicalOptions& options, CollectiveWorkspace& ws,
                  int tag) {
  const int leader = topology.leader(comm.rank());
  if (options.compress_intra) {
    Compressor& intra = intra_compressor(compressors, topology);
    const std::span<std::byte> payload =
        ws.bytes(kSlotPayload, intra.compressed_size(data.size()));
    const std::size_t written = intra.compress(data, payload, rng);
    comm.send(leader, payload.first(written), tag);
  } else if (comm.supports_direct_exchange(leader)) {
    // Post the span; the leader folds straight out of our memory. `data`
    // must stay untouched until the matching direct_wait in finish().
    comm.direct_post(leader, data, tag);
  } else {
    comm.send_floats(leader, data, tag);
  }
}

void member_finish(comm::Comm& comm, std::span<float> data,
                   const comm::Topology& topology,
                   const HierarchicalOptions& options, int tag) {
  const int leader = topology.leader(comm.rank());
  const bool link_direct = comm.supports_direct_exchange(leader);
  if (!options.compress_intra && link_direct) {
    // Our reduce post must be consumed before the broadcast may overwrite
    // the span it points at.
    comm.direct_wait(leader, tag);
  }
  if (link_direct) {
    comm.direct_pull(leader, data, /*add=*/false, tag);
  } else {
    comm.recv_floats(leader, data, tag);
  }
}

// ---------------------------------------------------------------- leaders

void leader_fold_members(comm::Comm& comm, std::span<float> data,
                         std::span<Compressor* const> compressors,
                         const comm::Topology& topology,
                         const HierarchicalOptions& options,
                         CollectiveWorkspace& ws, int tag) {
  // Members fold in fixed ascending rank order (bit-identical run to run;
  // intra-node members are symmetric, so arrival-order service would buy
  // little). Adjacent peer-direct members pair into one direct_pull2 pass —
  // bit-identical to two sequential pulls by the copy_add2 contract — and a
  // channel member in between flushes the pending pair first, preserving
  // the ascending add order. The reduce hop may go peer-direct only when
  // the link offers it AND the payload is raw floats (a compressed payload
  // can't ride the pull-add fold); both endpoints decide alike.
  int pending = -1;
  const auto flush = [&]() {
    if (pending >= 0) {
      comm.direct_pull(pending, data, /*add=*/true, tag);
      pending = -1;
    }
  };
  for_each_member(comm, topology, [&](int m) {
    if (!options.compress_intra && comm.supports_direct_exchange(m)) {
      if (pending < 0) {
        pending = m;
      } else {
        comm.direct_pull2(pending, m, data, tag);
        pending = -1;
      }
      return;
    }
    flush();
    if (options.compress_intra) {
      Compressor& intra = intra_compressor(compressors, topology);
      const std::span<std::byte> payload =
          ws.bytes(kSlotInPayload, intra.compressed_size(data.size()));
      comm.recv(m, payload, tag);
      const std::span<float> incoming =
          ws.floats(kSlotIncoming, data.size());
      intra.decompress(payload, incoming);
      tensor::add_inplace(data, incoming);
    } else if (comm.transport().supports_recv_add()) {
      comm.recv_add_floats(m, data, tag);
    } else {
      const std::span<float> incoming =
          ws.floats(kSlotIncoming, data.size());
      comm.recv_floats(m, incoming, tag);
      tensor::add_inplace(data, incoming);
    }
  });
  flush();
}

void leader_bcast_members(comm::Comm& comm, std::span<const float> data,
                          const comm::Topology& topology, int tag) {
  // Post to every member first, then collect the acks: members pull
  // concurrently instead of serializing on one wait at a time.
  for_each_member(comm, topology, [&](int m) {
    if (comm.supports_direct_exchange(m)) {
      comm.direct_post(m, data, tag);
    } else {
      comm.send_floats(m, data, tag);
    }
  });
  for_each_member(comm, topology, [&](int m) {
    if (comm.supports_direct_exchange(m)) comm.direct_wait(m, tag);
  });
}

}  // namespace

void hierarchical_begin(comm::Comm& comm, std::span<float> data,
                        std::span<Compressor* const> chunk_compressors,
                        util::Rng& rng, const comm::Topology& topology,
                        const HierarchicalOptions& options,
                        CollectiveWorkspace& ws, int bucket) {
  if (comm.size() == 1 || data.empty()) return;
  CGX_CHECK(bucket >= 0 && bucket < comm::kMaxTagBuckets);
  CGX_CHECK_EQ(topology.world_size(), comm.size());
  const int intra_tag = comm::hier_intra_tag(bucket);
  if (!topology.is_leader(comm.rank())) {
    member_begin(comm, data, chunk_compressors, rng, topology, options, ws,
                 intra_tag);
    return;
  }
  leader_fold_members(comm, data, chunk_compressors, topology, options, ws,
                      intra_tag);
  // Leader-level round 1: the node-aggregated vector is re-compressed at
  // the node boundary, chunk j with leader compressor j.
  compressed_sra_begin(comm, data, leader_compressors(chunk_compressors,
                                                      topology),
                       rng, ws, comm::hier_inter_tag_base(bucket),
                       topology.leaders());
}

void hierarchical_finish(comm::Comm& comm, std::span<float> data,
                         std::span<Compressor* const> chunk_compressors,
                         util::Rng& rng, const comm::Topology& topology,
                         const HierarchicalOptions& options,
                         CollectiveWorkspace& ws, int bucket) {
  if (comm.size() == 1 || data.empty()) return;
  CGX_CHECK(bucket >= 0 && bucket < comm::kMaxTagBuckets);
  CGX_CHECK_EQ(topology.world_size(), comm.size());
  const int intra_tag = comm::hier_intra_tag(bucket);
  if (!topology.is_leader(comm.rank())) {
    member_finish(comm, data, topology, options, intra_tag);
    return;
  }
  compressed_sra_finish(comm, data, leader_compressors(chunk_compressors,
                                                       topology),
                        rng, ws, comm::hier_inter_tag_base(bucket),
                        topology.leaders());
  leader_bcast_members(comm, data, topology, intra_tag);
}

void hierarchical_allreduce(comm::Comm& comm, std::span<float> data,
                            std::span<Compressor* const> chunk_compressors,
                            util::Rng& rng, const comm::Topology& topology,
                            const HierarchicalOptions& options,
                            CollectiveWorkspace& ws, int bucket) {
  hierarchical_begin(comm, data, chunk_compressors, rng, topology, options,
                     ws, bucket);
  hierarchical_finish(comm, data, chunk_compressors, rng, topology, options,
                      ws, bucket);
}

void hierarchical_allreduce(comm::Comm& comm, std::span<float> data,
                            std::span<Compressor* const> chunk_compressors,
                            util::Rng& rng, const comm::Topology& topology,
                            const HierarchicalOptions& options) {
  CollectiveWorkspace ws;
  hierarchical_allreduce(comm, data, chunk_compressors, rng, topology,
                         options, ws, 0);
}

}  // namespace cgx::core
