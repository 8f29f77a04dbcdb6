#include "core/compressed_allreduce.h"

#include "comm/tagspace.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace cgx::core {
namespace {

// Canonical tag bases live in comm/tagspace.h; a bucketed caller shifts
// them by bucket_tag_offset(b) via the tag_base parameter.
using comm::kRingGatherTag;
using comm::kRingReduceTag;
using comm::kSraGatherTag;
using comm::kSraScatterTag;
using comm::kTreeBcastTag;
using comm::kTreeReduceTag;

using comm::chunk_range;

}  // namespace

void compressed_allreduce(comm::Comm& comm, std::span<float> data,
                          std::span<Compressor* const> chunk_compressors,
                          util::Rng& rng, comm::ReductionScheme scheme,
                          CollectiveWorkspace& ws, int tag_base) {
  switch (scheme) {
    case comm::ReductionScheme::ScatterReduceAllgather:
      compressed_allreduce_sra(comm, data, chunk_compressors, rng, ws,
                               tag_base);
      return;
    case comm::ReductionScheme::Ring:
      compressed_allreduce_ring(comm, data, chunk_compressors, rng, ws,
                                tag_base);
      return;
    case comm::ReductionScheme::Tree:
      compressed_allreduce_tree(comm, data, chunk_compressors, rng, ws,
                                tag_base);
      return;
  }
}

void compressed_sra_begin(comm::Comm& comm, std::span<float> data,
                          std::span<Compressor* const> chunk_compressors,
                          util::Rng& rng, CollectiveWorkspace& ws,
                          int tag_base, std::span<const int> group_ranks) {
  const comm::RankGroup group(comm, group_ranks);
  const int n = group.size;
  CGX_CHECK_EQ(chunk_compressors.size(), static_cast<std::size_t>(n));
  if (n == 1 || data.empty()) return;

  // Round 1: compress chunk j once and ship it to its aggregator, member j.
  for (int j = 0; j < n; ++j) {
    if (j == group.self) continue;
    const auto [first, last] = chunk_range(data.size(), n, j);
    const std::span<const float> chunk = data.subspan(first, last - first);
    const std::span<std::byte> payload = ws.bytes(
        kSlotPayload, chunk_compressors[j]->compressed_size(chunk.size()));
    const std::size_t written =
        chunk_compressors[j]->compress(chunk, payload, rng);
    comm.send(group.rank(j), payload.first(written),
              kSraScatterTag + tag_base);
  }
}

void compressed_sra_finish(comm::Comm& comm, std::span<float> data,
                           std::span<Compressor* const> chunk_compressors,
                           util::Rng& rng, CollectiveWorkspace& ws,
                           int tag_base, std::span<const int> group_ranks) {
  const comm::RankGroup group(comm, group_ranks);
  const int n = group.size;
  const int me = group.self;
  CGX_CHECK_EQ(chunk_compressors.size(), static_cast<std::size_t>(n));
  if (n == 1 || data.empty()) return;
  const int scatter_tag = kSraScatterTag + tag_base;
  const int gather_tag = kSraGatherTag + tag_base;
  Compressor& mine_comp = *chunk_compressors[me];

  // Aggregate my chunk: my raw contribution plus n-1 decompressed ones.
  // Payloads are received AND decompressed in arrival order — each into its
  // sender's own slot, so the decompression of early arrivals overlaps the
  // transit of slow peers — but the adds run in fixed member order, keeping
  // the sum bit-identical run to run.
  const auto [mf, ml] = chunk_range(data.size(), n, me);
  std::span<float> mine = data.subspan(mf, ml - mf);
  const std::size_t peers = static_cast<std::size_t>(n - 1);
  const std::span<float> staged =
      ws.floats(kSlotIncoming, peers * mine.size());
  const std::span<std::byte> in_payload =
      ws.bytes(kSlotInPayload, mine_comp.compressed_size(mine.size()));
  const auto slot_of = [&](int j) {
    return staged.subspan(static_cast<std::size_t>(j < me ? j : j - 1) *
                              mine.size(),
                          mine.size());
  };
  comm::for_each_member_by_arrival(comm, group, scatter_tag, [&](int j) {
    comm.recv(group.rank(j), in_payload, scatter_tag);
    mine_comp.decompress(in_payload, slot_of(j));
  });
  for (int j = 0; j < n; ++j) {
    if (j != me) tensor::add_inplace(mine, slot_of(j));
  }

  // Round 2: compress the reduced chunk once and broadcast it. Decompress
  // our own payload too, so every member ends bit-identical.
  const std::span<std::byte> payload =
      ws.bytes(kSlotPayload, mine_comp.compressed_size(mine.size()));
  const std::size_t written = mine_comp.compress(mine, payload, rng);
  const std::span<const std::byte> reduced = payload.first(written);
  for (int j = 0; j < n; ++j) {
    if (j != me) comm.send(group.rank(j), reduced, gather_tag);
  }
  mine_comp.decompress(reduced, mine);
  // Reduced chunks land in disjoint regions, so arrival order cannot
  // change the final bytes here.
  comm::for_each_member_by_arrival(comm, group, gather_tag, [&](int j) {
    const auto [first, last] = chunk_range(data.size(), n, j);
    std::span<float> chunk = data.subspan(first, last - first);
    const std::span<std::byte> gathered = ws.bytes(
        kSlotInPayload, chunk_compressors[j]->compressed_size(chunk.size()));
    comm.recv(group.rank(j), gathered, gather_tag);
    chunk_compressors[j]->decompress(gathered, chunk);
  });
}

void compressed_allreduce_sra(comm::Comm& comm, std::span<float> data,
                              std::span<Compressor* const> chunk_compressors,
                              util::Rng& rng, CollectiveWorkspace& ws,
                              int tag_base) {
  compressed_sra_begin(comm, data, chunk_compressors, rng, ws, tag_base);
  compressed_sra_finish(comm, data, chunk_compressors, rng, ws, tag_base);
}

void compressed_allreduce_ring(comm::Comm& comm, std::span<float> data,
                               std::span<Compressor* const> chunk_compressors,
                               util::Rng& rng, CollectiveWorkspace& ws,
                               int tag_base) {
  const int n = comm.size();
  const int r = comm.rank();
  CGX_CHECK_EQ(chunk_compressors.size(), static_cast<std::size_t>(n));
  if (n == 1 || data.empty()) return;
  const int right = (r + 1) % n;
  const int left = (r - 1 + n) % n;
  const int reduce_tag = kRingReduceTag + tag_base;
  const int gather_tag = kRingGatherTag + tag_base;

  // Reduce-scatter phase: the partial sum is re-compressed at EVERY hop —
  // this is precisely the iterated compression error §3 charges against
  // Ring for non-associative operators.
  for (int s = 0; s < n - 1; ++s) {
    const int send_idx = (r - s + n) % n;
    const int recv_idx = (r - s - 1 + n) % n;
    {
      const auto [sf, sl] = chunk_range(data.size(), n, send_idx);
      const std::span<const float> chunk = data.subspan(sf, sl - sf);
      const std::span<std::byte> payload = ws.bytes(
          kSlotPayload,
          chunk_compressors[send_idx]->compressed_size(chunk.size()));
      const std::size_t written =
          chunk_compressors[send_idx]->compress(chunk, payload, rng);
      comm.send(right, payload.first(written), reduce_tag);
    }
    {
      const auto [rf, rl] = chunk_range(data.size(), n, recv_idx);
      std::span<float> chunk = data.subspan(rf, rl - rf);
      const std::span<std::byte> payload = ws.bytes(
          kSlotInPayload,
          chunk_compressors[recv_idx]->compressed_size(chunk.size()));
      comm.recv(left, payload, reduce_tag);
      const std::span<float> incoming =
          ws.floats(kSlotIncoming, chunk.size());
      chunk_compressors[recv_idx]->decompress(payload, incoming);
      tensor::add_inplace(chunk, incoming);
    }
  }

  // Allgather phase: the owner compresses its reduced chunk once; the bytes
  // are relayed verbatim around the ring (no re-compression). Each chunk
  // index keeps its own byte slot because payloads live across ring steps.
  const int owned = (r + 1) % n;
  const std::span<std::size_t> sizes =
      ws.sizes(kSlotRingSizes, static_cast<std::size_t>(n));
  {
    const auto [of, ol] = chunk_range(data.size(), n, owned);
    std::span<float> chunk = data.subspan(of, ol - of);
    const std::span<std::byte> buf =
        ws.bytes(kSlotRingBase + static_cast<std::size_t>(owned),
                 chunk_compressors[owned]->compressed_size(chunk.size()));
    sizes[static_cast<std::size_t>(owned)] =
        chunk_compressors[owned]->compress(chunk, buf, rng);
    // Canonicalize our own copy to the decompressed payload.
    chunk_compressors[owned]->decompress(
        buf.first(sizes[static_cast<std::size_t>(owned)]), chunk);
  }
  for (int s = 0; s < n - 1; ++s) {
    const int send_idx = (r + 1 - s + n) % n;
    const int recv_idx = (r - s + n) % n;
    const std::span<const std::byte> outbound =
        ws.bytes(kSlotRingBase + static_cast<std::size_t>(send_idx),
                 sizes[static_cast<std::size_t>(send_idx)]);
    comm.send(right, outbound, gather_tag);
    const auto [rf, rl] = chunk_range(data.size(), n, recv_idx);
    std::span<float> chunk = data.subspan(rf, rl - rf);
    sizes[static_cast<std::size_t>(recv_idx)] =
        chunk_compressors[recv_idx]->compressed_size(chunk.size());
    const std::span<std::byte> buf =
        ws.bytes(kSlotRingBase + static_cast<std::size_t>(recv_idx),
                 sizes[static_cast<std::size_t>(recv_idx)]);
    comm.recv(left, buf, gather_tag);
    chunk_compressors[recv_idx]->decompress(buf, chunk);
  }
}

void compressed_allreduce_tree(comm::Comm& comm, std::span<float> data,
                               std::span<Compressor* const> chunk_compressors,
                               util::Rng& rng, CollectiveWorkspace& ws,
                               int tag_base) {
  const int n = comm.size();
  const int r = comm.rank();
  CGX_CHECK_GE(chunk_compressors.size(), 1u);
  if (n == 1 || data.empty()) return;
  Compressor& compressor = *chunk_compressors[0];
  const int reduce_tag = kTreeReduceTag + tag_base;
  const int bcast_tag = kTreeBcastTag + tag_base;

  int top = 1;
  while (top < n) top <<= 1;
  top >>= 1;

  const std::size_t full_payload = compressor.compressed_size(data.size());
  std::span<std::byte> payload = ws.bytes(kSlotPayload, full_payload);
  const std::span<float> incoming = ws.floats(kSlotIncoming, data.size());

  // Binomial reduce towards rank 0; every sender compresses its current
  // partial sum (log N re-compressions on the deepest path).
  for (int mask = top; mask >= 1; mask >>= 1) {
    if (r >= mask && r < 2 * mask) {
      const std::size_t written = compressor.compress(data, payload, rng);
      comm.send(r - mask, payload.first(written), reduce_tag);
    } else if (r < mask && r + mask < n) {
      comm.recv(r + mask, payload, reduce_tag);
      compressor.decompress(payload, incoming);
      tensor::add_inplace(data, incoming);
    }
  }

  // Root compresses the final sum once; bytes are relayed down unchanged.
  if (r == 0) {
    const std::size_t written = compressor.compress(data, payload, rng);
    payload = payload.first(written);
    compressor.decompress(payload, data);  // root matches everyone else
  }
  for (int mask = 1; mask < n; mask <<= 1) {
    if (r < mask && r + mask < n) {
      comm.send(r + mask, payload, bcast_tag);
    } else if (r >= mask && r < 2 * mask) {
      payload = ws.bytes(kSlotPayload, full_payload);
      comm.recv(r - mask, payload, bcast_tag);
      compressor.decompress(payload, data);
    }
  }
}

void compressed_allreduce(comm::Comm& comm, std::span<float> data,
                          std::span<Compressor* const> chunk_compressors,
                          util::Rng& rng, comm::ReductionScheme scheme) {
  CollectiveWorkspace ws;
  compressed_allreduce(comm, data, chunk_compressors, rng, scheme, ws);
}

void compressed_allreduce_sra(comm::Comm& comm, std::span<float> data,
                              std::span<Compressor* const> chunk_compressors,
                              util::Rng& rng) {
  CollectiveWorkspace ws;
  compressed_allreduce_sra(comm, data, chunk_compressors, rng, ws);
}

void compressed_allreduce_ring(comm::Comm& comm, std::span<float> data,
                               std::span<Compressor* const> chunk_compressors,
                               util::Rng& rng) {
  CollectiveWorkspace ws;
  compressed_allreduce_ring(comm, data, chunk_compressors, rng, ws);
}

void compressed_allreduce_tree(comm::Comm& comm, std::span<float> data,
                               std::span<Compressor* const> chunk_compressors,
                               util::Rng& rng) {
  CollectiveWorkspace ws;
  compressed_allreduce_tree(comm, data, chunk_compressors, rng, ws);
}

}  // namespace cgx::core
