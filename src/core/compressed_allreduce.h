// Compression-aware allreduce.
//
// Compression operators are non-associative (paper §3): a stock collective
// cannot sum compressed payloads, so the reduction algorithm and the
// operator must be co-designed. These collectives decompress, accumulate in
// full precision, and recompress only where the algorithm requires it:
//
//   SRA  — exactly TWO compression rounds end-to-end (each gradient chunk
//          is compressed once on the way to its aggregating rank, and the
//          reduced chunk once on the way back). This is why CGX defaults to
//          SRA (§6.2 "Reduction Algorithms": lowest compression error).
//   Ring — the partial sum is re-compressed at every one of the N-1 reduce
//          hops: error grows with world size.
//   Tree — partial sums are re-compressed at each of the log N levels.
//
// Determinism/consistency invariant: ALL ranks finish with bit-identical
// buffers. Aggregating ranks therefore decompress their *own* compressed
// payload rather than keeping the higher-precision local sum.
//
// Stateful operators: `chunk_compressors` supplies one compressor per chunk
// index; chunk j of this rank's traffic always goes through compressor j,
// so error-feedback residuals and PowerSGD warm starts attach to a stable
// data region across iterations. (Tree operates on whole vectors and uses
// compressor 0.)
#pragma once

#include <span>

#include "comm/collectives.h"
#include "core/compressor.h"
#include "core/workspace.h"

namespace cgx::core {

// Sum-allreduce `data` across the world. chunk_compressors.size() must be
// comm.size(); every rank passes its own instances (same configuration on
// all ranks). `ws` is the rank's scratch arena: all payload and
// accumulation buffers come out of it, so a warmed-up workspace makes the
// whole call allocation-free.
//
// `tag_base` shifts every tag the collective uses (comm/tagspace.h): the
// bucketed streaming engine gives each fusion bucket a disjoint tag range
// so several collectives can be in flight on the fabric at once. 0 (the
// default) is the legacy monolithic range.
void compressed_allreduce(comm::Comm& comm, std::span<float> data,
                          std::span<Compressor* const> chunk_compressors,
                          util::Rng& rng, comm::ReductionScheme scheme,
                          CollectiveWorkspace& ws, int tag_base = 0);

void compressed_allreduce_sra(comm::Comm& comm, std::span<float> data,
                              std::span<Compressor* const> chunk_compressors,
                              util::Rng& rng, CollectiveWorkspace& ws,
                              int tag_base = 0);
void compressed_allreduce_ring(comm::Comm& comm, std::span<float> data,
                               std::span<Compressor* const> chunk_compressors,
                               util::Rng& rng, CollectiveWorkspace& ws,
                               int tag_base = 0);
void compressed_allreduce_tree(comm::Comm& comm, std::span<float> data,
                               std::span<Compressor* const> chunk_compressors,
                               util::Rng& rng, CollectiveWorkspace& ws,
                               int tag_base = 0);

// The SRA collective split at its natural pipeline boundary, for the
// streaming engine's compression/transfer overlap:
//
//   begin — round 1 only: compress each remote chunk once and ship it to
//           its aggregating rank. Sends are buffered, so this returns
//           without waiting on any peer — it is pure local compression
//           plus channel pushes, and can run while the previous bucket's
//           finish is still draining the fabric.
//   finish — drain round-1 contributions (arrival order, fixed-rank-order
//           folds), then round 2: compress the reduced chunk, broadcast,
//           decompress. Blocks on peers.
//
// begin(b) followed by finish(b) is bit-identical to
// compressed_allreduce_sra(b): same compressor calls in the same order on
// the same RNG stream. The two halves must see the same arguments, and no
// other traffic may use this tag range in between.
//
// `group` (comm::RankGroup) narrows the SRA to an ascending list of dense
// ranks that includes the caller: member j aggregates chunk j with
// chunk_compressors[j], and the span holds one compressor per member. The
// default, empty, is the whole world. The two-level schedule runs its
// leader exchange through these halves with group = the node leaders.
void compressed_sra_begin(comm::Comm& comm, std::span<float> data,
                          std::span<Compressor* const> chunk_compressors,
                          util::Rng& rng, CollectiveWorkspace& ws,
                          int tag_base = 0, std::span<const int> group = {});
void compressed_sra_finish(comm::Comm& comm, std::span<float> data,
                           std::span<Compressor* const> chunk_compressors,
                           util::Rng& rng, CollectiveWorkspace& ws,
                           int tag_base = 0, std::span<const int> group = {});

// Back-compat convenience overloads: identical semantics, but each call
// heap-allocates a transient workspace. Fine for tests and one-shot
// benchmarks; the engines keep a per-rank workspace instead.
void compressed_allreduce(comm::Comm& comm, std::span<float> data,
                          std::span<Compressor* const> chunk_compressors,
                          util::Rng& rng, comm::ReductionScheme scheme);
void compressed_allreduce_sra(comm::Comm& comm, std::span<float> data,
                              std::span<Compressor* const> chunk_compressors,
                              util::Rng& rng);
void compressed_allreduce_ring(comm::Comm& comm, std::span<float> data,
                               std::span<Compressor* const> chunk_compressors,
                               util::Rng& rng);
void compressed_allreduce_tree(comm::Comm& comm, std::span<float> data,
                               std::span<Compressor* const> chunk_compressors,
                               util::Rng& rng);

}  // namespace cgx::core
