// Two-level (hierarchical) compressed allreduce for multi-node clusters.
//
// Paper §4, "Backend Details": CGX supports heterogeneous communication
// where intra-node traffic uses the fast local backend (SHM) — optionally
// uncompressed, since the local fabric is cheap relative to the NICs —
// while the inter-node exchange runs compressed over MPI/NCCL.
//
// The schedule is the classic node-leader decomposition:
//   1. intra-node reduce: every member hands its vector to the node leader.
//      When the transport offers peer-direct exchange on the (member,
//      leader) link (SHM inside a node — ask per link, see
//      Transport::supports_direct_exchange(a, b)), the member just POSTS
//      its span and the leader folds members pairwise with direct_pull2 —
//      zero intermediate copies. Otherwise the hop rides buffered channels
//      (optionally compressed, see compress_intra).
//   2. inter-node: the leaders run the compression-aware SRA among
//      themselves — the node-aggregated residual is RE-COMPRESSED at the
//      node boundary (fresh quantization of the intra sum, with
//      error-feedback kept by the leader-level compressor), so only the
//      compressed payload crosses the NICs.
//   3. intra-node broadcast: leaders fan the result back out, full
//      precision (each leader re-compressing with an independent stochastic
//      rounding would silently diverge replicas across nodes).
//
// All ranks finish bit-identical (the leader, like everyone else, adopts
// the payload-decompressed values from the leader exchange).
//
// The schedule is split into begin/finish halves exactly like
// compressed_sra_begin/finish so the streaming bucketed engine can overlap
// the two levels across buckets: begin() is the intra-node reduce plus the
// first (scatter) half of the leader exchange; finish() drains the leader
// exchange and broadcasts. Bucket k+1's begin — the node-local fold — can
// therefore run while bucket k's finish is still waiting on the NICs.
// begin(); finish() back to back is the plain allreduce.
//
// The leader exchange is compressed_sra_begin/finish itself, run over the
// group topology.leaders() with the first num_nodes compressors, on the
// inter-node tag lane (comm::hier_inter_tag_base).
//
// Placement comes from a comm::Topology (node ids, leaders, dense node
// indices), the same object the engine plans with; its world must be the
// communicator's.
//
// Error-feedback contract (who owns which residual), L = num_nodes():
//   chunk_compressors[j], j < L   leader-level SRA chunk j
//                                 (the node-boundary EF)
//   chunk_compressors[L]          the intra-node hop when compress_intra
//                                 is on (member-side EF over the full
//                                 vector)
// The two levels never share a compressor instance, so one level's
// residual can never leak into the other's stream. Every rank passes its
// own instances; a rank only exercises the entries its role touches.
#pragma once

#include <span>

#include "comm/collectives.h"
#include "comm/topology.h"
#include "core/compressor.h"
#include "core/workspace.h"

namespace cgx::core {

struct HierarchicalOptions {
  // Compress the intra-node REDUCE hop too (costs an extra compression
  // round, saves local bandwidth; off by default per §4). Forces the
  // channel path for the reduce hop — a compressed payload cannot ride the
  // peer-direct fold. The broadcast hop always stays full precision.
  bool compress_intra = false;
};

// Sum-allreduce across the world, two-level. `bucket` selects the disjoint
// tag lane (comm/tagspace.h) so the streaming engine can keep several
// buckets in flight; plain callers leave it 0. `ws` is the rank's scratch
// arena (grow-only; zero allocations at steady state). The overload
// without it allocates a transient one per call.
void hierarchical_allreduce(comm::Comm& comm, std::span<float> data,
                            std::span<Compressor* const> chunk_compressors,
                            util::Rng& rng, const comm::Topology& topology,
                            const HierarchicalOptions& options,
                            CollectiveWorkspace& ws, int bucket = 0);
void hierarchical_allreduce(comm::Comm& comm, std::span<float> data,
                            std::span<Compressor* const> chunk_compressors,
                            util::Rng& rng, const comm::Topology& topology,
                            const HierarchicalOptions& options = {});

// Split halves for the overlap engine (see file comment). `data` and the
// workspace arena must stay untouched between the two calls; members on
// the peer-direct path have their span posted to the leader for the whole
// window.
void hierarchical_begin(comm::Comm& comm, std::span<float> data,
                        std::span<Compressor* const> chunk_compressors,
                        util::Rng& rng, const comm::Topology& topology,
                        const HierarchicalOptions& options,
                        CollectiveWorkspace& ws, int bucket = 0);
void hierarchical_finish(comm::Comm& comm, std::span<float> data,
                         std::span<Compressor* const> chunk_compressors,
                         util::Rng& rng, const comm::Topology& topology,
                         const HierarchicalOptions& options,
                         CollectiveWorkspace& ws, int bucket = 0);

}  // namespace cgx::core
