#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "comm/fault.h"
#include "comm/membership.h"
#include "comm/tagspace.h"
#include "comm/topology.h"
#include "core/error_feedback.h"
#include "core/hierarchical.h"
#include "core/qsgd.h"
#include "core/topk.h"
#include "tensor/tensor_ops.h"
#include "util/arena.h"
#include "util/check.h"

namespace cgx::core {
namespace {

using comm::kGraceTag;

// Engine-owned workspace slots. The compressed collectives own byte slots
// 0..2+world and float/size slot 0 (see workspace.h); engines use high slot
// numbers so a collective call never invalidates a span the engine still
// holds.
constexpr std::size_t kSlotPacket = 16;       // fused FP32 packet (floats)
constexpr std::size_t kSlotCommScratch = 17;  // comm::allreduce scratch
constexpr std::size_t kSlotRoundSnapshot = 18;  // run_round rollback copy
constexpr std::size_t kSlotGraceMine = 16;       // bytes: own payload
constexpr std::size_t kSlotGraceIncoming = 17;   // bytes: peer payload
constexpr std::size_t kSlotGraceDecompressed = 16;  // floats

// Relative cost of running one byte of gradient through a method's
// compression + decompression kernels, against the device's effective
// quantization rate. Quantizers run "at line rate" (§2.4, Technical Issue
// 1); selection and decomposition methods pay more compute.
double kernel_multiplier(Method m) {
  switch (m) {
    case Method::None:
      return 0.0;
    case Method::Fake:
      return 0.25;
    case Method::Fp16:
      return 0.5;
    case Method::Qsgd:
    case Method::Nuq:
    case Method::TernGrad:
    case Method::OneBit:
      return 1.0;
    case Method::TopK:
      return 2.0;
    case Method::PowerSgd:
      return 6.0;
  }
  return 1.0;
}

std::vector<int> participating_devices(const simgpu::CostModel& cost,
                                       int world_size) {
  CGX_CHECK_GE(cost.topology().num_devices(), world_size);
  std::vector<int> devices(static_cast<std::size_t>(world_size));
  for (int i = 0; i < world_size; ++i) devices[static_cast<std::size_t>(i)] = i;
  return devices;
}

double compress_kernel_seconds(Method method, double raw_bytes,
                               double compress_gbps) {
  if (compress_gbps <= 0.0) return 0.0;
  // One compression plus one decompression pass per rank per step. Half of
  // it rides the communication stream (overlappable); the other half is
  // charged as device contention via CommPlan::kernel_contention_s.
  return kernel_multiplier(method) * 2.0 * raw_bytes /
         (compress_gbps * 1e9);
}

// Field-wise policy equality for the differential rebuild: a layer whose
// resolved config is unchanged keeps its warmed compressors (and their
// error-feedback residuals / PowerSGD warm starts) across rebuild().
bool same_policy(const LayerCompression& a, const LayerCompression& b) {
  return a.method == b.method && a.bits == b.bits &&
         a.bucket_size == b.bucket_size && a.topk_ratio == b.topk_ratio &&
         a.rank == b.rank && a.fake_ratio == b.fake_ratio &&
         a.error_feedback == b.error_feedback &&
         a.powersgd_fp16 == b.powersgd_fp16 && a.dgc == b.dgc &&
         a.dgc_momentum == b.dgc_momentum && a.dgc_clip == b.dgc_clip;
}

}  // namespace

// ----------------------------------------------------------------- CGX

CgxEngine::CgxEngine(const tensor::LayerLayout& layout,
                     CompressionConfig config, int world_size,
                     EngineOptions options)
    : layout_(layout),
      config_(std::move(config)),
      world_size_(world_size),
      options_(std::move(options)),
      topo_(options_.node_of) {
  CGX_CHECK_GT(world_size, 0);
  if (!options_.node_of.empty() && topo_.world_size() != world_size) {
    throw std::invalid_argument(
        "EngineOptions::node_of lists " +
        std::to_string(topo_.world_size()) + " ranks but world is " +
        std::to_string(world_size));
  }
  active_ranks_.resize(static_cast<std::size_t>(world_size));
  std::iota(active_ranks_.begin(), active_ranks_.end(), 0);
  build_rank_state(/*drop_residuals=*/false);
}

void CgxEngine::rebuild() { build_rank_state(/*drop_residuals=*/false); }

void CgxEngine::build_rank_state(bool drop_residuals) {
  // ranks_ (and with it every RankState's grow-only CollectiveWorkspace)
  // survives every rebuild, so warmed arenas carry across policy swaps and
  // re-shards.
  std::vector<LayerCompression> previous = std::move(resolved_);
  resolved_.clear();
  resolved_.reserve(layout_.layer_count());
  filtered_layers_.clear();
  compressed_layers_.clear();
  all_layers_.clear();
  packet_numel_ = 0;
  for (const auto& info : layout_.layers()) {
    const std::size_t l = resolved_.size();
    resolved_.push_back(config_.for_layer(info.name, info.numel));
    all_layers_.push_back(l);
    if (resolved_.back().method == Method::None) {
      filtered_layers_.push_back(l);
      packet_numel_ += info.numel;
    } else {
      compressed_layers_.push_back(l);
    }
  }
  const bool two_level = !options_.node_of.empty();
  // Chunk compressors the collectives expect: the flat schemes bind one
  // per dense chunk; the two-level schedule binds one per leader chunk
  // plus the intra-hop slot at index num_nodes.
  const auto active = static_cast<std::size_t>(active_world());
  const std::size_t chunk_count =
      two_level ? std::max(active,
                           static_cast<std::size_t>(topo_.num_nodes()) + 1)
                : active;
  if (ranks_.empty()) {
    ranks_.resize(static_cast<std::size_t>(world_size_));
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      ranks_[r].workspace.set_arena(&util::rank_arena(static_cast<int>(r)));
    }
  }
  // Departed ranks keep their stale state untouched (a hung thread may
  // still hold spans into it); a readmitted rank is rebuilt by apply_view.
  for (int g : active_ranks_) {
    RankState& rank = ranks_[static_cast<std::size_t>(g)];
    rank.per_layer.resize(layout_.layer_count());
    rank.chunk_ptrs.resize(layout_.layer_count());
    for (std::size_t l = 0; l < layout_.layer_count(); ++l) {
      const LayerCompression& cfg = resolved_[l];
      auto& chunks = rank.per_layer[l];
      auto& ptrs = rank.chunk_ptrs[l];
      const std::size_t want = cfg.method == Method::None ? 0 : chunk_count;
      if (!drop_residuals && l < previous.size() &&
          same_policy(previous[l], cfg) && chunks.size() == want) {
        continue;  // unchanged layer keeps its warmed compressors
      }
      chunks.clear();
      ptrs.clear();
      const std::size_t rows = layout_.layer(l).shape.empty()
                                   ? 0
                                   : layout_.layer(l).shape.front();
      chunks.reserve(want);
      ptrs.reserve(want);
      for (std::size_t c = 0; c < want; ++c) {
        chunks.push_back(make_compressor(cfg, rows));
        ptrs.push_back(chunks.back().get());
      }
    }
  }
  wire_bytes_cached_ = wire_bytes_per_rank();
}

void CgxEngine::finish_report(RankState& state) {
  StepReport& report = state.report;
  report.epoch = applied_epoch_;
  report.world = active_world();
  // The movement baseline for a rank's first step is the LAUNCH world, so a
  // shrink during step 0 still reports its departure.
  const int last = state.last_world == 0 ? world_size_ : state.last_world;
  report.departed = std::max(0, last - active_world());
  report.joined = std::max(0, active_world() - last);
  report.wire_bytes = wire_bytes_cached_;
  state.last_world = active_world();
}

void CgxEngine::allreduce(comm::Comm& comm, std::span<float> fused,
                          util::Rng& rng) {
  CGX_CHECK_EQ(comm.size(), active_world());
  CGX_CHECK_EQ(fused.size(), layout_.total_numel());
  // RankState is keyed by GLOBAL rank: a survivor keeps its compressors and
  // workspace across re-shards even as its dense rank shifts.
  RankState& state = ranks_[static_cast<std::size_t>(comm.global_rank())];
  // Grow-only engine state touched inside the collective (error-feedback
  // residuals, compressor scratch) carves from this rank's arena. The alloc
  // tests prove the steady state does not grow, so arena waste is bounded
  // by warm-up.
  util::ScopedArena bind(util::rank_arena(comm.global_rank()));
  StepReport& report = state.report;
  report.ok = true;
  report.attempts = 0;
  report.retries = 0;
  report.incidents.clear();
  // One step = the fused FP32 packet, then every compressed layer as its
  // own single-layer bucket on tag base 0, all in layout order.
  CollectiveWorkspace& ws = state.workspace;
  try {
    run_round(comm, fused, all_layers_, state.rounds++, ws, report,
              /*report_mutex=*/nullptr, [&] {
                packet_allreduce(comm, fused, ws);
                for (const std::size_t& l : compressed_layers_) {
                  const std::span<const std::size_t> bucket(&l, 1);
                  bucket_begin(comm, fused, bucket, rng, 0, ws);
                  bucket_finish(comm, fused, bucket, rng, 0, ws);
                }
              });
  } catch (const comm::CommError&) {
    finish_report(state);
    throw;
  }
  finish_report(state);
}

void CgxEngine::run_round(comm::Comm& comm, std::span<float> fused,
                          std::span<const std::size_t> rollback,
                          std::uint64_t round, CollectiveWorkspace& ws,
                          StepReport& report, std::mutex* report_mutex,
                          util::FunctionRef<void()> attempt) {
  const auto update = [report_mutex](auto&& fn) {
    if (report_mutex == nullptr) return fn();
    std::lock_guard<std::mutex> lock(*report_mutex);
    fn();
  };
  const auto incident = [](const comm::CommError& e) {
    return StepReport::Incident{e.src, e.dst, e.tag, e.what()};
  };
  // Elastic worlds keep retrying through re-shards: every crash consumes
  // one retry, and up to world-1 ranks can die, so the budget scales with
  // the world rather than relying on the caller to size it.
  const int retry_budget =
      comm.elastic() ? std::max(options_.max_round_retries, 2 * world_size_)
                     : options_.max_round_retries;

  if (retry_budget <= 0) {
    // Fail-fast: one attempt, failures propagate. No snapshot copy, no
    // extra branches on the hot path (the handler costs nothing until a
    // structured failure actually unwinds through it).
    update([&] { ++report.attempts; });
    try {
      attempt();
    } catch (const comm::CommError& e) {
      update([&] {
        report.ok = false;
        report.incidents.push_back(incident(e));
      });
      throw;
    }
    return;
  }

  // A failed attempt leaves the region partially reduced (collectives work
  // in place), so each attempt starts from a workspace-held snapshot.
  std::size_t numel = 0;
  for (std::size_t l : rollback) numel += layout_.layer(l).numel;
  const std::span<float> snapshot = ws.floats(kSlotRoundSnapshot, numel);
  std::size_t off = 0;
  for (std::size_t l : rollback) {
    const auto slice = layout_.slice(std::span<const float>(fused), l);
    tensor::copy(slice, snapshot.subspan(off, slice.size()));
    off += slice.size();
  }
  for (int a = 0;; ++a) {
    update([&] { ++report.attempts; });
    try {
      if (options_.injector != nullptr &&
          options_.injector->round_fails(round, a)) {
        throw comm::TimeoutError(-1, comm.rank(), -1,
                                 std::chrono::milliseconds{0},
                                 "synthetic round failure (fault harness)");
      }
      attempt();
      if (comm.elastic()) {
        // Commit fence: a step only counts when every CURRENT survivor
        // finished its attempt. A peer that died after this rank's last
        // receive would otherwise split the world into ranks that committed
        // and ranks that retried; the fence turns that into a collective
        // decision (everyone passes or everyone re-shards and retries).
        const comm::CommPolicy& pol = comm.transport().policy();
        const std::chrono::milliseconds fence =
            pol.bounded() ? pol.timeout : std::chrono::milliseconds{1000};
        if (!comm.try_barrier(fence)) {
          throw comm::TimeoutError(-1, comm.global_rank(), -1, fence,
                                   "step commit fence");
        }
      }
      return;
    } catch (const comm::CommError& e) {
      bool give_up = false;
      update([&] {
        report.incidents.push_back(incident(e));
        give_up = a >= retry_budget;
        if (give_up) {
          report.ok = false;
        } else {
          ++report.retries;
        }
      });
      if (give_up) throw;
      // Every rank must agree to retry and quiesce before buffers are
      // reused; if agreement fails the world is broken for good and the
      // TimeoutError from reshard_world propagates. In elastic mode this is
      // where a crashed peer is voted out and the plans shrink.
      reshard_world(comm);
      off = 0;
      for (std::size_t l : rollback) {
        const auto slice = layout_.slice(fused, l);
        tensor::copy(snapshot.subspan(off, slice.size()), slice);
        off += slice.size();
      }
    }
  }
}

void CgxEngine::reshard_world(comm::Comm& comm) {
  // The agreement wait must be bounded even under an unbounded policy —
  // otherwise a rank that died (rather than failed transiently) would hang
  // the retry protocol forever. 2x the policy timeout gives the slowest
  // survivor room to reach its own deadline before agreement expires.
  const comm::CommPolicy& pol = comm.transport().policy();
  const std::chrono::milliseconds timeout =
      options_.recovery_timeout.count() > 0 ? options_.recovery_timeout
      : pol.bounded()                       ? 2 * pol.timeout
                                            : std::chrono::milliseconds{1000};
  comm::Membership* membership = comm.membership();
  if (membership == nullptr) {
    // Classic (fixed-world) protocol: agree, flush own inbound, agree again
    // so a fast rank cannot push retry traffic into a channel a slow rank
    // is still resetting.
    if (!comm.try_barrier(timeout)) {
      throw comm::TimeoutError(-1, comm.rank(), -1, timeout,
                               "round-retry agreement barrier");
    }
    comm.transport().reset_inbound(comm.rank());
    if (!comm.try_barrier(timeout)) {
      throw comm::TimeoutError(-1, comm.rank(), -1, timeout,
                               "round-retry reset barrier");
    }
    return;
  }
  const auto outcome = membership->recover(
      comm, timeout, [this](const comm::WorldView& view) { apply_view(view); });
  if (outcome == comm::Membership::Recovery::kReshard) {
    // recover() already fenced the epoch, flushed every rank's inbound and
    // rebuilt the plans under its own gates; the retried attempt can start.
    return;
  }
  // Transient fault (no pending death): the classic quiesce, but over the
  // recovery gate so it can never entangle with ranks parked at the step
  // commit fence.
  if (!membership->recovery_barrier(timeout)) {
    throw comm::TimeoutError(-1, comm.global_rank(), -1, timeout,
                             "round-retry agreement barrier");
  }
  comm.transport().reset_inbound(comm.global_rank());
  if (!membership->recovery_barrier(timeout)) {
    throw comm::TimeoutError(-1, comm.global_rank(), -1, timeout,
                             "round-retry reset barrier");
  }
}

void CgxEngine::apply_view(const comm::WorldView& view) {
  const int active = view.active_count();
  CGX_CHECK_GT(active, 0);
  CGX_CHECK_LE(active, world_size_);
  active_ranks_ = view.active;
  applied_epoch_ = view.epoch;
  // Restrict the launch topology to the survivors: ranks keep their node,
  // and a dead node-leader's role falls to the lowest surviving rank on
  // that node (leaders are always the first-appearing rank).
  if (!options_.node_of.empty()) {
    topo_ = comm::Topology(options_.node_of).restrict(active_ranks_);
  }
  // The EF-drop contract: the departed rank's residual can never be
  // replayed, and a surviving rank's residual may hold contributions from
  // the aborted attempt, so every active rank restarts error feedback from
  // zero.
  // One-shot bounded gradient perturbation, bit-identical across survivors
  // (DESIGN.md §5h).
  build_rank_state(/*drop_residuals=*/true);
}

void CgxEngine::bucket_begin(comm::Comm& comm, std::span<float> fused,
                             std::span<const std::size_t> layers,
                             util::Rng& rng, int tag_base,
                             CollectiveWorkspace& ws) {
  RankState& state = ranks_[static_cast<std::size_t>(comm.global_rank())];
  const bool two_level = !options_.node_of.empty();
  const bool split =
      options_.scheme == comm::ReductionScheme::ScatterReduceAllgather;
  if (!two_level && !split) return;  // Ring/Tree: all work is in finish
  for (std::size_t l : layers) {
    const std::span<float> slice = layout_.slice(fused, l);
    if (two_level) {
      // Intra-node fold to the leader plus the leader scatter.
      hierarchical_begin(comm, slice, state.chunk_ptrs[l], rng, topo_,
                         {.compress_intra = options_.compress_intra}, ws,
                         tag_base / comm::kBucketTagStride);
    } else {
      compressed_sra_begin(comm, slice, state.chunk_ptrs[l], rng, ws,
                           tag_base);
    }
  }
}

void CgxEngine::bucket_finish(comm::Comm& comm, std::span<float> fused,
                              std::span<const std::size_t> layers,
                              util::Rng& rng, int tag_base,
                              CollectiveWorkspace& ws) {
  RankState& state = ranks_[static_cast<std::size_t>(comm.global_rank())];
  const bool two_level = !options_.node_of.empty();
  const bool split =
      options_.scheme == comm::ReductionScheme::ScatterReduceAllgather;
  for (std::size_t l : layers) {
    const std::span<float> slice = layout_.slice(fused, l);
    if (two_level) {
      hierarchical_finish(comm, slice, state.chunk_ptrs[l], rng, topo_,
                          {.compress_intra = options_.compress_intra}, ws,
                          tag_base / comm::kBucketTagStride);
    } else if (split) {
      compressed_sra_finish(comm, slice, state.chunk_ptrs[l], rng, ws,
                            tag_base);
    } else {
      compressed_allreduce(comm, slice, state.chunk_ptrs[l], rng,
                           options_.scheme, ws, tag_base);
    }
  }
  if (active_world() > 1) {
    // Per-slice averaging: multiplying each element by the same scalar is
    // bit-identical to one whole-buffer scale.
    const float inv = 1.0f / static_cast<float>(active_world());
    for (std::size_t l : layers) tensor::scale(layout_.slice(fused, l), inv);
  }
}

void CgxEngine::packet_allreduce(comm::Comm& comm, std::span<float> fused,
                                 CollectiveWorkspace& ws) {
  // Gather-scatter through the workspace: the packet and the allreduce
  // scratch live in engine-owned slots, so steady state makes no
  // allocation.
  if (packet_numel_ == 0) return;
  const std::span<float> packet = ws.floats(kSlotPacket, packet_numel_);
  std::size_t offset = 0;
  for (std::size_t l : filtered_layers_) {
    const auto slice = layout_.slice(std::span<const float>(fused), l);
    tensor::copy(slice, packet.subspan(offset, slice.size()));
    offset += slice.size();
  }
  comm::allreduce(comm, packet, options_.scheme,
                  ws.floats(kSlotCommScratch, packet_numel_));
  if (active_world() > 1) {
    tensor::scale(packet, 1.0f / static_cast<float>(active_world()));
  }
  offset = 0;
  for (std::size_t l : filtered_layers_) {
    auto slice = layout_.slice(fused, l);
    tensor::copy(packet.subspan(offset, slice.size()), slice);
    offset += slice.size();
  }
}

double CgxEngine::ef_residual_norm(int rank) const {
  // Summed (not root-of-sum-of-squares) across chunks: the controller only
  // watches the trend between replans, so any consistent aggregate works.
  double total = 0.0;
  const RankState& state = ranks_[static_cast<std::size_t>(rank)];
  for (const auto& chunks : state.per_layer) {
    for (const auto& c : chunks) {
      if (const auto* ef = dynamic_cast<const ErrorFeedback*>(c.get())) {
        total += ef->residual_norm();
      } else if (const auto* dgc = dynamic_cast<const DgcTopK*>(c.get())) {
        total += dgc->residual_norm();
      }
    }
  }
  return total;
}

std::size_t CgxEngine::scratch_high_water_bytes() const {
  std::size_t total = 0;
  for (const RankState& rank : ranks_) {
    total += rank.workspace.high_water_bytes();
    for (const auto& chunks : rank.per_layer) {
      for (const auto& c : chunks) total += c->scratch_bytes();
    }
  }
  return total;
}

void CgxEngine::for_each_round(
    std::span<const std::size_t> layers, bool fp32,
    util::FunctionRef<void(std::size_t, std::span<const simgpu::Flow>)> round)
    const {
  const int n = active_world();
  if (n <= 1) return;
  std::vector<int> world(static_cast<std::size_t>(n));
  std::iota(world.begin(), world.end(), 0);
  std::vector<simgpu::Flow> flows;
  std::size_t unit = kPacket;           // the layer the rounds serve
  std::span<Compressor* const> comps;  // empty: FP32 payloads
  const auto emit = [&] {
    if (!flows.empty()) round(unit, flows);
    flows.clear();
  };
  // Wire size of `len` floats sent through chunk compressor c.
  const auto bytes = [&](std::size_t c, std::size_t len) {
    return comps.empty()
               ? 4.0 * static_cast<double>(len)
               : static_cast<double>(comps[c]->compressed_size(len));
  };
  // SRA over the ascending dense ranks `group` (the flat SRA, and the
  // two-level leader exchange): member j aggregates chunk j, so every
  // other member sends it chunk j, then it sends its reduced chunk j back.
  const auto full_exchange = [&](std::span<const int> group,
                                 std::size_t numel) {
    const int m = static_cast<int>(group.size());
    for (const bool gather : {false, true}) {
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < m; ++j) {
          if (i == j) continue;
          const auto [first, last] = comm::chunk_range(numel, m, j);
          const double b = bytes(static_cast<std::size_t>(j), last - first);
          flows.push_back(gather ? simgpu::Flow{group[j], group[i], b}
                                 : simgpu::Flow{group[i], group[j], b});
        }
      }
      emit();
    }
  };
  const auto flat = [&](std::size_t numel) {
    switch (options_.scheme) {
      case comm::ReductionScheme::ScatterReduceAllgather:
        full_exchange(world, numel);
        return;
      case comm::ReductionScheme::Ring:
        // n-1 reduce steps (rank r sends chunk r-s), then n-1 gather steps
        // relaying the owners' payloads (rank r sends chunk r+1-s).
        for (const int phase : {0, 1}) {
          for (int s = 0; s < n - 1; ++s) {
            for (int r = 0; r < n; ++r) {
              const int c = (r + phase - s + n) % n;
              const auto [first, last] = comm::chunk_range(numel, n, c);
              flows.push_back(simgpu::Flow{
                  r, (r + 1) % n,
                  bytes(static_cast<std::size_t>(c), last - first)});
            }
            emit();
          }
        }
        return;
      case comm::ReductionScheme::Tree: {
        // Binomial reduce to rank 0, then binomial broadcast; every hop
        // carries the whole vector through compressor 0.
        const double full = bytes(0, numel);
        int top = 1;
        while (top < n) top <<= 1;
        for (int mask = top >> 1; mask >= 1; mask >>= 1) {
          for (int r = mask; r < std::min(2 * mask, n); ++r) {
            flows.push_back(simgpu::Flow{r, r - mask, full});
          }
          emit();
        }
        for (int mask = 1; mask < n; mask <<= 1) {
          for (int r = 0; r < mask && r + mask < n; ++r) {
            flows.push_back(simgpu::Flow{r, r + mask, full});
          }
          emit();
        }
        return;
      }
    }
  };
  std::size_t packet_numel = 0;
  for (const std::size_t l : layers) {
    const std::size_t numel = layout_.layer(l).numel;
    if (resolved_[l].method == Method::None) {
      packet_numel += numel;
      continue;
    }
    if (numel == 0) continue;
    unit = l;
    comps = fp32 ? std::span<Compressor* const>{}
                 : ranks_[static_cast<std::size_t>(active_ranks_.front())]
                       .chunk_ptrs[l];
    if (options_.node_of.empty()) {
      flat(numel);
      continue;
    }
    // Two-level (hierarchical.cpp): members send to their leader (through
    // the intra compressor with compress_intra), the leaders run the SRA,
    // and each leader sends the FP32 result back to its members.
    const double raw = 4.0 * static_cast<double>(numel);
    const double up =
        comps.empty() || !options_.compress_intra
            ? raw
            : bytes(static_cast<std::size_t>(topo_.num_nodes()), numel);
    for (const bool down : {false, true}) {
      for (int r = 0; r < n; ++r) {
        if (topo_.is_leader(r)) continue;
        flows.push_back(down ? simgpu::Flow{topo_.leader(r), r, raw}
                             : simgpu::Flow{r, topo_.leader(r), up});
      }
      emit();
      if (!down) full_exchange(topo_.leaders(), numel);
    }
  }
  if (packet_numel > 0) {
    // The packet is one flat FP32 collective (packet_allreduce).
    unit = kPacket;
    comps = {};
    flat(packet_numel);
  }
}

double CgxEngine::wire_bytes_of(std::span<const std::size_t> layers,
                                bool fp32) const {
  double total = 0.0;
  for_each_round(layers, fp32,
                 [&](std::size_t, std::span<const simgpu::Flow> flows) {
                   for (const simgpu::Flow& f : flows) total += f.bytes;
                 });
  return total;
}

CommPlan CgxEngine::comm_plan(const simgpu::CostModel& cost,
                              double compress_gbps) const {
  // Dense rank r runs on device r; each round of the traffic account is
  // priced as flows that start together.
  CGX_CHECK_GE(cost.topology().num_devices(), active_world());
  CommPlan plan;
  plan.per_layer_s.assign(layout_.layer_count(), 0.0);
  for_each_round(all_layers_, /*fp32=*/false,
                 [&](std::size_t l, std::span<const simgpu::Flow> flows) {
                   (l == kPacket ? plan.fused_packet_s : plan.per_layer_s[l]) +=
                       cost.round_seconds(flows);
                 });
  for (const std::size_t l : compressed_layers_) {
    const double kernel = compress_kernel_seconds(
        resolved_[l].method, 4.0 * static_cast<double>(layout_.layer(l).numel),
        compress_gbps);
    plan.per_layer_s[l] += 0.5 * kernel;
    plan.kernel_contention_s += 0.5 * kernel;
  }
  plan.wire_bytes_per_rank = wire_bytes_per_rank();
  return plan;
}

// ----------------------------------------------------------------- QNCCL

QncclEngine::QncclEngine(const tensor::LayerLayout& layout, unsigned bits,
                         std::size_t bucket_size, int world_size)
    : layout_(layout),
      bits_(bits),
      bucket_size_(bucket_size),
      world_size_(world_size) {
  CGX_CHECK_GT(world_size, 0);
  LayerCompression cfg;
  cfg.method = Method::Qsgd;
  cfg.bits = bits;
  cfg.bucket_size = bucket_size;
  ranks_.resize(static_cast<std::size_t>(world_size));
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    ranks_[r].workspace.set_arena(&util::rank_arena(static_cast<int>(r)));
  }
  for (auto& rank : ranks_) {
    for (int c = 0; c < world_size; ++c) {
      rank.chunks.push_back(make_compressor(cfg, 0));
      rank.chunk_ptrs.push_back(rank.chunks.back().get());
    }
  }
}

void QncclEngine::allreduce(comm::Comm& comm, std::span<float> fused,
                            util::Rng& rng) {
  CGX_CHECK_EQ(comm.size(), world_size_);
  // The blob path: one ring allreduce over the raw fused buffer, uniform
  // compression, no layer boundaries and no filtering.
  RankState& state = ranks_[static_cast<std::size_t>(comm.rank())];
  util::ScopedArena bind(util::rank_arena(comm.rank()));
  compressed_allreduce_ring(comm, fused, state.chunk_ptrs, rng,
                            state.workspace);
  if (world_size_ > 1) {
    tensor::scale(fused, 1.0f / static_cast<float>(world_size_));
  }
}

CommPlan QncclEngine::comm_plan(const simgpu::CostModel& cost,
                                double compress_gbps) const {
  // QNCCL sits under the framework's fused buckets (like the baseline);
  // each ~25 MB bucket is quantized as one blob inside the ring.
  constexpr double kBucketBytes = 25e6;
  CommPlan plan;
  plan.per_layer_s.assign(layout_.layer_count(), 0.0);
  if (world_size_ <= 1) return plan;
  const std::vector<int> devices = participating_devices(cost, world_size_);
  const QsgdCompressor probe(bits_, bucket_size_);
  // "Limitations in GPU resources imposed by NCCL itself ... lead to
  // non-negligible compression overhead" (§3): the kernels run at a
  // fraction of the native rate.
  const double nccl_kernel_rate = compress_gbps / 4.0;

  double bucket_numel = 0.0;
  auto flush = [&](std::size_t owner_layer) {
    if (bucket_numel <= 0.0) return;
    const auto chunk_numel = static_cast<std::size_t>(
        bucket_numel / world_size_ + 1.0);
    const double chunk_wire =
        static_cast<double>(probe.compressed_size(chunk_numel));
    const double kernel = compress_kernel_seconds(
        Method::Qsgd, 4.0 * bucket_numel, nccl_kernel_rate);
    plan.per_layer_s[owner_layer] +=
        2.0 * (world_size_ - 1) *
            cost.ring_step_seconds(devices, chunk_wire) +
        0.5 * kernel;
    plan.kernel_contention_s += 0.5 * kernel;
    plan.wire_bytes_per_rank +=
        2.0 * static_cast<double>(world_size_ - 1) * chunk_wire;
    bucket_numel = 0.0;
  };
  for (std::size_t i = layout_.layer_count(); i-- > 0;) {
    bucket_numel += static_cast<double>(layout_.layer(i).numel);
    if (4.0 * bucket_numel >= kBucketBytes) flush(i);
  }
  flush(0);
  return plan;
}

// ----------------------------------------------------------------- GRACE

GraceEngine::GraceEngine(const tensor::LayerLayout& layout, unsigned bits,
                         int world_size)
    : layout_(layout), bits_(bits), world_size_(world_size) {
  CGX_CHECK_GT(world_size, 0);
  ranks_.resize(static_cast<std::size_t>(world_size));
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    ranks_[r].workspace.set_arena(&util::rank_arena(static_cast<int>(r)));
  }
  for (auto& rank : ranks_) {
    for (const auto& info : layout.layers()) {
      LayerCompression cfg;
      cfg.method = Method::Qsgd;
      cfg.bits = bits;
      cfg.bucket_size = info.numel;  // no bucketing: one scale per tensor
      rank.layers.push_back(make_compressor(cfg, 0));
    }
  }
}

void GraceEngine::allreduce(comm::Comm& comm, std::span<float> fused,
                            util::Rng& rng) {
  CGX_CHECK_EQ(comm.size(), world_size_);
  const int n = comm.size();
  const int r = comm.rank();
  RankState& state = ranks_[static_cast<std::size_t>(r)];
  util::ScopedArena bind(util::rank_arena(r));
  CollectiveWorkspace& ws = state.workspace;

  // GRACE's reduction: compress locally, allgather everyone's payload,
  // decompress all of them and sum (no aggregating rank, every rank does
  // the full work).
  for (std::size_t l = 0; l < layout_.layer_count(); ++l) {
    std::span<float> slice = layout_.slice(fused, l);
    Compressor& compressor = *state.layers[l];
    const std::span<std::byte> mine =
        ws.bytes(kSlotGraceMine, compressor.compressed_size(slice.size()));
    const std::size_t written = compressor.compress(slice, mine, rng);
    const std::span<const std::byte> payload = mine.first(written);
    for (int p = 0; p < n; ++p) {
      if (p == r) continue;
      comm.send(p, payload, kGraceTag);
    }
    const std::span<float> decompressed =
        ws.floats(kSlotGraceDecompressed, slice.size());
    // Sum in rank order so all ranks produce bit-identical results; our own
    // contribution also goes through its payload.
    std::fill(slice.begin(), slice.end(), 0.0f);
    const std::span<std::byte> incoming =
        ws.bytes(kSlotGraceIncoming, payload.size());
    for (int p = 0; p < n; ++p) {
      if (p != r) comm.recv(p, incoming, kGraceTag);
      compressor.decompress_add(p == r ? payload : incoming, slice,
                                decompressed);
    }
  }
  if (n > 1) tensor::scale(fused, 1.0f / static_cast<float>(n));
}

CommPlan GraceEngine::comm_plan(const simgpu::CostModel& cost,
                                double compress_gbps) const {
  CommPlan plan;
  plan.per_layer_s.assign(layout_.layer_count(), 0.0);
  const std::vector<int> devices = participating_devices(cost, world_size_);
  for (std::size_t l = 0; l < layout_.layer_count(); ++l) {
    const auto& info = layout_.layer(l);
    // INT8 wire values regardless of the quantization width (§6.2), plus
    // one fp32 scale per tensor.
    const double wire = static_cast<double>(info.numel) + 4.0;
    // Every rank decompresses all N payloads (no aggregating rank), so the
    // kernel work scales with the world size.
    const double kernel = compress_kernel_seconds(
        Method::Qsgd,
        static_cast<double>(world_size_) * 2.0 *
            static_cast<double>(info.numel),
        compress_gbps);
    plan.per_layer_s[l] = cost.allgather_seconds(devices, wire) +
                          0.5 * kernel;
    plan.kernel_contention_s += 0.5 * kernel;
    plan.wire_bytes_per_rank +=
        static_cast<double>(world_size_ - 1) * wire;
  }
  return plan;
}

// ----------------------------------------------------------------- baseline

BaselineEngine::BaselineEngine(const tensor::LayerLayout& layout,
                               int world_size, bool fp16_wire)
    : layout_(layout), world_size_(world_size), fp16_wire_(fp16_wire) {
  CGX_CHECK_GT(world_size, 0);
  ranks_.resize(static_cast<std::size_t>(world_size));
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    ranks_[r].set_arena(&util::rank_arena(static_cast<int>(r)));
  }
}

void BaselineEngine::allreduce(comm::Comm& comm, std::span<float> fused,
                               util::Rng& rng) {
  (void)rng;
  CGX_CHECK_EQ(comm.size(), world_size_);
  CollectiveWorkspace& ws = ranks_[static_cast<std::size_t>(comm.rank())];
  // NCCL reduces FP16 natively when the framework trains in mixed
  // precision; numerically we keep float accumulation (NCCL sums in the
  // wire type but the difference is irrelevant here — the sim path charges
  // the halved wire size).
  for (std::size_t l = 0; l < layout_.layer_count(); ++l) {
    std::span<float> slice = layout_.slice(fused, l);
    comm::allreduce(comm, slice, comm::ReductionScheme::Ring,
                    ws.floats(kSlotCommScratch, slice.size()));
  }
  if (world_size_ > 1) {
    tensor::scale(fused, 1.0f / static_cast<float>(world_size_));
  }
}

CommPlan BaselineEngine::comm_plan(const simgpu::CostModel& cost,
                                   double compress_gbps) const {
  (void)compress_gbps;
  // DDP/Horovod fuse gradients into ~25 MB buckets before calling NCCL
  // (Tensor Fusion / DDP gradient buckets): one ring allreduce per bucket,
  // amortising per-message latency across layers. Buckets fill in gradient
  // PRODUCTION order (reverse layout order) and fire when the last layer of
  // the bucket materialises, so the bucket's cost is charged to the
  // lowest-index layer it contains.
  constexpr double kBucketBytes = 25e6;
  CommPlan plan;
  plan.per_layer_s.assign(layout_.layer_count(), 0.0);
  if (world_size_ <= 1) return plan;
  const std::vector<int> devices = participating_devices(cost, world_size_);
  const double elem_bytes = fp16_wire_ ? 2.0 : 4.0;

  double bucket_bytes = 0.0;
  auto flush = [&](std::size_t owner_layer) {
    if (bucket_bytes <= 0.0) return;
    const double chunk = bucket_bytes / world_size_;
    plan.per_layer_s[owner_layer] +=
        2.0 * (world_size_ - 1) * cost.ring_step_seconds(devices, chunk);
    plan.wire_bytes_per_rank +=
        2.0 * static_cast<double>(world_size_ - 1) * chunk;
    bucket_bytes = 0.0;
  };
  for (std::size_t i = layout_.layer_count(); i-- > 0;) {
    bucket_bytes += elem_bytes * static_cast<double>(layout_.layer(i).numel);
    if (bucket_bytes >= kBucketBytes) flush(i);
  }
  flush(0);
  return plan;
}

}  // namespace cgx::core
