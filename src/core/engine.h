// The CGX communication engine and the two baseline engines it is evaluated
// against (QNCCL, GRACE).
//
// CgxEngine is the paper's main artefact (§3/§4): it owns the per-layer
// compression policy, routes filtered layers (bias/norm) through a fused
// full-precision packet, runs the compression-aware SRA/Ring/Tree
// collectives for everything else, and exposes the same work as an analytic
// communication plan for the performance model ("real collectives,
// simulated clocks"). Its compressors hold no thread pool: a large codec
// call splits over the executor bound to the thread that makes it
// (util::thread_executor, DESIGN.md §5l), and runs serially without one.
//
// QncclEngine reproduces the QNCCL artefact's constraints (§3 "The QNCCL
// Library"): compression is applied uniformly to the raw fused buffer — no
// layer boundaries, no filters, ring reduction only, and a GPU-resource
// penalty on the compression kernels imposed by running inside NCCL.
//
// GraceEngine reproduces GRACE's QSGD configuration as characterised in
// §6.2: no bucketing (one scaling per tensor), allgather-based reduction
// instead of an optimized allreduce, and INT8 wire values even at 4-bit
// quantization.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comm/collectives.h"
#include "comm/topology.h"
#include "core/compressed_allreduce.h"
#include "core/compression_config.h"
#include "core/hierarchical.h"
#include "simgpu/cost_model.h"
#include "tensor/layer_layout.h"
#include "util/function_ref.h"

namespace cgx::comm {
class FaultInjector;  // see comm/fault.h
}  // namespace cgx::comm

namespace cgx::core {

struct EngineOptions {
  comm::ReductionScheme scheme =
      comm::ReductionScheme::ScatterReduceAllgather;
  // Heterogeneous multi-node mode (§4 "Backend Details"): intra-node
  // reduction to node leaders (peer-direct where the link allows),
  // compressed SRA with node-boundary re-compression across nodes.
  // node_of[rank] -> node id; empty = flat (single-level) communication.
  // Otherwise it must list exactly world_size ranks: the engine constructor
  // throws std::invalid_argument when it does not.
  std::vector<int> node_of;
  // Compress the intra-node reduce hop too (two-level mode only; see
  // HierarchicalOptions::compress_intra).
  bool compress_intra = false;
  // Graceful degradation: how many times CgxEngine::allreduce retries a
  // round after a structured comm failure (CommError) before rethrowing.
  // 0 (the default) preserves the seed's fail-fast behaviour and costs
  // nothing; > 0 additionally keeps a pre-round snapshot of the fused
  // buffer in the workspace so a half-reduced round can be rolled back.
  int max_round_retries = 0;
  // Upper bound on each recovery-protocol wait (agreement barriers, the
  // membership vote deadline). 0 = derive from the comm policy: twice its
  // timeout when bounded, else 1000 ms — agreement must stay bounded even
  // under an unbounded policy, or a dead peer hangs the retry forever.
  std::chrono::milliseconds recovery_timeout{0};
  // Optional fault harness hook: lets tests fail a specific round
  // deterministically (FaultInjector::schedule_round_failure). Not owned.
  comm::FaultInjector* injector = nullptr;
};

// What happened to one rank's most recent CgxEngine::allreduce call: how
// many attempts it took, which links failed with what, and whether the step
// finally succeeded. Incidents are recorded only on failure paths, so the
// fault-free steady state allocates nothing here.
struct StepReport {
  struct Incident {
    int src;
    int dst;
    int tag;
    std::string what;
  };
  // Per-phase wall-clock breakdown of one streamed step, filled by
  // AsyncGradientEngine (the synchronous engines leave it zeroed). The
  // overlap win is `comm_s - exposed_comm_s`: communication that ran while
  // the backward pass was still producing gradients. See README "Reading
  // the StepReport timing breakdown".
  struct Timing {
    double compute_s = 0.0;       // begin_step -> last bucket submission
    double compress_s = 0.0;      // round-1 compression inside bucket_begin
    double comm_s = 0.0;          // total busy time on the bucket comm path
    double exposed_comm_s = 0.0;  // wait_all() blocking time (not hidden)
    // The part of exposed_comm_s the training thread spent running codec
    // items of its comm threads' jobs inside wait_all (measured per help
    // call that ran items; 0 without overlap).
    double helped_s = 0.0;
    // exposed_comm_s as a percentage of comm_s (0 when comm_s == 0): the
    // single number the DAG-executor benches gate on — lower means more of
    // the communication ran behind compute.
    double exposed_comm_pct = 0.0;
    // Per-submission launch/finish timestamps, seconds since begin_step,
    // indexed in bucket-plan order (buckets 0..N-1, then the packet).
    // bucket == -1 marks a submission that never launched (error paths).
    // Sized by the engine at (re)build time and reset field-wise each
    // step, so the streamed hot path stays allocation-free.
    struct BucketEvent {
      int bucket = -1;      // plan index (packet = buckets.size())
      int lane = 0;         // comm lane that ran the collective
      double launch_s = 0.0;
      double finish_s = 0.0;
    };
    std::vector<BucketEvent> buckets;
  };
  bool ok = true;
  int attempts = 0;  // 1 = clean first try
  int retries = 0;
  // Elastic membership (comm/membership.h): the world this step actually
  // ran in. Non-elastic runs report epoch 0 and the launch world with no
  // movement. `departed`/`joined` compare against this rank's previous
  // step, so the step that absorbed a crash reports departed > 0 and the
  // step after a readmission reports joined > 0.
  std::uint64_t epoch = 0;
  int world = 0;
  int departed = 0;
  int joined = 0;
  // Mean bytes an active rank put on the wire for this step under the
  // engine's current policy and world: CgxEngine::wire_bytes_per_rank(),
  // cached when the rank state is (re)built. Exact for a fault-free step:
  // times the world, it equals what the transport records. The adaptive
  // policy controller's telemetry.
  double wire_bytes = 0.0;
  std::vector<Incident> incidents;
  Timing timing;
};

// Analytic communication plan for one training step, consumed by
// simgpu::simulate_step. Costs are per layer in LAYOUT order; the fused
// full-precision packet ships once, after the last gradient materialises.
struct CommPlan {
  std::vector<double> per_layer_s;
  double fused_packet_s = 0.0;
  double wire_bytes_per_rank = 0.0;  // total egress per rank per step
  // Compression kernels compete with training compute for the device
  // (Appendix A): this portion of the kernel time extends the compute
  // timeline rather than the (overlappable) communication stream.
  double kernel_contention_s = 0.0;
};

class GradientEngine {
 public:
  virtual ~GradientEngine() = default;
  // Real path: collectively reduce (average) each rank's fused gradient.
  // Called by every rank's thread with its own Comm handle and buffer.
  virtual void allreduce(comm::Comm& comm, std::span<float> fused,
                         util::Rng& rng) = 0;
  // Simulated path: the communication plan on a given machine.
  // `compress_gbps` is the device's effective quantization kernel rate.
  virtual CommPlan comm_plan(const simgpu::CostModel& cost,
                             double compress_gbps) const = 0;
  virtual std::string name() const = 0;
};

class CgxEngine final : public GradientEngine {
 public:
  CgxEngine(const tensor::LayerLayout& layout, CompressionConfig config,
            int world_size, EngineOptions options = {});

  void allreduce(comm::Comm& comm, std::span<float> fused,
                 util::Rng& rng) override;
  CommPlan comm_plan(const simgpu::CostModel& cost,
                     double compress_gbps) const override;
  std::string name() const override { return "CGX"; }

  // Policy access; call rebuild() after mutating so per-layer operators
  // match the new policy (the adaptive assigner uses this every
  // re-assignment period). Rebuild is differential: only layers whose
  // resolved policy actually changed get fresh compressors, so warmed
  // workspaces and untouched compressor scratch carry across a policy
  // switch and the steady state stays allocation-free. Compressors are
  // sized for the ACTIVE world, so a rebuild after an elastic shrink keeps
  // the survivors' plans.
  CompressionConfig& config() { return config_; }
  const CompressionConfig& config() const { return config_; }
  void rebuild();

  const tensor::LayerLayout& layout() const { return layout_; }
  int world_size() const { return world_size_; }

  // Resolved policy per layer (after filters), for inspection and tests.
  const std::vector<LayerCompression>& resolved() const { return resolved_; }

  // Layers routed to the fused full-precision packet, and its total numel.
  const std::vector<std::size_t>& filtered_layers() const {
    return filtered_layers_;
  }
  std::size_t packet_numel() const { return packet_numel_; }
  const EngineOptions& options() const { return options_; }

  // ---- Bucket entry points: the one reduction path ----
  //
  // A bucket is a subset of this engine's COMPRESSED layers; the caller
  // runs each bucket's collective on its own tag range (comm/tagspace.h)
  // and its own workspace arena, so several buckets can be in flight at
  // once. bucket_begin is the half that can start early (SRA round-1
  // compress + buffered sends; a no-op for Ring/Tree, whose hop structure
  // has no split point); bucket_finish completes the reduction and applies the
  // 1/world averaging to the bucket's slices. allreduce() is these entry
  // points too: packet_allreduce, then begin + finish of each compressed
  // layer as its own bucket on tag base 0, in layout order.
  // AsyncGradientEngine groups layers into larger buckets with their own
  // RNG streams. In two-level mode (node_of set) the bucket runs
  // hierarchical_begin/finish on its own tag lane.
  void bucket_begin(comm::Comm& comm, std::span<float> fused,
                    std::span<const std::size_t> layers, util::Rng& rng,
                    int tag_base, CollectiveWorkspace& ws);
  void bucket_finish(comm::Comm& comm, std::span<float> fused,
                     std::span<const std::size_t> layers, util::Rng& rng,
                     int tag_base, CollectiveWorkspace& ws);
  // The filtered layers' fused FP32 packet as one standalone collective
  // (gather -> uncompressed allreduce -> scatter + averaging).
  void packet_allreduce(comm::Comm& comm, std::span<float> fused,
                        CollectiveWorkspace& ws);
  // True when `rank`'s bucket_begin does work but never waits on a peer,
  // so a comm lane may run it ahead of the previous bucket's finish: flat
  // SRA (sends only) and two-level members (one post to the leader). A
  // two-level leader's begin folds its members' contributions; run early,
  // it could wait on a member whose lane is still in the previous bucket's
  // finish, which in turn waits on this leader's broadcast.
  bool begin_never_blocks(int rank) const {
    if (!options_.node_of.empty()) return !topo_.is_leader(rank);
    return options_.scheme == comm::ReductionScheme::ScatterReduceAllgather;
  }

  // The round-retry ladder every step rides: allreduce() runs its whole
  // step through it, AsyncGradientEngine each bucket and the packet.
  // `attempt` does the collective work. With a retry budget of 0 (the
  // default) that is all: a CommError is recorded in `report` and
  // rethrown. Otherwise the `rollback` layers of `fused` are snapshotted
  // into `ws` first, and each failed attempt (a CommError, or a fault
  // harness failure scheduled for `round`) is recorded, recovered through
  // reshard_world, rolled back and retried until the budget is spent.
  // Elastic comms get a budget of at least 2x the world and a commit fence
  // after each attempt. `report_mutex` (may be null) guards `report`
  // against other lanes of the same rank.
  void run_round(comm::Comm& comm, std::span<float> fused,
                 std::span<const std::size_t> rollback, std::uint64_t round,
                 CollectiveWorkspace& ws, StepReport& report,
                 std::mutex* report_mutex,
                 util::FunctionRef<void()> attempt);

  // Round-retry recovery protocol (run_round's recover step). Non-elastic
  // comms run the classic deadline-bounded agreement barrier / per-rank
  // inbound reset / second barrier. Elastic comms (comm/membership.h)
  // instead run survivor agreement: a transient
  // fault quiesces over the recovery gate; a crash re-shards the world
  // (apply_view rebuilds this engine's plans) and the retried attempt runs
  // in the shrunken world. Throws TimeoutError if agreement cannot be
  // reached. All surviving ranks must call it together.
  void reshard_world(comm::Comm& comm);

  // Rebuilds this engine's collective plans for a freshly published
  // survivor view: shrinks (or re-expands) the active world, restricts the
  // two-level topology so a dead node-leader's role falls to the lowest
  // surviving rank on its node, and gives every surviving rank fresh
  // compressors — deliberately dropping all error-feedback residuals (the
  // departed rank's residual can never be replayed, so survivors take a
  // bounded one-shot gradient perturbation instead of a permanent bias;
  // DESIGN.md §5h). Runs on the membership delta leader's thread while all
  // other participants are parked at the recovery gate.
  void apply_view(const comm::WorldView& view);

  // World the next allreduce will run in (shrinks/grows with re-shards).
  int active_world() const { return static_cast<int>(active_ranks_.size()); }

  // The traffic account: the bytes all active ranks together put on the
  // wire in one step for `layers` — each compressed layer through its own
  // collective, the filtered ones as one fused FP32 packet — summed over
  // the messages the collectives send (see for_each_round). `fp32` prices
  // every payload as raw floats over the same schedule.
  double wire_bytes_of(std::span<const std::size_t> layers,
                       bool fp32 = false) const;

  // Mean bytes an active rank puts on the wire per step, and the same
  // schedule's with every layer sent as FP32, for compression-ratio
  // reporting (Fig. 5b / Table 7).
  double wire_bytes_per_rank() const {
    return wire_bytes_of(all_layers_) / active_world();
  }
  double raw_wire_bytes_per_rank() const {
    return wire_bytes_of(all_layers_, /*fp32=*/true) / active_world();
  }

  // wire_bytes_per_rank(), cached at rebuild()/apply_view() time so
  // StepReport::wire_bytes costs nothing per step.
  double cached_wire_bytes() const { return wire_bytes_cached_; }

  // Total L2 norm of `rank`'s unsent compression residuals (ErrorFeedback
  // residuals + DGC velocity stores, summed over layer chunks). Walks every
  // compressor, so call it at replan boundaries, not per step.
  double ef_residual_norm(int rank) const;

  // Total scratch held across all ranks: per-rank workspace high-water
  // marks plus compressor-internal symbol buffers. Monotone; the
  // zero-allocation test asserts it stabilizes after the first step.
  std::size_t scratch_high_water_bytes() const;

  // What happened to `rank`'s most recent allreduce call (attempts, retried
  // rounds, failed links). Valid after that rank's call returned or threw.
  const StepReport& last_step_report(int rank) const {
    return ranks_[static_cast<std::size_t>(rank)].report;
  }

 private:
  struct RankState {
    // state[layer][chunk] — stable chunk->compressor binding (see
    // compressed_allreduce.h).
    std::vector<std::vector<std::unique_ptr<Compressor>>> per_layer;
    // Raw-pointer view of per_layer, rebuilt alongside it so allreduce()
    // never materializes a pointer vector per call.
    std::vector<std::vector<Compressor*>> chunk_ptrs;
    CollectiveWorkspace workspace;
    StepReport report;
    std::uint64_t rounds = 0;  // allreduce call index (fault-round keying)
    int last_world = 0;        // world of this rank's previous step (0 =
                               // never stepped); feeds StepReport movement
  };

  // The one place rank state is built (constructor, rebuild, apply_view):
  // resolves the policy, sizes every rank's compressors for the active
  // world and topo_, and refreshes the cached wire estimate. A layer whose
  // policy and chunk count are unchanged keeps its compressors and their
  // error-feedback residuals, unless `drop_residuals` is set.
  void build_rank_state(bool drop_residuals);

  // Fills the StepReport's world-movement fields on every allreduce exit.
  void finish_report(RankState& state);

  // The one generator behind wire_bytes_of() and comm_plan(): calls
  // `round` once per round of messages the step's collectives send for
  // `layers`, as flows between the active world's dense ranks, with the
  // layer they serve (kPacket for the fused FP32 packet). Payload sizes
  // come from the compressors the collective calls over exact
  // comm::chunk_range lengths, or 4 bytes per float when `fp32` is set.
  static constexpr std::size_t kPacket = static_cast<std::size_t>(-1);
  void for_each_round(
      std::span<const std::size_t> layers, bool fp32,
      util::FunctionRef<void(std::size_t, std::span<const simgpu::Flow>)>
          round) const;

  tensor::LayerLayout layout_;  // owned copy: engines outlive callers' layouts
  CompressionConfig config_;
  int world_size_;
  EngineOptions options_;
  // Placement of the active world (dense ranks; the launch node_of
  // restricted to the survivors). Meaningful only in two-level mode, where
  // the hierarchical collectives read it directly.
  comm::Topology topo_;
  std::vector<LayerCompression> resolved_;
  std::vector<std::size_t> filtered_layers_;  // layers routed to FP32
  std::vector<std::size_t> compressed_layers_;  // the rest, layout order
  std::vector<std::size_t> all_layers_;         // 0..n-1: a step's rollback
  std::size_t packet_numel_ = 0;              // total numel of filtered layers
  // Elastic membership: the global ranks of the active world (all of them
  // until a re-shard shrinks it) and the epoch of the last applied view.
  // ranks_ stays keyed by GLOBAL rank — a survivor keeps its slot across
  // shrinks.
  std::vector<int> active_ranks_;
  std::uint64_t applied_epoch_ = 0;
  double wire_bytes_cached_ = 0.0;  // see cached_wire_bytes()
  std::vector<RankState> ranks_;
};

class QncclEngine final : public GradientEngine {
 public:
  // The blob sees no layer names: one uniform quantization policy.
  QncclEngine(const tensor::LayerLayout& layout, unsigned bits,
              std::size_t bucket_size, int world_size);

  void allreduce(comm::Comm& comm, std::span<float> fused,
                 util::Rng& rng) override;
  CommPlan comm_plan(const simgpu::CostModel& cost,
                     double compress_gbps) const override;
  std::string name() const override { return "QNCCL"; }

 private:
  struct RankState {
    std::vector<std::unique_ptr<Compressor>> chunks;
    std::vector<Compressor*> chunk_ptrs;
    CollectiveWorkspace workspace;
  };

  tensor::LayerLayout layout_;
  unsigned bits_;
  std::size_t bucket_size_;
  int world_size_;
  std::vector<RankState> ranks_;
};

class GraceEngine final : public GradientEngine {
 public:
  GraceEngine(const tensor::LayerLayout& layout, unsigned bits,
              int world_size);

  void allreduce(comm::Comm& comm, std::span<float> fused,
                 util::Rng& rng) override;
  CommPlan comm_plan(const simgpu::CostModel& cost,
                     double compress_gbps) const override;
  std::string name() const override { return "GRACE"; }

 private:
  struct RankState {
    std::vector<std::unique_ptr<Compressor>> layers;
    CollectiveWorkspace workspace;
  };

  tensor::LayerLayout layout_;
  unsigned bits_;
  int world_size_;
  std::vector<RankState> ranks_;
};

// The uncompressed Horovod-NCCL / PyTorch-DDP baseline: plain ring
// allreduce of the fused FP32 buffer, layer by layer.
class BaselineEngine final : public GradientEngine {
 public:
  explicit BaselineEngine(const tensor::LayerLayout& layout, int world_size,
                          bool fp16_wire = false);

  void allreduce(comm::Comm& comm, std::span<float> fused,
                 util::Rng& rng) override;
  CommPlan comm_plan(const simgpu::CostModel& cost,
                     double compress_gbps) const override;
  std::string name() const override { return "NCCL-baseline"; }

 private:
  tensor::LayerLayout layout_;
  int world_size_;
  bool fp16_wire_;
  std::vector<CollectiveWorkspace> ranks_;  // per-rank allreduce scratch
};

}  // namespace cgx::core
