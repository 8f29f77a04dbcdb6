// Streaming bucketed gradient engine: overlap compressed communication
// with the backward pass.
//
// CGX's end-to-end wins (paper §4, Fig. 3) depend on communicating layers
// in reverse order as their gradients become ready, so compression and
// transfer hide behind the still-running backward compute. This facade
// streams a CgxEngine's step through the same bucket entry points its
// monolithic allreduce uses:
//
//   * A deterministic size-threshold fusion plan (BucketPlan) groups the
//     engine's compressed layers — walked in gradient PRODUCTION order,
//     i.e. reverse layout order — into buckets of ~bucket_bytes raw
//     gradient each. Filtered full-precision layers keep their fused
//     packet, which ships as the last submission.
//   * notify_layer_ready() counts each bucket down and may be called
//     concurrently (a DAG-scheduled backward fires hooks from whichever
//     executor thread ran the op; a producer-side mutex serialises the
//     countdowns). Completed
//     buckets are held in a release frontier and submitted in canonical
//     plan order (bucket 0, 1, …, packet), so every lane sees the same
//     bucket order on every rank even when per-rank completion order is
//     nondeterministic — which is what keeps the blocking collectives
//     deadlock-free.
//   * Each rank owns comm_lanes comm threads (lanes), each fed by its own
//     lock-free single-producer/single-consumer ready queue. Submissions
//     ride the lanes of a FIXED byte-balanced lane map (build_lane_map():
//     greedy least-loaded over post-compression wire-byte estimates, a
//     pure function of the shared plan so all ranks agree; all zeros for
//     one lane) on the bucket's own tag range (comm/tagspace.h), so on a
//     latency-bound fabric independent buckets drain in parallel. With
//     overlap off there are no comm threads: every submission runs inline
//     on the training thread.
//   * Within a lane, buckets alternate between two grow-only
//     CollectiveWorkspace arenas, so the begin half of the lane's next
//     bucket (SRA's round-1 compression and sends) overlaps the drain of
//     its current one. This pipelining is on whenever there are comm
//     threads, rounds are not retried and the rank's begin half cannot
//     block (CgxEngine::begin_never_blocks).
//   * With overlap on, each rank owns a caller-runs executor
//     (util::ThreadPool::CallerRuns), bound to its comm threads and, in
//     begin_step, to its training thread (util::thread_executor); it has
//     no threads of its own unless add_rank_workers gives it some. The
//     comm threads' codec calls split over it, and so do the training
//     thread's GEMMs, DAG backward and optimizer step. An idle comm thread
//     takes items of split jobs only (codec ranges, GEMM row blocks,
//     optimizer ranges), never a DAG backward's ops, which run on the
//     training thread and the executor's own workers; the training thread
//     takes codec items while it waits in wait_all.
//   * wait_all() joins the step before the optimizer runs and fills the
//     StepReport's per-phase Timing (compute / compress / comm / EXPOSED
//     comm, and the helped time inside the exposed wait) plus per-bucket
//     launch/finish timestamps and the derived exposed_comm_pct.
//
// Determinism: results are bit-identical between overlap=true and
// overlap=false, across ranks and across comm_lanes counts — because the
// bucket assignment is a pure function of layout+policy, every bucket
// folds in fixed rank order inside the collectives, and each bucket draws
// from its own RNG stream (rng.split(bucket) after one parent advance per
// step) — so the thread interleaving can only change WHEN work happens,
// never what it computes.
//
// Faults: every bucket and the packet ride CgxEngine::run_round, the same
// retry ladder as the monolithic step, over the facade's own comm-thread
// barrier. Retries turn pipelining off (recovery resets inbound channels
// and would drop the next bucket's in-flight frames) and force
// comm_lanes = 1 (recovery's world-sized comm barrier assumes exactly one
// comm thread per rank).
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "util/barrier.h"
#include "util/threadpool.h"

namespace cgx::core {

struct AsyncOptions {
  // Fusion threshold over RAW (FP32) gradient bytes: a bucket closes once
  // it holds at least this much. DDP-style ~4 MiB default.
  std::size_t bucket_bytes = std::size_t{4} << 20;
  // false = no comm threads: every bucket runs inline at submission on
  // the training thread — the bit-identical synchronous comparator the
  // equivalence suite diffs against.
  bool overlap = true;
  // Comm threads per rank. Submissions are spread over the lanes by a
  // byte-balanced map (estimated post-compression wire bytes, not bucket
  // counts — a top-k bucket costs far less lane time than an 8-bit one);
  // with a latency-bound transport, lanes drain independent buckets in
  // parallel. Clamped to comm::kMaxCommLanes; forced to 1 when overlap is
  // off or the inner engine retries rounds.
  int comm_lanes = 1;
};

// Deterministic fusion plan over a LayerLayout + resolved policy. Buckets
// hold layout indices in gradient-production (descending) order; filtered
// layers map to the trailing packet pseudo-bucket.
struct BucketPlan {
  struct Bucket {
    std::vector<std::size_t> layers;  // layout indices, descending
    std::size_t numel = 0;
    std::size_t raw_bytes = 0;
    int tag_base = 0;  // comm::bucket_tag_offset(index)
  };
  std::vector<Bucket> buckets;
  bool has_packet = false;
  // layer index -> bucket index; filtered layers -> packet_index().
  std::vector<std::int32_t> bucket_of;

  std::size_t packet_index() const { return buckets.size(); }
  // Buckets plus the packet: how many submissions one step makes.
  std::size_t total_submissions() const {
    return buckets.size() + (has_packet ? 1u : 0u);
  }
};

BucketPlan build_bucket_plan(const tensor::LayerLayout& layout,
                             std::span<const LayerCompression> resolved,
                             std::size_t bucket_bytes);

class AsyncGradientEngine final : public GradientEngine {
 public:
  // Takes ownership of the inner engine. The streaming plan covers every
  // layer either via a compressed bucket or via the packet. Two-level mode
  // (node_of set) streams too: each bucket runs hierarchical_begin/finish
  // on its own tag lane. Pipelining there is member-side only: a member
  // posts bucket k+1 to its leader while bucket k drains, but a leader
  // never begins early (CgxEngine::begin_never_blocks), since its fold
  // would wait on a member still blocked in bucket k's finish.
  AsyncGradientEngine(std::unique_ptr<CgxEngine> inner,
                      AsyncOptions options = {});
  ~AsyncGradientEngine() override;

  // Monolithic entry (GradientEngine interface): streams all layers in
  // reverse layout order through the bucket machinery. Equivalent to
  // begin_step + notify every layer + wait_all.
  void allreduce(comm::Comm& comm, std::span<float> fused,
                 util::Rng& rng) override;
  CommPlan comm_plan(const simgpu::CostModel& cost,
                     double compress_gbps) const override;
  std::string name() const override { return "CGX-overlap"; }

  // ---- Streaming API (one step per rank) ----
  // begin_step arms the per-bucket countdowns and RNG streams; every layer
  // must then be notified exactly once, in any order and from any thread
  // (DAG executor hooks included); wait_all blocks until every bucket
  // drained and rethrows the first comm-thread failure. `fused` must stay
  // valid until wait_all returns.
  void begin_step(comm::Comm& comm, std::span<float> fused, util::Rng& rng);
  void notify_layer_ready(int rank, std::size_t layer);
  void wait_all(int rank);

  // Gives each rank's executor `workers` threads of its own (overlap only;
  // inline mode has no executor). They join every job, DAG backwards
  // included. train_distributed passes TrainOptions::compute_threads.
  // Call before the first begin_step.
  void add_rank_workers(std::size_t workers);

  // Rebuild after a policy mutation (adaptive swap). Must be called while
  // the fabric is quiesced (all ranks between wait_all and the next
  // begin_step, at a barrier). Warmed arenas and unchanged compressors
  // carry across — see CgxEngine::rebuild().
  void rebuild();

  CgxEngine& inner() { return *inner_; }
  const CgxEngine& inner() const { return *inner_; }
  const BucketPlan& plan() const { return plan_; }
  const AsyncOptions& async_options() const { return options_; }
  const tensor::LayerLayout& layout() const { return inner_->layout(); }
  int comm_lanes() const { return lanes_; }
  // Lane the byte-balanced map (DESIGN.md §5j) assigns to submission
  // `idx`; all zeros when comm_lanes == 1. Fixed until the next rebuild.
  int lane_of(std::size_t idx) const { return lane_of_[idx]; }

  // What happened to `rank`'s most recent step: bucket attempts/retries,
  // incidents, and the per-phase Timing breakdown (including per-bucket
  // launch/finish stamps). `attempts` counts bucket attempts (a clean
  // step shows one per submission).
  const StepReport& last_step_report(int rank) const;

  // Facade arenas + the inner engine's scratch; monotone after warm-up.
  std::size_t scratch_high_water_bytes() const;

 private:
  // Tokens carry the submission's plan index in the low byte and the
  // lane-local parity (arena selector) in bit 8; kStopToken shuts a comm
  // thread down.
  static constexpr std::uint32_t kStopToken = 0xffffu;

  // One comm thread + its SPSC ready queue. The producer is the rank's
  // training side (under RankState::submit_mutex), the consumer the
  // lane's comm thread, which parks on the rank executor's doorbell; the
  // queue is sized so a step can never wrap unconsumed entries.
  // Heap-allocated (unique_ptr) because atomics make it immovable.
  struct Lane {
    std::thread thread;
    std::vector<std::uint32_t> queue;
    std::atomic<std::uint32_t> q_tail{0};  // producer-advanced
    std::atomic<std::uint32_t> q_head{0};  // consumer-advanced
    std::optional<comm::Comm> comm;  // comm-thread handle (facade barrier)
    std::uint32_t submitted = 0;  // lane-local; parity picks the arena
    double compress_s = 0.0;      // consumer-written, read after drain
    double comm_busy_s = 0.0;
    CollectiveWorkspace arenas[2];  // double-buffered bucket scratch
  };

  struct RankState {
    std::vector<std::unique_ptr<Lane>> lanes;
    // Overlap only: the rank's caller-runs executor (threads of its own
    // only from add_rank_workers), bound to the rank's comm threads and,
    // per step, to its training thread. Its doorbell is the one word the rank's comm threads and
    // its training thread (in wait_all) park on. Shared so that the
    // training thread's weak binding (util::thread_executor) expires with
    // this engine.
    std::shared_ptr<util::ThreadPool> executor;
    std::atomic<std::uint32_t> done{0};
    std::atomic<bool> failed{false};  // first failure poisons the step
    std::exception_ptr error;         // guarded by report_mutex
    // Comm threads of different lanes mutate the shared report
    // (attempts / retries / incidents / ok) concurrently.
    std::mutex report_mutex;
    // Serialises notify/release/submit — the producers under a DAG
    // executor are any of its threads, not one training thread.
    std::mutex submit_mutex;
    comm::Comm* inline_comm = nullptr;  // training-thread handle

    // Per-step streaming state (written under submit_mutex).
    std::span<float> fused;
    std::vector<util::Rng> bucket_rngs;
    std::vector<std::uint32_t> remaining;  // per-bucket layer countdown
    std::vector<std::uint8_t> complete;    // release frontier marks
    std::uint32_t release_cursor = 0;      // next plan index to release
    std::uint32_t submitted = 0;
    std::uint32_t notified = 0;
    std::chrono::steady_clock::time_point t_begin;
    std::chrono::steady_clock::time_point t_last_submit;

    // Comm-path state. begun[b] is raced-free without the mutex because
    // bucket b always rides the one lane lane_of_[b] names. rounds keys
    // the fault injector and is monotone across steps (never reset).
    std::vector<std::uint8_t> begun;  // bucket began early (pipelining)
    std::atomic<std::uint64_t> rounds{0};
    CollectiveWorkspace packet_ws;
    StepReport report;
  };

  void submit_locked(RankState& st, std::uint32_t idx);
  void process_token(RankState& st, Lane& lane, comm::Comm& comm,
                     std::uint32_t token);
  void run_compressed(RankState& st, Lane& lane, comm::Comm& comm,
                      std::size_t bucket, CollectiveWorkspace& ws);
  void run_packet(RankState& st, comm::Comm& comm);
  void try_begin_next(RankState& st, Lane& lane, comm::Comm& comm);
  void begin_bucket_timed(RankState& st, Lane& lane, comm::Comm& comm,
                          std::size_t bucket, CollectiveWorkspace& ws);
  void comm_thread_main(int rank, int lane_id);
  void resize_rank_state();
  void build_lane_map();

  std::unique_ptr<CgxEngine> inner_;
  AsyncOptions options_;
  BucketPlan plan_;
  // Submission plan index -> lane id: greedy byte-balanced, rebuilt with
  // the plan. All zeros when lanes_ == 1.
  std::vector<int> lane_of_;
  // Overlap on and no round retries; per rank, begin_never_blocks too.
  bool pipeline_enabled_ = false;
  int lanes_ = 1;  // resolved comm_lanes (clamped / forced to 1)
  util::Barrier comm_barrier_;  // world-sized, comm threads only
  std::vector<RankState> ranks_;
};

}  // namespace cgx::core
