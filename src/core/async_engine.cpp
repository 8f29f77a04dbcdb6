#include "core/async_engine.h"

#include <algorithm>
#include <utility>

#include "comm/tagspace.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/numa.h"
#include "util/threadpool.h"

namespace cgx::core {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

BucketPlan build_bucket_plan(const tensor::LayerLayout& layout,
                             std::span<const LayerCompression> resolved,
                             std::size_t bucket_bytes) {
  CGX_CHECK_EQ(resolved.size(), layout.layer_count());
  BucketPlan plan;
  plan.bucket_of.assign(layout.layer_count(), -1);
  BucketPlan::Bucket cur;
  auto flush = [&] {
    if (cur.layers.empty()) return;
    plan.buckets.push_back(std::move(cur));
    cur = {};
  };
  // Walk in gradient-production order (reverse layout order), closing a
  // bucket once it holds >= bucket_bytes of raw gradient. Overflow beyond
  // the tag-space cap folds into the last bucket.
  for (std::size_t i = layout.layer_count(); i-- > 0;) {
    if (resolved[i].method == Method::None) {
      plan.has_packet = true;
      continue;
    }
    cur.layers.push_back(i);
    cur.numel += layout.layer(i).numel;
    cur.raw_bytes += sizeof(float) * layout.layer(i).numel;
    if (cur.raw_bytes >= bucket_bytes &&
        plan.buckets.size() + 1 <
            static_cast<std::size_t>(comm::kMaxTagBuckets)) {
      flush();
    }
  }
  flush();
  for (std::size_t b = 0; b < plan.buckets.size(); ++b) {
    plan.buckets[b].tag_base = comm::bucket_tag_offset(static_cast<int>(b));
    for (std::size_t l : plan.buckets[b].layers) {
      plan.bucket_of[l] = static_cast<std::int32_t>(b);
    }
  }
  const auto packet = static_cast<std::int32_t>(plan.packet_index());
  for (std::size_t i = 0; i < resolved.size(); ++i) {
    if (resolved[i].method == Method::None) plan.bucket_of[i] = packet;
  }
  return plan;
}

AsyncGradientEngine::AsyncGradientEngine(std::unique_ptr<CgxEngine> inner,
                                         AsyncOptions options)
    : inner_(std::move(inner)),
      options_(options),
      comm_barrier_(static_cast<std::size_t>(inner_->world_size())),
      ranks_(static_cast<std::size_t>(inner_->world_size())) {
  plan_ = build_bucket_plan(inner_->layout(), inner_->resolved(),
                            options_.bucket_bytes);
  // Pipelining needs comm threads; retries turn it off because recovery
  // resets inbound channels, which would eat the pipelined bucket's frames.
  pipeline_enabled_ =
      options_.overlap && inner_->options().max_round_retries <= 0;
  // Retries force a single lane: recover_world's comm barrier assumes one
  // comm thread per rank. Inline mode has no comm threads at all.
  lanes_ = std::clamp(options_.comm_lanes, 1, comm::kMaxCommLanes);
  if (!options_.overlap || inner_->options().max_round_retries > 0) {
    lanes_ = 1;
  }
  build_lane_map();
  resize_rank_state();
  if (options_.overlap) {
    for (int r = 0; r < inner_->world_size(); ++r) {
      RankState& st = ranks_[static_cast<std::size_t>(r)];
      // The rank's executor: its comm threads and its training thread are
      // the only threads that run its jobs (DESIGN.md §5l).
      st.executor = std::make_shared<util::ThreadPool>(
          util::ThreadPool::CallerRuns{static_cast<std::size_t>(lanes_) + 1});
      for (int l = 0; l < lanes_; ++l) {
        st.lanes[static_cast<std::size_t>(l)]->thread =
            std::thread([this, r, l] { comm_thread_main(r, l); });
      }
    }
  }
}

void AsyncGradientEngine::add_rank_workers(std::size_t workers) {
  if (!options_.overlap) return;
  for (RankState& st : ranks_) st.executor->add_workers(workers);
}

AsyncGradientEngine::~AsyncGradientEngine() {
  for (RankState& st : ranks_) {
    for (auto& lane_ptr : st.lanes) {
      Lane& lane = *lane_ptr;
      if (!lane.thread.joinable()) continue;
      const std::uint32_t t = lane.q_tail.load(std::memory_order_relaxed);
      lane.queue[t % lane.queue.size()] = kStopToken;
      lane.q_tail.store(t + 1, std::memory_order_release);
      st.executor->ring();
      lane.thread.join();
    }
  }
}

void AsyncGradientEngine::resize_rank_state() {
  const std::size_t total = plan_.total_submissions();
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    RankState& st = ranks_[r];
    while (st.lanes.size() < static_cast<std::size_t>(lanes_)) {
      st.lanes.push_back(std::make_unique<Lane>());
    }
    // Pin every lane's double-buffered collective workspaces (and the
    // packet scratch) to the rank's arena so their grow-only slots carve
    // NUMA-local memory.
    util::Arena* arena = &util::rank_arena(static_cast<int>(r));
    for (auto& lane : st.lanes) {
      lane->arenas[0].set_arena(arena);
      lane->arenas[1].set_arena(arena);
      // Grow-only, and only while the fabric is quiesced: the consumer is
      // parked on the executor's doorbell, and the next release-store on
      // q_tail (or the trainer's barrier) publishes the resized storage.
      if (lane->queue.size() < total + 2) lane->queue.resize(total + 2);
    }
    st.packet_ws.set_arena(arena);
    if (st.remaining.size() < total) st.remaining.resize(total);
    if (st.complete.size() < total) st.complete.resize(total);
    if (st.begun.size() < plan_.buckets.size()) {
      st.begun.resize(plan_.buckets.size());
    }
    if (st.bucket_rngs.size() < total) st.bucket_rngs.resize(total);
    // Per-submission timestamp slots, plan-order indexed (packet last).
    // Sized here — NEVER in the hot path — so steady-state steps stay
    // allocation-free.
    if (st.report.timing.buckets.size() < total) {
      st.report.timing.buckets.resize(total);
    }
  }
}

void AsyncGradientEngine::rebuild() {
  inner_->rebuild();
  plan_ = build_bucket_plan(inner_->layout(), inner_->resolved(),
                            options_.bucket_bytes);
  build_lane_map();
  resize_rank_state();
}

void AsyncGradientEngine::build_lane_map() {
  const std::size_t total = plan_.total_submissions();
  lane_of_.assign(total, 0);
  // Greedy byte-balancing over the engine's traffic account
  // (CgxEngine::wire_bytes_of): each submission (plan order) goes to the
  // least-loaded lane, ties to the lowest id. Counting bytes rather than
  // buckets matters once the adaptive planner mixes codecs — a 0.1% top-k
  // bucket occupies its lane for a fraction of an 8-bit quantized one. The
  // map is a pure function of the shared plan + resolved policy, so every
  // rank computes the same map: per-lane bucket sequences stay identical
  // across ranks (deadlock freedom) and each bucket keeps a FIXED lane
  // (begun[] stays race-free).
  std::vector<double> load(static_cast<std::size_t>(lanes_), 0.0);
  for (std::size_t idx = 0; idx < total; ++idx) {
    const double bytes = inner_->wire_bytes_of(
        plan_.has_packet && idx == plan_.packet_index()
            ? std::span<const std::size_t>(inner_->filtered_layers())
            : std::span<const std::size_t>(plan_.buckets[idx].layers));
    std::size_t best = 0;
    for (std::size_t ln = 1; ln < load.size(); ++ln) {
      if (load[ln] < load[best]) best = ln;
    }
    lane_of_[idx] = static_cast<int>(best);
    load[best] += bytes;
  }
}

void AsyncGradientEngine::begin_step(comm::Comm& comm, std::span<float> fused,
                                     util::Rng& rng) {
  CGX_CHECK_EQ(comm.size(), inner_->world_size());
  CGX_CHECK_EQ(fused.size(), inner_->layout().total_numel());
  RankState& st = ranks_[static_cast<std::size_t>(comm.rank())];
  // The previous step must have fully drained (API contract).
  CGX_CHECK_EQ(st.done.load(std::memory_order_acquire), st.submitted);

  st.fused = fused;
  st.inline_comm = &comm;
  if (options_.overlap) {
    // The training thread's GEMMs, DAG backward and optimizer step run on
    // the rank's executor; the binding is weak, so it dies with this engine.
    util::bind_thread_executor(st.executor);
    for (auto& lane : st.lanes) {
      if (!lane->comm || &lane->comm->transport() != &comm.transport()) {
        // Each comm thread gets its own handle over the facade barrier so
        // its recovery barriers never mix with the training threads'
        // world barrier.
        lane->comm.emplace(comm.rank(), comm.transport(), comm_barrier_);
      }
    }
  }

  // Per-bucket RNG streams: advance the parent once per step, then derive
  // one child per submission. Identical in overlap and inline modes, so
  // the quantization noise — and with it every payload byte — matches.
  rng.next_u64();
  const std::size_t total = plan_.total_submissions();
  for (std::size_t b = 0; b < total; ++b) st.bucket_rngs[b] = rng.split(b);
  for (std::size_t b = 0; b < plan_.buckets.size(); ++b) {
    st.remaining[b] =
        static_cast<std::uint32_t>(plan_.buckets[b].layers.size());
  }
  if (plan_.has_packet) {
    st.remaining[plan_.packet_index()] =
        static_cast<std::uint32_t>(inner_->filtered_layers().size());
  }
  std::fill(st.begun.begin(), st.begun.end(), std::uint8_t{0});
  std::fill(st.complete.begin(), st.complete.end(), std::uint8_t{0});
  st.release_cursor = 0;
  st.submitted = 0;
  st.notified = 0;
  for (auto& lane : st.lanes) {
    lane->submitted = 0;
    lane->compress_s = 0.0;
    lane->comm_busy_s = 0.0;
  }
  st.error = nullptr;
  st.failed.store(false, std::memory_order_relaxed);
  st.report.ok = true;
  st.report.attempts = 0;
  st.report.retries = 0;
  st.report.incidents.clear();
  // Field-wise Timing reset: assigning a fresh Timing{} would deallocate
  // the per-bucket timestamp vector and re-grow it every step.
  st.report.timing.compute_s = 0.0;
  st.report.timing.compress_s = 0.0;
  st.report.timing.comm_s = 0.0;
  st.report.timing.exposed_comm_s = 0.0;
  st.report.timing.exposed_comm_pct = 0.0;
  st.report.timing.helped_s = 0.0;
  for (StepReport::Timing::BucketEvent& ev : st.report.timing.buckets) {
    ev.bucket = -1;
    ev.lane = 0;
    ev.launch_s = 0.0;
    ev.finish_s = 0.0;
  }
  st.done.store(0, std::memory_order_relaxed);
  st.t_begin = st.t_last_submit = std::chrono::steady_clock::now();
}

void AsyncGradientEngine::notify_layer_ready(int rank, std::size_t layer) {
  RankState& st = ranks_[static_cast<std::size_t>(rank)];
  CGX_CHECK_LT(layer, plan_.bucket_of.size());
  const std::int32_t b = plan_.bucket_of[layer];
  CGX_CHECK_GE(b, 0);
  // Producers may be several threads of a DAG job; the mutex serialises the
  // countdowns and keeps the release frontier coherent. Uncontended in
  // the classic single-training-thread flow.
  std::lock_guard<std::mutex> lock(st.submit_mutex);
  ++st.notified;
  std::uint32_t& rem = st.remaining[static_cast<std::size_t>(b)];
  CGX_CHECK_GT(rem, 0u);
  if (--rem != 0) return;
  // Canonical-order release: hold the completed submission until every
  // lower plan index went out, then drain the frontier. Every rank
  // therefore feeds each lane the identical bucket sequence regardless of
  // which branch of its backward DAG finished first.
  st.complete[static_cast<std::size_t>(b)] = 1;
  const auto total =
      static_cast<std::uint32_t>(plan_.total_submissions());
  while (st.release_cursor < total && st.complete[st.release_cursor]) {
    submit_locked(st, st.release_cursor);
    ++st.release_cursor;
  }
}

void AsyncGradientEngine::submit_locked(RankState& st, std::uint32_t idx) {
  Lane& lane = *st.lanes[static_cast<std::size_t>(lane_of_[idx])];
  // Token = plan index | lane-local submission parity. The parity picks
  // the lane's arena, and because a lane drains tokens in submission
  // order, two adjacent in-flight buckets OF THAT LANE always sit on
  // different arenas.
  const std::uint32_t token = idx | ((lane.submitted & 1u) << 8);
  ++lane.submitted;
  ++st.submitted;
  st.t_last_submit = std::chrono::steady_clock::now();
  StepReport::Timing::BucketEvent& ev = st.report.timing.buckets[idx];
  ev.bucket = static_cast<int>(idx);
  ev.lane = lane_of_[idx];
  ev.launch_s = std::chrono::duration<double>(st.t_last_submit - st.t_begin)
                    .count();
  if (!options_.overlap) {
    process_token(st, lane, *st.inline_comm, token);
    return;
  }
  const std::uint32_t t = lane.q_tail.load(std::memory_order_relaxed);
  lane.queue[t % lane.queue.size()] = token;
  lane.q_tail.store(t + 1, std::memory_order_release);
  st.executor->ring();
}

void AsyncGradientEngine::comm_thread_main(int rank, int lane_id) {
  // Home the comm thread next to its training thread and bind its transient
  // collective scratch to the rank arena: everything the token loop grows
  // (compression payloads, ring slabs it first-touches) stays node-local.
  util::numa::pin_current_thread_for_rank(rank);
  util::ScopedArena bind(util::rank_arena(rank));
  RankState& st = ranks_[static_cast<std::size_t>(rank)];
  Lane& lane = *st.lanes[static_cast<std::size_t>(lane_id)];
  // The lane's codec calls split over the rank's executor too.
  util::bind_thread_executor(st.executor);
  util::ThreadPool& executor = *st.executor;
  for (;;) {
    // Doorbell first, then the queue, then the executor's job slot: a
    // token or job posted after the read changes the doorbell, so the park
    // below cannot miss it. No spinning — everything here shares cores
    // with the training threads.
    const std::uint32_t seen = executor.doorbell();
    const std::uint32_t h = lane.q_head.load(std::memory_order_relaxed);
    if (lane.q_tail.load(std::memory_order_acquire) != h) {
      const std::uint32_t token = lane.queue[h % lane.queue.size()];
      lane.q_head.store(h + 1, std::memory_order_relaxed);
      if (token == kStopToken) return;
      process_token(st, lane, *lane.comm, token);
      continue;
    }
    // Idle: take items of a split job the rank's training thread (a GEMM,
    // an optimizer step) or another lane (a codec call) has in the slot.
    // A DAG backward's ops are left to the training thread and the
    // executor's own workers: an op can run for a whole layer, and the
    // lane's next bucket would wait behind it.
    if (!executor.help(util::ThreadPool::Jobs::kSplitOnly)) {
      executor.wait_doorbell(seen);
    }
  }
}

void AsyncGradientEngine::process_token(RankState& st, Lane& lane,
                                        comm::Comm& comm,
                                        std::uint32_t token) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t bucket = token & 0xffu;
  if (!st.failed.load(std::memory_order_acquire)) {
    try {
      if (bucket == plan_.packet_index()) {
        run_packet(st, comm);
      } else {
        run_compressed(st, lane, comm, bucket,
                       lane.arenas[(token >> 8) & 1u]);
      }
    } catch (...) {
      // First failure poisons the step: remaining tokens complete without
      // touching the fabric, and wait_all rethrows on the training thread.
      std::lock_guard<std::mutex> lock(st.report_mutex);
      if (!st.error) st.error = std::current_exception();
      st.failed.store(true, std::memory_order_release);
    }
  }
  lane.comm_busy_s += seconds_since(t0);
  // Plan-order slot; only this lane ever touches this submission, and the
  // release-store on `done` publishes the stamp to wait_all's reader.
  st.report.timing.buckets[bucket].finish_s = seconds_since(st.t_begin);
  st.done.fetch_add(1, std::memory_order_release);
  if (options_.overlap) st.executor->ring();  // wakes wait_all
}

void AsyncGradientEngine::begin_bucket_timed(RankState& st, Lane& lane,
                                             comm::Comm& comm,
                                             std::size_t bucket,
                                             CollectiveWorkspace& ws) {
  const auto t0 = std::chrono::steady_clock::now();
  const BucketPlan::Bucket& b = plan_.buckets[bucket];
  inner_->bucket_begin(comm, st.fused, b.layers, st.bucket_rngs[bucket],
                       b.tag_base, ws);
  lane.compress_s += seconds_since(t0);
}

void AsyncGradientEngine::try_begin_next(RankState& st, Lane& lane,
                                         comm::Comm& comm) {
  // Peek THIS lane's next submitted-but-unprocessed token: if it is a
  // compressed bucket, run its non-blocking begin half now (round-1
  // compression + buffered sends on the lane's OTHER arena) so it
  // overlaps the current bucket's drain. Consumer-side only; q_head
  // already points past the current token.
  const std::uint32_t next = lane.q_head.load(std::memory_order_relaxed);
  if (lane.q_tail.load(std::memory_order_acquire) == next) return;
  const std::uint32_t token = lane.queue[next % lane.queue.size()];
  if (token == kStopToken) return;
  const std::size_t bucket = token & 0xffu;
  if (bucket >= plan_.buckets.size()) return;  // packet has no begin half
  if (st.begun[bucket]) return;
  begin_bucket_timed(st, lane, comm, bucket,
                     lane.arenas[(token >> 8) & 1u]);
  st.begun[bucket] = 1;
}

void AsyncGradientEngine::run_compressed(RankState& st, Lane& lane,
                                         comm::Comm& comm,
                                         std::size_t bucket,
                                         CollectiveWorkspace& ws) {
  const BucketPlan::Bucket& b = plan_.buckets[bucket];
  util::Rng& rng = st.bucket_rngs[bucket];
  inner_->run_round(
      comm, st.fused, b.layers,
      st.rounds.fetch_add(1, std::memory_order_relaxed), ws, st.report,
      &st.report_mutex, [&] {
        // A pipelined begin is consumed once; a retried attempt (which
        // rolled the slices back) runs its own begin half.
        if (!std::exchange(st.begun[bucket], std::uint8_t{0})) {
          begin_bucket_timed(st, lane, comm, bucket, ws);
        }
        if (pipeline_enabled_ && inner_->begin_never_blocks(comm.rank())) {
          try_begin_next(st, lane, comm);
        }
        inner_->bucket_finish(comm, st.fused, b.layers, rng, b.tag_base, ws);
      });
}

void AsyncGradientEngine::run_packet(RankState& st, comm::Comm& comm) {
  // No rollback region: the packet gathers from `fused` afresh on every
  // attempt and scatters back only after its collective succeeded.
  inner_->run_round(
      comm, st.fused, {}, st.rounds.fetch_add(1, std::memory_order_relaxed),
      st.packet_ws, st.report, &st.report_mutex,
      [&] { inner_->packet_allreduce(comm, st.fused, st.packet_ws); });
}

void AsyncGradientEngine::wait_all(int rank) {
  RankState& st = ranks_[static_cast<std::size_t>(rank)];
  CGX_CHECK_EQ(st.notified, plan_.bucket_of.size())
      << "every layer must be notified before wait_all";
  const std::uint32_t expected = st.submitted;
  const auto t0 = std::chrono::steady_clock::now();
  double helped = 0.0;
  if (options_.overlap) {
    // While buckets drain, the training thread takes codec items of the
    // comm threads' jobs instead of sleeping; process_token rings the
    // doorbell after each bucket, so the park cannot miss the last one.
    util::ThreadPool& executor = *st.executor;
    for (;;) {
      const std::uint32_t seen = executor.doorbell();
      if (st.done.load(std::memory_order_acquire) >= expected) break;
      const auto h0 = std::chrono::steady_clock::now();
      if (executor.help()) {
        helped += seconds_since(h0);
        continue;
      }
      executor.wait_doorbell(seen);
    }
  }
  const double exposed = seconds_since(t0);

  StepReport& report = st.report;
  report.timing.compute_s =
      std::chrono::duration<double>(st.t_last_submit - st.t_begin).count();
  double compress_s = 0.0;
  double comm_busy_s = 0.0;
  for (const auto& lane : st.lanes) {
    compress_s += lane->compress_s;
    comm_busy_s += lane->comm_busy_s;
  }
  report.timing.compress_s = compress_s;
  report.timing.comm_s = comm_busy_s;
  report.timing.helped_s = helped;
  // Inline mode runs every bucket on the training thread, so all of its
  // communication sits on the critical path.
  report.timing.exposed_comm_s = options_.overlap ? exposed : comm_busy_s;
  report.timing.exposed_comm_pct =
      comm_busy_s > 0.0
          ? 100.0 * report.timing.exposed_comm_s / comm_busy_s
          : 0.0;
  report.wire_bytes = inner_->cached_wire_bytes();

  if (st.failed.load(std::memory_order_acquire)) {
    report.ok = false;
    std::exception_ptr e;
    {
      std::lock_guard<std::mutex> lock(st.report_mutex);
      e = st.error;
      st.error = nullptr;
    }
    st.failed.store(false, std::memory_order_relaxed);
    if (e) std::rethrow_exception(e);
  }
}

void AsyncGradientEngine::allreduce(comm::Comm& comm, std::span<float> fused,
                                    util::Rng& rng) {
  begin_step(comm, fused, rng);
  const int rank = comm.rank();
  for (std::size_t l = plan_.bucket_of.size(); l-- > 0;) {
    notify_layer_ready(rank, l);
  }
  wait_all(rank);
}

CommPlan AsyncGradientEngine::comm_plan(const simgpu::CostModel& cost,
                                        double compress_gbps) const {
  return inner_->comm_plan(cost, compress_gbps);
}

const StepReport& AsyncGradientEngine::last_step_report(int rank) const {
  return ranks_[static_cast<std::size_t>(rank)].report;
}

std::size_t AsyncGradientEngine::scratch_high_water_bytes() const {
  std::size_t total = inner_->scratch_high_water_bytes();
  for (const RankState& st : ranks_) {
    for (const auto& lane : st.lanes) {
      total += lane->arenas[0].high_water_bytes() +
               lane->arenas[1].high_water_bytes();
    }
    total += st.packet_ws.high_water_bytes();
  }
  return total;
}

}  // namespace cgx::core
