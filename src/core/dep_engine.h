// Read/write-set dependency engine for DAG-scheduled execution.
//
// The MXNet note-engine design: ops declare which variables they READ and
// which they WRITE, and the engine derives the dependency edges at push
// time — a read depends on the variable's last writer (RAW), a write
// depends on the last writer (WAW) and on every read issued since it
// (WAR). A topological scheduler then fires ops the moment their
// dependencies resolve: serially in deterministic ascending-op-id order,
// or, when the calling thread has an executor bound
// (util::thread_executor), as one executor job whose items are ready ops.
//
// This is what lets the backward pass of a branchy model (nn::Graph — skip
// joins, multi-tower) run independent branches concurrently AND ship each
// gradient bucket the instant its true producers finish, instead of
// waiting for its turn in Sequential's strict reverse-layer walk
// (core/async_engine.h consumes the completions via gradient-ready hooks).
//
// Determinism contract (DESIGN.md §5i):
//  * The op graph is a pure function of push order; op ids are stable.
//  * Per-op randomness must come from op_rng(parent, id) — a stream split
//    by stable op id — never from a shared sequential generator.
//  * Any accumulation across ops (fan-in joins) must happen in an op that
//    depends on all contributors and sums them in a fixed order.
//  Under those rules results are bit-identical with and without an
//  executor, for any number of helpers: the scheduler can only change WHEN
//  an op runs, never what it computes.
//
// Replay: a recorded graph is re-run every step via run(); the hot path is
// allocation-free after the first run (the pending counters and the ready
// array are grow-only storage).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "util/rng.h"

namespace cgx::util {
class ThreadPool;
}  // namespace cgx::util

namespace cgx::core {

class DepEngine {
 public:
  using OpId = std::uint32_t;
  using VarId = std::uint32_t;
  static constexpr OpId kNoOp = 0xffffffffu;

  DepEngine() = default;
  DepEngine(const DepEngine&) = delete;
  DepEngine& operator=(const DepEngine&) = delete;

  // Registers a fresh variable (no writer yet).
  VarId new_var();
  std::size_t var_count() const { return vars_.size(); }

  // Appends an op with the given read/write sets; returns its stable id
  // (push order). A variable may appear in both sets (read-modify-write).
  OpId push(std::function<void()> fn, std::span<const VarId> reads,
            std::span<const VarId> writes);
  OpId push(std::function<void()> fn, std::initializer_list<VarId> reads,
            std::initializer_list<VarId> writes) {
    return push(std::move(fn), std::span<const VarId>(reads.begin(),
                                                      reads.size()),
                std::span<const VarId>(writes.begin(), writes.size()));
  }

  // Explicit edge: `op` must not start before `after` finished. Lets
  // callers serialize ops whose conflict is not visible through variables
  // (e.g. a shared non-reentrant resource). Cycles introduced here are
  // caught by run()'s validation.
  void add_dep(OpId op, OpId after);

  // Fired after each op's body returns (same thread as the body). This is
  // the earliest-ready hook: nn::Graph uses it to notify the async engine
  // that a node's gradients are final. Must be thread-safe when an
  // executor runs the graph.
  void set_on_complete(std::function<void(OpId)> cb) {
    on_complete_ = std::move(cb);
  }

  std::size_t op_count() const { return ops_.size(); }

  // The per-op RNG stream of the determinism contract.
  static util::Rng op_rng(const util::Rng& parent, OpId id) {
    return parent.split(id);
  }

  // Executes the whole graph once and blocks until every op completed.
  // Validates acyclicity (throws std::runtime_error on a cycle) the first
  // run after a topology change. With no executor bound to the calling
  // thread (or when its job slot is taken, or inside another job's item)
  // ops run serially on the caller, always picking the smallest ready op
  // id, and the first op exception propagates immediately. Otherwise the
  // graph runs as one executor job: the caller owns it, the executor's
  // workers and helpers take ready ops, and the first failure skips the
  // remaining op bodies and is rethrown after the graph drained. The graph
  // stays intact for replay.
  void run();

  // Drops all ops and variables (keeps storage capacity for re-recording).
  void clear();

 private:
  struct Var {
    OpId last_writer = kNoOp;
    std::vector<OpId> readers_since_write;
  };
  struct Op {
    std::function<void()> fn;
    std::vector<OpId> deps;        // must finish before this op
    std::vector<OpId> dependents;  // released when this op finishes
  };

  void add_edge(OpId from, OpId to);  // from finishes before to starts
  void validate_acyclic();            // Kahn's algorithm; throws on cycle
  void run_serial();
  // Runs the graph as a job on `executor`; false if it could not be posted.
  bool run_job(util::ThreadPool& executor);
  void run_op(OpId id);           // an op's body, then its dependents
  void publish(OpId id);          // appends a ready op to the job

  std::vector<Var> vars_;
  std::vector<Op> ops_;
  std::function<void(OpId)> on_complete_;
  bool validated_ = false;  // acyclicity proven since last topology change

  // Replay scratch, grow-only so steady-state runs allocate nothing.
  std::vector<std::uint32_t> serial_pending_;
  std::vector<OpId> ready_heap_;       // serial mode: min-heap on op id
  std::vector<std::uint32_t> kahn_deg_;
  std::vector<OpId> kahn_queue_;

  // Job-mode run state. ready_ lists ops in the order they became ready
  // (kNoOp: slot not written yet); the job's item i is op ready_[i].
  // tail_ hands out slots, and published_, the job's published bound,
  // covers the longest prefix of written slots.
  std::unique_ptr<std::atomic<std::uint32_t>[]> pending_;
  std::unique_ptr<std::atomic<OpId>[]> ready_;
  std::size_t job_cap_ = 0;
  std::atomic<std::uint32_t> tail_{0};
  std::atomic<std::uint32_t> published_{0};
  util::ThreadPool* executor_ = nullptr;
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
  std::mutex error_mutex_;
};

}  // namespace cgx::core
