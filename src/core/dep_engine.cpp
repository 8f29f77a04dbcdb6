#include "core/dep_engine.h"

#include <algorithm>
#include <stdexcept>

#include "util/check.h"
#include "util/threadpool.h"

namespace cgx::core {

DepEngine::VarId DepEngine::new_var() {
  vars_.push_back(Var{});
  return static_cast<VarId>(vars_.size() - 1);
}

void DepEngine::add_edge(OpId from, OpId to) {
  if (from == to) return;  // read-modify-write of the same op, not an edge
  Op& dst = ops_[to];
  if (std::find(dst.deps.begin(), dst.deps.end(), from) != dst.deps.end()) {
    return;  // same predecessor reached via several variables
  }
  dst.deps.push_back(from);
  ops_[from].dependents.push_back(to);
}

DepEngine::OpId DepEngine::push(std::function<void()> fn,
                                std::span<const VarId> reads,
                                std::span<const VarId> writes) {
  CGX_CHECK(fn != nullptr);
  const OpId id = static_cast<OpId>(ops_.size());
  CGX_CHECK_LT(id, kNoOp);
  ops_.push_back(Op{std::move(fn), {}, {}});
  // RAW: a read waits for the variable's last writer.
  for (VarId v : reads) {
    CGX_CHECK_LT(v, vars_.size());
    if (vars_[v].last_writer != kNoOp) add_edge(vars_[v].last_writer, id);
    vars_[v].readers_since_write.push_back(id);
  }
  // WAW + WAR: a write waits for the last writer and every reader since.
  for (VarId v : writes) {
    CGX_CHECK_LT(v, vars_.size());
    if (vars_[v].last_writer != kNoOp) add_edge(vars_[v].last_writer, id);
    for (OpId r : vars_[v].readers_since_write) add_edge(r, id);
    vars_[v].last_writer = id;
    vars_[v].readers_since_write.clear();
  }
  validated_ = false;
  return id;
}

void DepEngine::add_dep(OpId op, OpId after) {
  CGX_CHECK_LT(op, ops_.size());
  CGX_CHECK_LT(after, ops_.size());
  add_edge(after, op);
  validated_ = false;
}

void DepEngine::validate_acyclic() {
  // Derived edges always point from an earlier op to a later one, so only
  // add_dep can create a cycle — but validation is cheap enough to run
  // unconditionally after any topology change.
  const std::size_t n = ops_.size();
  kahn_deg_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    kahn_deg_[i] = static_cast<std::uint32_t>(ops_[i].deps.size());
  }
  kahn_queue_.clear();
  kahn_queue_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (kahn_deg_[i] == 0) kahn_queue_.push_back(static_cast<OpId>(i));
  }
  std::size_t processed = 0;
  while (processed < kahn_queue_.size()) {
    const OpId id = kahn_queue_[processed++];
    for (OpId d : ops_[id].dependents) {
      if (--kahn_deg_[d] == 0) kahn_queue_.push_back(d);
    }
  }
  if (processed != n) {
    throw std::runtime_error(
        "DepEngine: dependency cycle detected (op graph is not a DAG)");
  }
  ready_heap_.reserve(n);
  validated_ = true;
}

void DepEngine::run() {
  if (ops_.empty()) return;
  if (!validated_) validate_acyclic();
  const std::shared_ptr<util::ThreadPool> executor = util::thread_executor();
  if (executor == nullptr || !run_job(*executor)) run_serial();
}

void DepEngine::run_serial() {
  // Deterministic topological order: among all ready ops, always execute
  // the smallest op id. This is the reference schedule the job mode must
  // match bit-for-bit (given the determinism contract in the header).
  const std::size_t n = ops_.size();
  serial_pending_.resize(n);
  ready_heap_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    serial_pending_[i] = static_cast<std::uint32_t>(ops_[i].deps.size());
    if (serial_pending_[i] == 0) ready_heap_.push_back(static_cast<OpId>(i));
  }
  std::make_heap(ready_heap_.begin(), ready_heap_.end(),
                 std::greater<OpId>{});
  std::size_t done = 0;
  while (!ready_heap_.empty()) {
    std::pop_heap(ready_heap_.begin(), ready_heap_.end(),
                  std::greater<OpId>{});
    const OpId id = ready_heap_.back();
    ready_heap_.pop_back();
    ops_[id].fn();  // exceptions propagate to the caller directly
    if (on_complete_) on_complete_(id);
    ++done;
    for (OpId d : ops_[id].dependents) {
      if (--serial_pending_[d] == 0) {
        ready_heap_.push_back(d);
        std::push_heap(ready_heap_.begin(), ready_heap_.end(),
                       std::greater<OpId>{});
      }
    }
  }
  CGX_CHECK_EQ(done, n);  // guaranteed by validate_acyclic()
}

bool DepEngine::run_job(util::ThreadPool& executor) {
  const std::size_t n = ops_.size();
  if (job_cap_ < n) {
    pending_.reset(new std::atomic<std::uint32_t>[n]);
    ready_.reset(new std::atomic<OpId>[n]);
    job_cap_ = n;
  }
  std::uint32_t roots = 0;
  for (std::size_t i = 0; i < n; ++i) {
    pending_[i].store(static_cast<std::uint32_t>(ops_[i].deps.size()),
                      std::memory_order_relaxed);
    ready_[i].store(kNoOp, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (ops_[i].deps.empty()) {
      ready_[roots++].store(static_cast<OpId>(i), std::memory_order_relaxed);
    }
  }
  // The roots are the first published items; try_run's release of the
  // job slot makes these stores visible to every thread that joins.
  tail_.store(roots, std::memory_order_relaxed);
  published_.store(roots, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  error_ = nullptr;
  executor_ = &executor;
  if (!executor.try_run(n, &published_, [this](std::size_t slot) {
        run_op(ready_[slot].load(std::memory_order_acquire));
      })) {
    return false;
  }
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
  return true;
}

void DepEngine::run_op(OpId id) {
  Op& op = ops_[id];
  if (!failed_.load(std::memory_order_acquire)) {
    try {
      op.fn();
      if (on_complete_) on_complete_(id);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!error_) error_ = std::current_exception();
      failed_.store(true, std::memory_order_release);
    }
  }
  // Release dependents even after a failure so the job drains and run()
  // can return (their bodies are skipped by the failed_ check above).
  for (OpId d : op.dependents) {
    if (pending_[d].fetch_sub(1, std::memory_order_acq_rel) == 1) publish(d);
  }
}

void DepEngine::publish(OpId id) {
  const std::uint32_t slot = tail_.fetch_add(1, std::memory_order_relaxed);
  ready_[slot].store(id, std::memory_order_seq_cst);
  // Move the published bound over every written slot. Slots can be written
  // out of order; whichever publisher writes last in the bound's way moves
  // it past both, because sequentially consistent stores and loads keep
  // two publishers from each missing the other's slot.
  const auto n = static_cast<std::uint32_t>(ops_.size());
  std::uint32_t p = published_.load(std::memory_order_seq_cst);
  while (p < n && ready_[p].load(std::memory_order_seq_cst) != kNoOp) {
    if (published_.compare_exchange_weak(p, p + 1,
                                         std::memory_order_seq_cst)) {
      ++p;
    }
  }
  executor_->ring();
}

void DepEngine::clear() {
  ops_.clear();
  vars_.clear();
  validated_ = false;
}

}  // namespace cgx::core
