// Thread pool and caller-runs parallel_for executor.
//
// parallel_for posts one job into the pool's single job slot and runs its
// items on the calling thread (the owner); the pool's workers and any
// external helper threads that call help() claim items alongside it. The
// callable is a util::FunctionRef and the job slot is a member, so a job
// allocates nothing. Because the owner runs items itself, a job always
// finishes even when no other thread ever joins it, which is what lets a
// pool have no threads of its own (ThreadPool(CallerRuns{width})): each
// AsyncGradientEngine rank has one, helped by its comm thread while that
// thread's queue is empty and by its training thread inside wait_all
// (DESIGN.md §5l).
//
// Items must be independent: which thread runs which item, and in what
// order, is unspecified. Callers that need bit-identical results (QSGD's
// bucket ranges, GEMM row blocks, the optimizers' element ranges) split
// work so that an item's output does not depend on the split.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/function_ref.h"

namespace cgx::util {

class ThreadPool {
 public:
  // threads == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  // An executor with no threads of its own: jobs run on their owner and on
  // whichever threads call help(). `width` is the number of threads meant
  // to share a job (the owner plus its expected helpers); it is what size()
  // reports, so callers that size their chunking by size() split for it.
  struct CallerRuns {
    std::size_t width;
  };
  explicit ThreadPool(CallerRuns mode);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // How many threads one job is meant to spread over: the worker count, or
  // a CallerRuns pool's width.
  std::size_t size() const { return width_; }

  // Enqueues a task; fire-and-forget. Use wait_idle() to join logically.
  void submit(std::function<void()> task);

  // Allocation-free task path for schedulers that replay a fixed op graph
  // every step (core::DepEngine). Tasks are a plain (fn, ctx, arg) triple
  // held in a grow-only ring, so after reserve_raw() has sized it the hot
  // path never touches the heap (std::function submission allocates both
  // its queue node and, often, its callable). Raw tasks run before queued
  // std::function tasks; ordering between the two classes is otherwise
  // unspecified.
  using RawFn = void (*)(void* ctx, std::size_t arg);
  void submit_raw(RawFn fn, void* ctx, std::size_t arg);
  // Pre-grows the raw ring to hold at least `capacity` pending tasks.
  // Grow-only; cheap when already large enough.
  void reserve_raw(std::size_t capacity);

  // Blocks until the queue is empty and no task is running.
  void wait_idle();

  // Runs fn(i) for every i in [0, n) and returns once all have run. The
  // calling thread claims items from the job slot until none are left;
  // workers and helpers claim the rest. Runs the loop serially on the
  // caller when n < 2, when the caller is a pool worker or is already
  // running an item of some job (nesting), or when another owner holds the
  // slot. If items throw, the first exception is rethrown here once every
  // claimed item has finished; items not yet claimed are skipped.
  void parallel_for(std::size_t n, FunctionRef<void(std::size_t)> fn);

  // ---- External helpers ----
  // help() runs items of the job in the slot, if there is one, and returns
  // whether it ran any. A helper reads doorbell() BEFORE it looks for work
  // (its own queue, then help()) and parks with wait_doorbell(seen) when it
  // found none: the doorbell changes on every job post and every ring(), so
  // nothing posted in between is missed.
  bool help();
  std::uint32_t doorbell() const {
    return doorbell_.load(std::memory_order_acquire);
  }
  void wait_doorbell(std::uint32_t seen) const {
    doorbell_.wait(seen, std::memory_order_acquire);
  }
  // Changes the doorbell and wakes every parked thread. Owners of other
  // work a helper waits for (a comm thread's token queue, the training
  // thread's done count) ring it when that work arrives.
  void ring() { ring_doorbell(/*all=*/true); }

 private:
  struct RawTask {
    RawFn fn;
    void* ctx;
    std::size_t arg;
  };

  // users_ bits: the slot is owned, the job is open to helpers, and the
  // count of helpers inside it.
  static constexpr std::uint32_t kOwned = 1u << 31;
  static constexpr std::uint32_t kOpen = 1u << 30;
  static constexpr std::uint32_t kHelperMask = kOpen - 1;

  void ring_doorbell(bool all);
  // Claims and runs items of the current job until none are left; returns
  // whether it ran any.
  bool run_items();
  void worker_loop();
  void grow_raw_locked(std::size_t capacity);

  std::size_t width_ = 0;
  std::vector<std::thread> workers_;

  // The job slot. Written by the owner while it holds kOwned and no
  // helper is inside; read by helpers after they enter (users_ acquire).
  std::atomic<std::uint32_t> users_{0};
  const FunctionRef<void(std::size_t)>* job_fn_ = nullptr;
  std::uint32_t job_n_ = 0;
  std::atomic<std::uint32_t> next_{0};  // next unclaimed item
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;  // written by the first failing item only

  mutable std::atomic<std::uint32_t> doorbell_{0};

  std::queue<std::function<void()>> queue_;
  std::vector<RawTask> raw_ring_;  // FIFO ring guarded by mutex_
  std::size_t raw_head_ = 0;
  std::size_t raw_count_ = 0;
  std::mutex mutex_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

// The executor bound to the calling thread: AsyncGradientEngine::begin_step
// binds its rank's CallerRuns pool to the training thread, and the nn
// optimizers split their element ranges over it. The binding is weak, so a
// thread whose engine was destroyed gets null and runs serially.
void bind_thread_executor(std::weak_ptr<ThreadPool> executor);
std::shared_ptr<ThreadPool> thread_executor();

}  // namespace cgx::util
