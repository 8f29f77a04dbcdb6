// The caller-runs executor: one per rank, found through the thread binding.
//
// A job is n items with a claim counter and a "published" bound: threads
// claim items below the bound, one at a time. parallel_for publishes all n
// items when it posts; a DAG job (core::DepEngine) publishes its root ops
// and each finished op publishes the dependents it made ready. The job runs
// on the thread that posted it (the owner); the pool's workers and any
// external helper threads that call help() claim published items alongside
// it and leave when there are none, so a helper never blocks. Only the
// owner waits, and only for items already running, whose completion
// publishes more. The callable is a util::FunctionRef and the job slot is a
// member, so a job allocates nothing. Because the owner runs items itself,
// a job always finishes even when no other thread ever joins it, which is
// what lets a pool have no threads of its own (ThreadPool(CallerRuns{width})).
//
// A rank reaches its executor one way: util::thread_executor(), the
// executor bound to the calling thread. The trainer binds one to each
// rank's training thread (TrainOptions::compute_threads workers); a
// streaming AsyncGradientEngine binds its rank's executor, with that many
// workers of its own, to the training thread in begin_step and to each of
// the rank's comm threads, which help whenever their queues are empty
// (DESIGN.md §5l). GEMM row blocks, QSGD bucket ranges, the optimizers'
// element ranges and DepEngine ops all run on it; with no executor bound
// they run serially.
//
// parallel_for items must be independent: which thread runs which item,
// and in what order, is unspecified. Callers that need bit-identical
// results (QSGD's bucket ranges, GEMM row blocks, the optimizers' element
// ranges) split work so that an item's output does not depend on the split.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "util/function_ref.h"

namespace cgx::util {

class ThreadPool {
 public:
  // An executor with `workers` threads of its own, helpers that never
  // leave and join every job. 0 means none: every job then runs on its
  // owner and on whichever threads call help().
  explicit ThreadPool(std::size_t workers);

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

  // Starts `workers` more threads of their own and widens size() by as
  // many. Call while no job is posted and no other thread reads size().
  void add_workers(std::size_t workers);

  // How many threads one job is meant to spread over: the worker count, or
  // a CallerRuns pool's width, plus any added workers (at least 1). A
  // ThreadPool(1) reports 1 even though its owner runs items too, so
  // callers that split only for size() >= 2 (QSGD) run serially on it.
  std::size_t size() const { return width_.load(std::memory_order_relaxed); }

  // Runs fn(i) for every i in [0, n) and returns once all have run: a
  // job with every item published. Runs the loop serially on the caller
  // when try_run cannot post the job. If items throw, the first exception
  // is rethrown here once every claimed item has finished; items not yet
  // claimed are skipped.
  void parallel_for(std::size_t n, FunctionRef<void(std::size_t)> fn);

  // Posts a job of n items, runs it as its owner and returns true once
  // every item has run. Threads claim item i only once i < *published
  // (null: all n are published); items publish later ones by raising
  // *published and calling ring(), and it must reach n. Returns false,
  // running nothing, when n < 2, when the caller is a pool worker or is
  // already running an item of some job (nesting), or when another owner
  // holds the slot: the caller then runs the items itself.
  bool try_run(std::size_t n, const std::atomic<std::uint32_t>* published,
               FunctionRef<void(std::size_t)> fn);

  // ---- External helpers ----
  // Which jobs a help() call joins: any, or only split jobs — parallel_for's,
  // whose items are equal slices of one kernel, all published at the post.
  // A DAG job's items are whole ops of any length; a helper with other
  // work to come back to (a comm thread and its bucket queue) joins split
  // jobs only, so it is never held in a long op.
  enum class Jobs { kAny, kSplitOnly };
  // help() runs published items of the job in the slot, if there is one
  // of the kind asked for, and returns whether it ran any. A helper reads
  // doorbell() BEFORE it looks for work (its own queue, then help()) and
  // parks with wait_doorbell(seen) when it found none: the doorbell
  // changes on every job post, every publish and every ring(), so nothing
  // posted in between is missed.
  bool help(Jobs which = Jobs::kAny);
  std::uint32_t doorbell() const {
    return doorbell_.load(std::memory_order_acquire);
  }
  void wait_doorbell(std::uint32_t seen) const {
    doorbell_.wait(seen, std::memory_order_acquire);
  }
  // Changes the doorbell and wakes every parked thread. Owners of other
  // work a helper waits for (a comm thread's token queue, the training
  // thread's done count, a DAG job's newly published ops) ring it when that
  // work arrives.
  void ring();

 private:
  // users_ bits: the slot is owned, the job is open to helpers, the job
  // publishes its items as it runs (a DAG job), and the count of helpers
  // inside it.
  static constexpr std::uint32_t kOwned = 1u << 31;
  static constexpr std::uint32_t kOpen = 1u << 30;
  static constexpr std::uint32_t kDag = 1u << 29;
  static constexpr std::uint32_t kHelperMask = kDag - 1;

  // Claims and runs published items of the current job until none is
  // left; returns whether it ran any.
  bool run_items();
  void start_workers(std::size_t workers);
  void worker_loop();

  std::atomic<std::size_t> width_{0};
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};

  // The job slot. Written by the owner while it holds kOwned and no
  // helper is inside; read by helpers after they enter (users_ acquire).
  std::atomic<std::uint32_t> users_{0};
  const FunctionRef<void(std::size_t)>* job_fn_ = nullptr;
  const std::atomic<std::uint32_t>* job_published_ = nullptr;
  std::uint32_t job_n_ = 0;
  std::atomic<std::uint32_t> next_{0};  // next unclaimed item
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;  // written by the first failing item only

  mutable std::atomic<std::uint32_t> doorbell_{0};
};

// The executor bound to the calling thread, or null. The binding is weak,
// so a thread whose executor was destroyed gets null and runs serially.
void bind_thread_executor(std::weak_ptr<ThreadPool> executor);
std::shared_ptr<ThreadPool> thread_executor();

}  // namespace cgx::util
