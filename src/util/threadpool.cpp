#include "util/threadpool.h"

#include <algorithm>

namespace cgx::util {

namespace {
// True on pool workers for their whole life, and on any thread while it
// runs an item of a job: parallel_for called there runs serially.
thread_local bool t_serial = false;
thread_local std::weak_ptr<ThreadPool> t_executor;
}  // namespace

void bind_thread_executor(std::weak_ptr<ThreadPool> executor) {
  t_executor = std::move(executor);
}

std::shared_ptr<ThreadPool> thread_executor() { return t_executor.lock(); }

ThreadPool::ThreadPool(std::size_t workers)
    : width_(std::max<std::size_t>(1, workers)) {
  start_workers(workers);
}

ThreadPool::ThreadPool(CallerRuns mode)
    : width_(std::max<std::size_t>(1, mode.width)) {}

void ThreadPool::add_workers(std::size_t workers) {
  width_.fetch_add(workers, std::memory_order_relaxed);
  start_workers(workers);
}

void ThreadPool::start_workers(std::size_t workers) {
  workers_.reserve(workers_.size() + workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  ring();
  for (auto& w : workers_) w.join();
}

void ThreadPool::ring() {
  doorbell_.fetch_add(1, std::memory_order_release);
  doorbell_.notify_all();
}

void ThreadPool::parallel_for(std::size_t n,
                              FunctionRef<void(std::size_t)> fn) {
  if (!try_run(n, nullptr, fn)) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

bool ThreadPool::try_run(std::size_t n,
                         const std::atomic<std::uint32_t>* published,
                         FunctionRef<void(std::size_t)> fn) {
  std::uint32_t idle = 0;
  if (n < 2 || t_serial || n > kHelperMask ||
      !users_.compare_exchange_strong(idle, kOwned,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
    return false;
  }
  // The slot is ours and no helper is inside: fill it, then open it.
  job_fn_ = &fn;
  job_published_ = published;
  job_n_ = static_cast<std::uint32_t>(n);
  next_.store(0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  users_.store(kOwned | kOpen | (published != nullptr ? kDag : 0u),
               std::memory_order_release);
  ring();

  // Run items until every one is claimed. With none published, the items
  // left wait on ones already running, whose publish rings the doorbell.
  for (;;) {
    const std::uint32_t seen = doorbell();
    run_items();
    if (next_.load(std::memory_order_acquire) >= job_n_) break;
    wait_doorbell(seen);
  }
  // Close the job to newcomers and wait out the helpers still inside: a
  // helper leaves only once the items it claimed have finished, so after
  // this every item has run or been skipped.
  std::uint32_t u =
      users_.fetch_and(~kOpen, std::memory_order_acq_rel) & ~kOpen;
  while ((u & kHelperMask) != 0) {
    users_.wait(u, std::memory_order_acquire);
    u = users_.load(std::memory_order_acquire);
  }
  std::exception_ptr error;
  error.swap(error_);
  job_fn_ = nullptr;
  users_.store(0, std::memory_order_release);
  if (error) std::rethrow_exception(error);
  return true;
}

bool ThreadPool::help(Jobs which) {
  const std::uint32_t shut = which == Jobs::kAny ? 0u : kDag;
  std::uint32_t u = users_.load(std::memory_order_relaxed);
  do {
    if ((u & kOpen) == 0 || (u & shut) != 0) return false;
  } while (!users_.compare_exchange_weak(u, u + 1, std::memory_order_acquire,
                                         std::memory_order_relaxed));
  const bool ran = run_items();
  // A helper leaving a closed job may be the one its owner waits for.
  if ((users_.fetch_sub(1, std::memory_order_release) & kOpen) == 0) {
    users_.notify_all();
  }
  return ran;
}

bool ThreadPool::run_items() {
  const bool saved = t_serial;
  t_serial = true;
  const FunctionRef<void(std::size_t)>& fn = *job_fn_;
  const std::atomic<std::uint32_t>* published = job_published_;
  const std::uint32_t n = job_n_;
  bool ran = false;
  std::uint32_t i = next_.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint32_t bound =
        published != nullptr
            ? std::min(n, published->load(std::memory_order_acquire))
            : n;
    if (i >= bound) break;
    if (!next_.compare_exchange_weak(i, i + 1, std::memory_order_relaxed)) {
      continue;  // i now holds the current claim counter
    }
    ran = true;
    // After a failure the remaining items are skipped.
    if (!failed_.load(std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        if (!failed_.exchange(true, std::memory_order_acq_rel)) {
          error_ = std::current_exception();
        }
      }
    }
    i = next_.load(std::memory_order_relaxed);
  }
  t_serial = saved;
  return ran;
}

void ThreadPool::worker_loop() {
  t_serial = true;
  for (;;) {
    const std::uint32_t seen = doorbell();
    if (stop_.load(std::memory_order_acquire)) return;
    if (!help()) wait_doorbell(seen);
  }
}

}  // namespace cgx::util
