#include "util/threadpool.h"

#include <algorithm>

#include "util/check.h"

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

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  width_ = threads;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::ThreadPool(CallerRuns mode)
    : width_(std::max<std::size_t>(1, mode.width)) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  ring_doorbell(/*all=*/true);
  for (auto& w : workers_) w.join();
}

void ThreadPool::ring_doorbell(bool all) {
  doorbell_.fetch_add(1, std::memory_order_release);
  if (all) {
    doorbell_.notify_all();
  } else {
    doorbell_.notify_one();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  CGX_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    CGX_CHECK(!stop_);
    queue_.push(std::move(task));
  }
  ring_doorbell(/*all=*/false);
}

void ThreadPool::grow_raw_locked(std::size_t capacity) {
  // Rebuild the ring in FIFO order into a larger vector. Only reached when
  // submit_raw outruns the reserved capacity; reserve_raw at setup keeps
  // the steady state out of here.
  std::vector<RawTask> bigger(std::max(capacity, std::size_t{8}));
  for (std::size_t i = 0; i < raw_count_; ++i) {
    bigger[i] = raw_ring_[(raw_head_ + i) % raw_ring_.size()];
  }
  raw_ring_ = std::move(bigger);
  raw_head_ = 0;
}

void ThreadPool::submit_raw(RawFn fn, void* ctx, std::size_t arg) {
  CGX_CHECK(fn != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    CGX_CHECK(!stop_);
    if (raw_count_ == raw_ring_.size()) {
      grow_raw_locked(raw_ring_.size() * 2 + 8);
    }
    raw_ring_[(raw_head_ + raw_count_) % raw_ring_.size()] =
        RawTask{fn, ctx, arg};
    ++raw_count_;
  }
  ring_doorbell(/*all=*/false);
}

void ThreadPool::reserve_raw(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (raw_ring_.size() < capacity) grow_raw_locked(capacity);
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock,
                [&] { return queue_.empty() && raw_count_ == 0 &&
                             active_ == 0; });
}

void ThreadPool::parallel_for(std::size_t n,
                              FunctionRef<void(std::size_t)> fn) {
  std::uint32_t idle = 0;
  if (n < 2 || t_serial || n > kHelperMask ||
      !users_.compare_exchange_strong(idle, kOwned,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // The slot is ours and no helper is inside: fill it, then open it.
  job_fn_ = &fn;
  job_n_ = static_cast<std::uint32_t>(n);
  next_.store(0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  users_.store(kOwned | kOpen, std::memory_order_release);
  ring_doorbell(/*all=*/true);

  run_items();
  // Every item is claimed. Close the job to newcomers and wait out the
  // helpers still inside: a helper leaves only once the items it claimed
  // have finished, so after this every item has run or been skipped.
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
}

bool ThreadPool::help() {
  std::uint32_t u = users_.load(std::memory_order_relaxed);
  do {
    if ((u & kOpen) == 0) return false;
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
  const std::uint32_t n = job_n_;
  bool ran = false;
  for (;;) {
    const std::uint32_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
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
  }
  t_serial = saved;
  return ran;
}

void ThreadPool::worker_loop() {
  t_serial = true;
  for (;;) {
    const std::uint32_t seen = doorbell();
    if (help()) continue;
    std::function<void()> task;
    RawTask raw{};
    bool have_raw = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (raw_count_ > 0) {
        raw = raw_ring_[raw_head_];
        raw_head_ = (raw_head_ + 1) % raw_ring_.size();
        --raw_count_;
        have_raw = true;
      } else if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop();
      } else if (stop_) {
        return;
      }
      if (have_raw || task) ++active_;
    }
    if (!have_raw && !task) {
      wait_doorbell(seen);
      continue;
    }
    if (have_raw) {
      raw.fn(raw.ctx, raw.arg);
    } else {
      task();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && raw_count_ == 0 && active_ == 0) {
        idle_cv_.notify_all();
      }
    }
  }
}

}  // namespace cgx::util
