#include "util/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "util/barrier.h"

namespace cgx::util {
namespace {

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, SizeMatchesRequested) {
  ThreadPool pool(5);
  EXPECT_EQ(pool.size(), 5u);
}

TEST(ThreadPool, ZeroWorkersRunsJobsOnTheCaller) {
  // A width of 0 starts no thread: every item runs on the caller.
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  const auto me = std::this_thread::get_id();
  std::vector<int> hits(100, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), me);
    ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Barrier, AllThreadsProceedTogether) {
  constexpr std::size_t kThreads = 8;
  Barrier barrier(kThreads);
  std::atomic<int> phase0{0}, phase1{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      phase0.fetch_add(1);
      barrier.arrive_and_wait();
      // Every thread must observe all phase-0 increments after the barrier.
      EXPECT_EQ(phase0.load(), static_cast<int>(kThreads));
      phase1.fetch_add(1);
      barrier.arrive_and_wait();
      EXPECT_EQ(phase1.load(), static_cast<int>(kThreads));
    });
  }
  for (auto& t : threads) t.join();
}

TEST(Barrier, ReusableAcrossManyPhases) {
  constexpr std::size_t kThreads = 4;
  constexpr int kPhases = 200;
  Barrier barrier(kThreads);
  std::atomic<int> counter{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int p = 0; p < kPhases; ++p) {
        counter.fetch_add(1);
        barrier.arrive_and_wait();
        // After each phase barrier the counter is a multiple of kThreads.
        EXPECT_EQ(counter.load() % kThreads, 0u);
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.load(), static_cast<int>(kThreads) * kPhases);
}

}  // namespace
}  // namespace cgx::util
