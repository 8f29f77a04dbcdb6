// The caller-runs executor behind ThreadPool::parallel_for (threadpool.h):
// an owner alone, with one and two external helpers, a helper arriving
// mid-job, a helper meeting a job with no published item, a split-only
// helper meeting a DAG job, added workers in a DAG job, a throwing item,
// a second owner and a nested call, and a stress of back-to-back jobs with
// helpers joining and leaving. In the tsan-labelled test_concurrency
// binary.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/rng.h"
#include "util/threadpool.h"

namespace cgx::util {
namespace {

using Clock = std::chrono::steady_clock;

// A helper thread in the engine's shape: read the doorbell, help, park.
class Helper {
 public:
  explicit Helper(ThreadPool& pool) : pool_(pool), thread_([this] { run(); }) {}
  ~Helper() {
    stop_.store(true, std::memory_order_release);
    pool_.ring();
    thread_.join();
  }

 private:
  void run() {
    while (!stop_.load(std::memory_order_acquire)) {
      const std::uint32_t seen = pool_.doorbell();
      if (stop_.load(std::memory_order_acquire)) break;
      if (!pool_.help()) pool_.wait_doorbell(seen);
    }
  }

  ThreadPool& pool_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// Blocks until `count` reaches `target` or a generous deadline passes
// (a broken executor fails the test instead of hanging it).
bool await(const std::atomic<int>& count, int target) {
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (count.load(std::memory_order_acquire) < target) {
    if (Clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(CallerRunsExecutor, OwnerAloneRunsEveryItem) {
  ThreadPool pool(ThreadPool::CallerRuns{2});
  EXPECT_EQ(pool.size(), 2u);
  const auto owner = std::this_thread::get_id();
  std::vector<int> hits(1000, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), owner);
    ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
  // help() with no job in the slot does nothing.
  EXPECT_FALSE(pool.help());
}

// Items 0..participants-1 meet at a rendezvous: none finishes until that
// many have started, so each must have been claimed by a different thread.
void expect_participants(int helpers) {
  ThreadPool pool(ThreadPool::CallerRuns{static_cast<std::size_t>(helpers) + 1});
  std::vector<std::unique_ptr<Helper>> threads;
  for (int h = 0; h < helpers; ++h) {
    threads.push_back(std::make_unique<Helper>(pool));
  }
  const int participants = helpers + 1;
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> started{0};
    std::atomic<bool> timed_out{false};
    std::vector<std::atomic<int>> hits(64);
    std::vector<std::thread::id> who(64);
    pool.parallel_for(hits.size(), [&](std::size_t i) {
      who[i] = std::this_thread::get_id();
      if (i < static_cast<std::size_t>(participants)) {
        started.fetch_add(1, std::memory_order_acq_rel);
        if (!await(started, participants)) timed_out.store(true);
      }
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_FALSE(timed_out.load()) << "helpers never joined the job";
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
    for (int a = 0; a < participants; ++a) {
      for (int b = a + 1; b < participants; ++b) {
        EXPECT_NE(who[static_cast<std::size_t>(a)],
                  who[static_cast<std::size_t>(b)]);
      }
    }
  }
}

TEST(CallerRunsExecutor, OwnerPlusOneHelper) { expect_participants(1); }

TEST(CallerRunsExecutor, OwnerPlusTwoHelpers) { expect_participants(2); }

TEST(CallerRunsExecutor, HelperArrivingMidJobTakesItems) {
  ThreadPool pool(ThreadPool::CallerRuns{2});
  const auto owner = std::this_thread::get_id();
  std::atomic<int> helper_items{0};
  std::atomic<bool> timed_out{false};
  std::thread late;
  std::vector<std::atomic<int>> hits(16);
  pool.parallel_for(hits.size(), [&](std::size_t i) {
    if (i == 0) {
      // The job is already open: start a helper now and hold item 0 until
      // it has run something.
      late = std::thread([&] {
        while (helper_items.load(std::memory_order_acquire) == 0) {
          const std::uint32_t seen = pool.doorbell();
          if (!pool.help()) {
            // The owner finished every other item first; nothing to do.
            if (hits[hits.size() - 1].load() != 0) break;
            pool.wait_doorbell(seen);
          }
        }
      });
      if (!await(helper_items, 1)) timed_out.store(true);
    } else if (std::this_thread::get_id() != owner) {
      helper_items.fetch_add(1, std::memory_order_acq_rel);
    }
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  late.join();
  EXPECT_FALSE(timed_out.load());
  EXPECT_GE(helper_items.load(), 1);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(CallerRunsExecutor, HelpOnAJobWhoseNextItemIsUnpublishedReturns) {
  // A DAG job's shape: item 1 is published only when item 0 finishes. A
  // helper arriving while the owner runs item 0 finds nothing it may claim
  // and must leave at once, neither running item 1 nor waiting for it.
  ThreadPool pool(ThreadPool::CallerRuns{2});
  const auto owner = std::this_thread::get_id();
  std::atomic<std::uint32_t> published{1};
  std::atomic<int> helper_returned{0};
  std::atomic<bool> helper_ran{false};
  std::atomic<bool> timed_out{false};
  std::vector<std::thread::id> who(2);
  std::thread helper;
  const bool posted = pool.try_run(2, &published, [&](std::size_t i) {
    who[i] = std::this_thread::get_id();
    if (i != 0) return;
    helper = std::thread([&] {
      helper_ran.store(pool.help(), std::memory_order_release);
      helper_returned.store(1, std::memory_order_release);
    });
    // Item 0 holds item 1 back until the helper has come and gone.
    if (!await(helper_returned, 1)) timed_out.store(true);
    published.store(2, std::memory_order_release);
    pool.ring();
  });
  helper.join();
  EXPECT_TRUE(posted);
  EXPECT_FALSE(timed_out.load()) << "help() waited for an unpublished item";
  EXPECT_FALSE(helper_ran.load());
  EXPECT_EQ(who[0], owner);
  EXPECT_EQ(who[1], owner);
}

TEST(CallerRunsExecutor, SplitOnlyHelperLeavesDagJobsAndJoinsSplitJobs) {
  // A comm thread's help(kSplitOnly): it takes a published item of a
  // parallel_for job, but leaves a DAG job at once, even one whose next
  // item is published, so it is never held in a long op.
  ThreadPool pool(ThreadPool::CallerRuns{2});
  const auto owner = std::this_thread::get_id();
  for (const bool dag : {true, false}) {
    std::atomic<std::uint32_t> published{2};
    std::atomic<int> helper_returned{0};
    std::atomic<bool> helper_ran{false};
    std::atomic<bool> timed_out{false};
    std::vector<std::thread::id> who(2);
    std::thread helper;
    const auto item = [&](std::size_t i) {
      who[i] = std::this_thread::get_id();
      if (i != 0) return;
      helper = std::thread([&] {
        helper_ran.store(pool.help(ThreadPool::Jobs::kSplitOnly),
                         std::memory_order_release);
        helper_returned.store(1, std::memory_order_release);
      });
      // Item 0 holds the owner until the helper has come and gone.
      if (!await(helper_returned, 1)) timed_out.store(true);
    };
    if (dag) {
      EXPECT_TRUE(pool.try_run(2, &published, item));
    } else {
      pool.parallel_for(2, item);
    }
    helper.join();
    EXPECT_FALSE(timed_out.load()) << "dag=" << dag;
    EXPECT_EQ(helper_ran.load(), !dag) << "dag=" << dag;
    EXPECT_EQ(who[0], owner);
    EXPECT_EQ(who[1] == owner, dag);
  }
}

TEST(CallerRunsExecutor, AddedWorkersJoinDagJobs) {
  // add_workers gives a caller-runs executor threads of its own, which
  // widen size() and take any job's items, DAG jobs included: items 0 and
  // 1 meet at a rendezvous, so a worker ran one of them.
  ThreadPool pool(ThreadPool::CallerRuns{2});
  pool.add_workers(1);
  EXPECT_EQ(pool.size(), 3u);
  const auto owner = std::this_thread::get_id();
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::uint32_t> published{2};
    std::atomic<int> started{0};
    std::atomic<bool> timed_out{false};
    std::vector<std::thread::id> who(2);
    EXPECT_TRUE(pool.try_run(2, &published, [&](std::size_t i) {
      who[i] = std::this_thread::get_id();
      started.fetch_add(1, std::memory_order_acq_rel);
      if (!await(started, 2)) timed_out.store(true);
    }));
    ASSERT_FALSE(timed_out.load()) << "no worker joined the DAG job";
    EXPECT_NE(who[0], who[1]);
    EXPECT_TRUE(who[0] == owner || who[1] == owner);
  }
}

TEST(CallerRunsExecutor, ThrowIsRethrownAfterClaimedItemsFinish) {
  for (std::size_t pool_threads : {std::size_t{0}, std::size_t{2}}) {
    std::unique_ptr<ThreadPool> pool;
    std::unique_ptr<Helper> helper;
    if (pool_threads == 0) {
      pool = std::make_unique<ThreadPool>(ThreadPool::CallerRuns{2});
      helper = std::make_unique<Helper>(*pool);
    } else {
      pool = std::make_unique<ThreadPool>(pool_threads);
    }
    for (int round = 0; round < 10; ++round) {
      std::atomic<int> running{0};
      std::atomic<int> ran{0};
      int running_at_catch = -1;
      try {
        pool->parallel_for(200, [&](std::size_t i) {
          running.fetch_add(1, std::memory_order_acq_rel);
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          ran.fetch_add(1, std::memory_order_relaxed);
          running.fetch_sub(1, std::memory_order_acq_rel);
          if (i == 7) throw std::runtime_error("item 7");
        });
        ADD_FAILURE() << "the item's exception was swallowed";
      } catch (const std::runtime_error& e) {
        running_at_catch = running.load(std::memory_order_acquire);
        EXPECT_STREQ(e.what(), "item 7");
      }
      EXPECT_EQ(running_at_catch, 0)
          << "rethrown while claimed items were still running";
      EXPECT_GE(ran.load(), 1);
      // The slot is free again: a clean job runs to completion.
      std::vector<std::atomic<int>> hits(100);
      pool->parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
      for (auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(CallerRunsExecutor, SecondOwnerAndNestedCallsRunSerially) {
  ThreadPool pool(ThreadPool::CallerRuns{2});
  Helper helper(pool);
  std::atomic<int> inside{0};
  std::atomic<bool> timed_out{false};
  std::atomic<bool> second_done{false};
  std::vector<std::thread::id> second_who(50);
  std::thread second;
  pool.parallel_for(4, [&](std::size_t i) {
    // A nested call on any thread runs on that thread, in order.
    std::vector<std::size_t> order;
    const auto me = std::this_thread::get_id();
    pool.parallel_for(8, [&](std::size_t j) {
      EXPECT_EQ(std::this_thread::get_id(), me);
      order.push_back(j);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
    if (i == 0) {
      // While this job holds the slot, another thread's job runs serially
      // on that thread.
      second = std::thread([&] {
        const auto id = std::this_thread::get_id();
        pool.parallel_for(second_who.size(), [&](std::size_t j) {
          second_who[j] = id;
        });
        for (const auto& w : second_who) EXPECT_EQ(w, id);
        second_done.store(true, std::memory_order_release);
      });
      const auto deadline = Clock::now() + std::chrono::seconds(20);
      while (!second_done.load(std::memory_order_acquire)) {
        if (Clock::now() > deadline) {
          timed_out.store(true);
          break;
        }
        std::this_thread::yield();
      }
    }
    inside.fetch_add(1);
  });
  second.join();
  EXPECT_FALSE(timed_out.load());
  EXPECT_EQ(inside.load(), 4);
}

TEST(CallerRunsExecutor, BackToBackJobsWithHelpersJoiningAndLeaving) {
  ThreadPool pool(ThreadPool::CallerRuns{3});
  std::atomic<bool> stop{false};
  // Two churners, each repeatedly starting a helper for a short while.
  std::vector<std::thread> churners;
  for (int c = 0; c < 2; ++c) {
    churners.emplace_back([&, c] {
      Rng rng(77 + static_cast<std::uint64_t>(c));
      while (!stop.load(std::memory_order_acquire)) {
        Helper h(pool);
        std::this_thread::sleep_for(
            std::chrono::microseconds(50 + rng.next_below(400)));
      }
    });
  }
  Rng rng(5);
  std::vector<std::atomic<std::uint32_t>> hits(257);
  for (int job = 0; job < 1500; ++job) {
    const std::size_t n = 2 + rng.next_below(hits.size() - 1);
    pool.parallel_for(n, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].exchange(0, std::memory_order_relaxed),
                i < n ? 1u : 0u)
          << "job " << job << " item " << i;
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : churners) t.join();
}

TEST(CallerRunsExecutor, WorkerPoolCallerTakesPart) {
  // A pool with threads is the same executor: its workers are helpers
  // that never leave. Every item still runs exactly once.
  ThreadPool pool(2);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::atomic<int>> hits(37);
    pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(CallerRunsExecutor, ThreadBindingExpiresWithTheExecutor) {
  bind_thread_executor({});
  EXPECT_TRUE(thread_executor() == nullptr);
  {
    auto pool = std::make_shared<ThreadPool>(ThreadPool::CallerRuns{2});
    bind_thread_executor(pool);
    EXPECT_EQ(thread_executor().get(), pool.get());
  }
  EXPECT_TRUE(thread_executor() == nullptr);
}

}  // namespace
}  // namespace cgx::util
