// DepEngine unit tests: derived RAW/WAW/WAR edges, the deterministic
// serial reference schedule, cycle detection, completion callbacks,
// per-op RNG streams, and replay stability across pool sizes. A pool runs
// the graph as one job when it is bound to the calling thread.
#include "core/dep_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/threadpool.h"

namespace cgx::core {
namespace {

// A pool of `threads` workers bound to the calling thread; the binding
// expires with the pool.
std::shared_ptr<util::ThreadPool> bound_pool(std::size_t threads) {
  auto pool = std::make_shared<util::ThreadPool>(threads);
  util::bind_thread_executor(pool);
  return pool;
}

// Runs `build` against a fresh engine for every pool size in {serial, 1,
// 2, 7} and hands the engine (and the pool size, 0 = serial) to `check`.
template <typename Build, typename Check>
void for_each_pool(Build build, Check check) {
  for (std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{7}}) {
    std::shared_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = bound_pool(threads);
    DepEngine dag;
    build(dag);
    check(dag, threads);
  }
}

TEST(DepEngine, SerialDiamondRunsInAscendingOpIdOrder) {
  // Diamond: A writes v; B and C read v; D writes v (waits for B and C).
  DepEngine dag;
  std::vector<DepEngine::OpId> order;
  const auto v = dag.new_var();
  dag.push([&] { order.push_back(0); }, {}, {v});
  dag.push([&] { order.push_back(1); }, {v}, {});
  dag.push([&] { order.push_back(2); }, {v}, {});
  dag.push([&] { order.push_back(3); }, {}, {v});
  dag.run();
  EXPECT_EQ(order, (std::vector<DepEngine::OpId>{0, 1, 2, 3}));
}

TEST(DepEngine, DerivedEdgesOrderConflictingOpsUnderAnyPool) {
  // The scoreboard records each op's start position; the derived edges
  // must order writer -> readers -> next writer no matter how the pool
  // interleaves the independent pairs.
  for_each_pool(
      [](DepEngine&) {},
      [](DepEngine& dag, std::size_t) {
        std::atomic<int> clock{0};
        int at[4] = {-1, -1, -1, -1};
        const auto v = dag.new_var();
        const auto stamp = [&](int i) { at[i] = clock.fetch_add(1); };
        dag.push([&] { stamp(0); }, {}, {v});   // writer
        dag.push([&] { stamp(1); }, {v}, {});   // RAW on 0
        dag.push([&] { stamp(2); }, {v}, {});   // RAW on 0
        dag.push([&] { stamp(3); }, {}, {v});   // WAW on 0, WAR on 1+2
        dag.run();
        EXPECT_LT(at[0], at[1]);
        EXPECT_LT(at[0], at[2]);
        EXPECT_LT(at[1], at[3]);
        EXPECT_LT(at[2], at[3]);
      });
}

TEST(DepEngine, IndependentOpsRunConcurrentlyOnAPool) {
  // Two ops with disjoint variables and a 2-thread pool: each blocks until
  // the other has started, so the test hangs (and times out) unless the
  // scheduler really overlaps them.
  const auto pool = bound_pool(2);
  DepEngine dag;
  std::atomic<int> started{0};
  const auto a = dag.new_var();
  const auto b = dag.new_var();
  const auto body = [&] {
    started.fetch_add(1);
    while (started.load() < 2) std::this_thread::yield();
  };
  dag.push(body, {}, {a});
  dag.push(body, {}, {b});
  dag.run();
  EXPECT_EQ(started.load(), 2);
}

TEST(DepEngine, ExplicitCycleThrowsOnRun) {
  DepEngine dag;
  const auto a = dag.new_var();
  const auto b = dag.new_var();
  const auto op0 = dag.push([] {}, {}, {a});
  const auto op1 = dag.push([] {}, {}, {b});
  dag.add_dep(op0, op1);  // op0 after op1 ...
  dag.add_dep(op1, op0);  // ... and op1 after op0: a 2-cycle
  EXPECT_THROW(dag.run(), std::runtime_error);
  // The graph is replay-storage; after clear() the engine is usable again.
  dag.clear();
  const auto v = dag.new_var();
  bool ran = false;
  dag.push([&] { ran = true; }, {}, {v});
  dag.run();
  EXPECT_TRUE(ran);
}

TEST(DepEngine, OnCompleteFiresOncePerOpInDependencyOrder) {
  for_each_pool(
      [](DepEngine&) {},
      [](DepEngine& dag, std::size_t threads) {
        const auto v = dag.new_var();
        constexpr int kOps = 16;
        for (int i = 0; i < kOps; ++i) dag.push([] {}, {v}, {v});  // chain
        std::mutex mu;
        std::vector<DepEngine::OpId> completions;
        dag.set_on_complete([&](DepEngine::OpId id) {
          std::lock_guard<std::mutex> lock(mu);
          completions.push_back(id);
        });
        dag.run();
        ASSERT_EQ(completions.size(), static_cast<std::size_t>(kOps))
            << "pool=" << threads;
        // The read-modify-write chain serializes every op, so completions
        // arrive in op-id order even on a pool.
        for (int i = 0; i < kOps; ++i) {
          EXPECT_EQ(completions[static_cast<std::size_t>(i)],
                    static_cast<DepEngine::OpId>(i));
        }
      });
}

TEST(DepEngine, PerOpRngStreamsAreBitStableAcrossPoolSizes) {
  // Each op draws from op_rng(parent, id); a fan-in op sums in fixed
  // ascending order. The result must match bit-for-bit across pool sizes.
  const util::Rng parent(1234);
  std::vector<double> reference;
  for_each_pool(
      [](DepEngine&) {},
      [&](DepEngine& dag, std::size_t threads) {
        constexpr int kProducers = 9;
        std::vector<double> slot(kProducers, 0.0);
        double sum = 0.0;
        std::vector<DepEngine::VarId> vars;
        for (int i = 0; i < kProducers; ++i) vars.push_back(dag.new_var());
        const auto out = dag.new_var();
        for (int i = 0; i < kProducers; ++i) {
          const DepEngine::VarId w = vars[static_cast<std::size_t>(i)];
          const auto id = static_cast<DepEngine::OpId>(i);
          dag.push(
              [&slot, i, id, &parent] {
                util::Rng rng = DepEngine::op_rng(parent, id);
                slot[static_cast<std::size_t>(i)] = rng.next_gaussian();
              },
              std::span<const DepEngine::VarId>{},
              std::span<const DepEngine::VarId>(&w, 1));
        }
        dag.push(
            [&] {
              for (int i = 0; i < kProducers; ++i) {
                sum += slot[static_cast<std::size_t>(i)];
              }
            },
            std::span<const DepEngine::VarId>(vars.data(), vars.size()),
            std::span<const DepEngine::VarId>(&out, 1));
        dag.run();
        std::vector<double> got = slot;
        got.push_back(sum);
        if (reference.empty()) {
          reference = got;
        } else {
          EXPECT_EQ(got, reference) << "pool=" << threads;
        }
      });
}

TEST(DepEngine, ReplayIsStableAndReusesTheRecordedGraph) {
  const auto pool = bound_pool(3);
  DepEngine dag;
  const auto v = dag.new_var();
  int runs = 0;
  constexpr int kOps = 8;
  for (int i = 0; i < kOps; ++i) dag.push([&] { ++runs; }, {v}, {v});
  for (int replay = 1; replay <= 5; ++replay) {
    dag.run();
    EXPECT_EQ(runs, kOps * replay);
  }
  EXPECT_EQ(dag.op_count(), static_cast<std::size_t>(kOps));
}

TEST(DepEngine, PoolModeRethrowsFirstErrorAfterDraining) {
  const auto pool = bound_pool(2);
  DepEngine dag;
  const auto v = dag.new_var();
  std::atomic<int> after{0};
  dag.push([] { throw std::runtime_error("op boom"); }, {}, {v});
  dag.push([&] { after.fetch_add(1); }, {v}, {});  // body must be skipped
  EXPECT_THROW(dag.run(), std::runtime_error);
  EXPECT_EQ(after.load(), 0);
  // The graph drained and stays replayable; a healthy re-run executes
  // every body (the throwing op throws again, first).
  EXPECT_THROW(dag.run(), std::runtime_error);
}

TEST(DepEngine, SerialModePropagatesExceptionsImmediately) {
  DepEngine dag;
  const auto v = dag.new_var();
  bool later = false;
  dag.push([] { throw std::runtime_error("op boom"); }, {}, {v});
  dag.push([&] { later = true; }, {v}, {});
  EXPECT_THROW(dag.run(), std::runtime_error);
  EXPECT_FALSE(later);
}

}  // namespace
}  // namespace cgx::core
