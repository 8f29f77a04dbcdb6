// DAG-scheduler stress, built to run under ThreadSanitizer (`ctest -L
// dag+tsan` with the tsan preset). Three pressure points: (1) a randomized
// replayed op graph soaked as a job on a bound pool — any missing
// happens-before between the pending counters, the ready array, the
// published bound and op bodies shows up as a race or a mis-ordered
// conflict; (2) the same with random graphs on a caller-runs executor while
// 0-3 external helpers join and leave; (3) concurrent notify_layer_ready
// calls from the threads of a DAG job into the multi-lane streaming engine
// — the producer-side submit lock and the per-lane SPSC queues are the
// machinery under test.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "comm/transports.h"
#include "comm/world.h"
#include "core/async_engine.h"
#include "core/dep_engine.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace cgx::core {
namespace {

TEST(DagStress, RandomGraphReplaySoakKeepsConflictOrder) {
  // 64 ops over 8 variables with hashed read/write sets, replayed many
  // times as a job on a bound 3-worker pool. Every op bumps a per-variable
  // epoch for each write and checks it for each read; the derived edges
  // must make those accesses race-free and correctly ordered, which tsan
  // verifies directly.
  constexpr int kVars = 8;
  constexpr int kOps = 64;
  constexpr int kReplays = 30;
  const auto pool = std::make_shared<util::ThreadPool>(3);
  util::bind_thread_executor(pool);
  DepEngine dag;

  std::vector<DepEngine::VarId> vars;
  for (int v = 0; v < kVars; ++v) vars.push_back(dag.new_var());
  // Plain ints, NOT atomics: the scheduler's edges are the only thing
  // standing between these and a data race.
  std::vector<int> epoch(kVars, 0);
  std::atomic<int> bodies{0};

  util::Rng rng(2024);
  for (int i = 0; i < kOps; ++i) {
    std::vector<DepEngine::VarId> reads;
    std::vector<DepEngine::VarId> writes;
    std::vector<std::size_t> write_idx;
    for (int v = 0; v < kVars; ++v) {
      const std::uint64_t roll = rng.next_u64() % 4;
      if (roll == 0) {
        writes.push_back(vars[static_cast<std::size_t>(v)]);
        write_idx.push_back(static_cast<std::size_t>(v));
      } else if (roll == 1) {
        reads.push_back(vars[static_cast<std::size_t>(v)]);
      }
    }
    dag.push(
        [&epoch, &bodies, write_idx] {
          for (const std::size_t v : write_idx) ++epoch[v];
          bodies.fetch_add(1, std::memory_order_relaxed);
        },
        reads, writes);
  }
  for (int r = 0; r < kReplays; ++r) dag.run();
  EXPECT_EQ(bodies.load(), kOps * kReplays);
}

// A helper thread in the engine's shape: read the doorbell, help, park.
class Helper {
 public:
  explicit Helper(util::ThreadPool& pool)
      : pool_(pool), thread_([this] { run(); }) {}
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

  util::ThreadPool& pool_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(DagStress, RandomDagJobsWithHelpersJoiningAndLeaving) {
  // Random graphs replayed as jobs on a caller-runs executor bound to this
  // thread (the owner), while three churners each keep starting and
  // stopping a helper, so 0-3 helpers take ops at any moment. Every op
  // checks, for each variable it touches, the number of writes that ops
  // pushed before it made: the derived edges order every conflicting
  // access in push order, whichever thread runs the op.
  constexpr int kVars = 6;
  constexpr int kOps = 40;
  constexpr int kGraphs = 12;
  constexpr int kReplays = 25;
  const auto pool =
      std::make_shared<util::ThreadPool>(util::ThreadPool::CallerRuns{4});
  util::bind_thread_executor(pool);
  std::atomic<bool> stop{false};
  std::vector<std::thread> churners;
  for (int c = 0; c < 3; ++c) {
    churners.emplace_back([&, c] {
      util::Rng rng(31 + static_cast<std::uint64_t>(c));
      while (!stop.load(std::memory_order_acquire)) {
        if (rng.next_below(2) == 0) {
          Helper h(*pool);
          std::this_thread::sleep_for(
              std::chrono::microseconds(20 + rng.next_below(300)));
        } else {
          std::this_thread::sleep_for(
              std::chrono::microseconds(20 + rng.next_below(300)));
        }
      }
    });
  }

  std::atomic<int> bodies{0};
  std::atomic<int> misordered{0};
  util::Rng rng(2025);
  for (int g = 0; g < kGraphs; ++g) {
    DepEngine dag;
    std::vector<DepEngine::VarId> vars;
    for (int v = 0; v < kVars; ++v) vars.push_back(dag.new_var());
    // Plain ints, NOT atomics: the scheduler's edges are the only thing
    // standing between these and a data race.
    std::vector<int> epoch(kVars, 0);
    std::vector<int> writes_so_far(kVars, 0);
    for (int i = 0; i < kOps; ++i) {
      std::vector<DepEngine::VarId> reads;
      std::vector<DepEngine::VarId> writes;
      // (variable, writes to it by earlier ops, whether this op writes it)
      struct Access {
        std::size_t var;
        int expect;
        bool write;
      };
      std::vector<Access> touched;
      for (int v = 0; v < kVars; ++v) {
        const auto uv = static_cast<std::size_t>(v);
        const std::uint64_t roll = rng.next_below(5);
        if (roll == 0) {
          writes.push_back(vars[uv]);
          touched.push_back({uv, writes_so_far[uv]++, true});
        } else if (roll == 1) {
          reads.push_back(vars[uv]);
          touched.push_back({uv, writes_so_far[uv], false});
        }
      }
      dag.push(
          [&epoch, &bodies, &misordered, touched] {
            for (const Access& a : touched) {
              if (epoch[a.var] != a.expect) {
                misordered.fetch_add(1, std::memory_order_relaxed);
              }
              if (a.write) ++epoch[a.var];
            }
            bodies.fetch_add(1, std::memory_order_relaxed);
          },
          reads, writes);
    }
    for (int r = 0; r < kReplays; ++r) {
      std::fill(epoch.begin(), epoch.end(), 0);
      dag.run();
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : churners) t.join();
  EXPECT_EQ(bodies.load(), kOps * kReplays * kGraphs);
  EXPECT_EQ(misordered.load(), 0);
}

TEST(DagStress, ConcurrentHookNotifiesIntoMultiLaneEngine) {
  // A DAG job calls notify_layer_ready from whichever of the rank
  // executor's threads ran the op: many producers, two comm-lane
  // consumers, ordered launch. Layers are announced by a DepEngine whose
  // completion callbacks fire concurrently; the ordered frontier must still
  // release buckets in canonical order on every rank, and results must
  // stay in lockstep across rounds.
  constexpr int kWorld = 2;
  constexpr int kRounds = 12;
  tensor::LayerLayout layout;
  layout.add_layer("embed.weight", tensor::Shape{400, 32});
  for (int b = 0; b < 3; ++b) {
    const std::string p = "block" + std::to_string(b);
    layout.add_layer(p + ".w0", tensor::Shape{32, 96});
    layout.add_layer(p + ".w1", tensor::Shape{32, 128});
  }
  layout.add_layer("head.weight", tensor::Shape{32, 50});

  AsyncOptions aopts;
  aopts.bucket_bytes = std::size_t{8} << 10;  // many small buckets
  aopts.comm_lanes = 2;
  AsyncGradientEngine engine(
      std::make_unique<CgxEngine>(layout, CompressionConfig::cgx_default(),
                                  kWorld),
      aopts);
  engine.add_rank_workers(4);
  ASSERT_GT(engine.plan().buckets.size(), 2u);

  comm::ShmTransport transport(kWorld);
  std::vector<std::vector<float>> result(kWorld);
  comm::run_world(transport, [&](comm::Comm& comm) {
    const int rank = comm.rank();
    // The rank's executor, bound by begin_step, with 4 workers of its
    // own: one DepEngine, one op per layer with independent variables so
    // completions (and thus notifies) land in scrambled order from several
    // threads at once.
    DepEngine dag;
    std::vector<DepEngine::VarId> lvars;
    for (std::size_t l = 0; l < layout.layer_count(); ++l) {
      lvars.push_back(dag.new_var());
    }
    for (std::size_t l = layout.layer_count(); l-- > 0;) {
      const DepEngine::VarId w = lvars[l];
      dag.push([] {}, std::span<const DepEngine::VarId>{},
               std::span<const DepEngine::VarId>(&w, 1));
    }
    // Op i (push order) produced layer layer_count-1-i.
    dag.set_on_complete([&](DepEngine::OpId id) {
      engine.notify_layer_ready(
          rank, layout.layer_count() - 1 - static_cast<std::size_t>(id));
    });

    util::Rng rng(9000 + static_cast<std::uint64_t>(rank));
    util::Rng grad_rng(4000 + static_cast<std::uint64_t>(rank));
    std::vector<float> grad(layout.total_numel());
    for (int round = 0; round < kRounds; ++round) {
      for (auto& v : grad) v = static_cast<float>(grad_rng.next_gaussian());
      engine.begin_step(comm, grad, rng);
      dag.run();  // fires every notify from the job's threads
      engine.wait_all(rank);
      ASSERT_TRUE(engine.last_step_report(rank).ok);
    }
    result[static_cast<std::size_t>(rank)] = grad;
  });
  EXPECT_EQ(result[0], result[1]) << "ranks diverged under concurrent "
                                     "hook notifies";
}

}  // namespace
}  // namespace cgx::core
