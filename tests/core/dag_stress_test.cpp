// DAG-scheduler stress, built to run under ThreadSanitizer (`ctest -L
// dag+tsan` with the tsan preset). Three pressure points: (1) a randomized
// replayed op graph soaked on a wide pool — any missing happens-before
// between the scoreboard, the raw task ring, and op bodies shows up as a
// race or a mis-ordered conflict; (2) concurrent notify_layer_ready calls
// from pool workers into the multi-lane streaming engine — the
// producer-side submit lock and the per-lane SPSC queues are the
// machinery under test; (3) the raw submit path itself, hammered from
// many producers at once.
#include <gtest/gtest.h>

#include <atomic>
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
  // times on a 7-thread pool. Every op bumps a per-variable epoch for each
  // write and checks it for each read; the derived edges must make those
  // accesses race-free and correctly ordered, which tsan verifies directly.
  constexpr int kVars = 8;
  constexpr int kOps = 64;
  constexpr int kReplays = 30;
  util::ThreadPool pool(7);
  DepEngine dag(&pool);

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

TEST(DagStress, ConcurrentHookNotifiesIntoMultiLaneEngine) {
  // The trainer's DAG executor calls notify_layer_ready from pool workers:
  // many producers, two comm-lane consumers, ordered launch. Layers are
  // announced by a DepEngine whose completion callbacks fire concurrently;
  // the ordered frontier must still release buckets in canonical order on
  // every rank, and results must stay in lockstep across rounds.
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
  ASSERT_GT(engine.plan().buckets.size(), 2u);

  comm::ShmTransport transport(kWorld);
  std::vector<std::vector<float>> result(kWorld);
  comm::run_world(transport, [&](comm::Comm& comm) {
    const int rank = comm.rank();
    // Per-rank executor, as the trainer wires it: one pool, one DepEngine,
    // one op per layer with independent variables so completions (and thus
    // notifies) land in scrambled order from multiple workers at once.
    util::ThreadPool pool(4);
    DepEngine dag(&pool);
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
      dag.run();  // fires every notify from pool workers
      engine.wait_all(rank);
      ASSERT_TRUE(engine.last_step_report(rank).ok);
    }
    result[static_cast<std::size_t>(rank)] = grad;
  });
  EXPECT_EQ(result[0], result[1]) << "ranks diverged under concurrent "
                                     "hook notifies";
}

TEST(DagStress, RawSubmitPathSurvivesManyProducers) {
  // submit_raw from 6 threads at once while workers drain: the grow-only
  // ring plus the mutex hand-off must neither lose nor duplicate tasks.
  constexpr int kProducers = 6;
  constexpr int kPerProducer = 500;
  util::ThreadPool pool(4);
  pool.reserve_raw(kProducers * kPerProducer);
  std::atomic<int> ran{0};
  {
    util::ThreadPool producers(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.submit([&pool, &ran] {
        for (int i = 0; i < kPerProducer; ++i) {
          pool.submit_raw(
              [](void* ctx, std::size_t) {
                static_cast<std::atomic<int>*>(ctx)->fetch_add(
                    1, std::memory_order_relaxed);
              },
              &ran, 0);
        }
      });
    }
    producers.wait_idle();
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), kProducers * kPerProducer);
}

}  // namespace
}  // namespace cgx::core
