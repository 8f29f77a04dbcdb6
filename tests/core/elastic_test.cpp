// Elastic-membership tests for CgxEngine (DESIGN.md §5h): a seeded rank
// crash at EVERY operation index must leave the survivors in lockstep, the
// shrink must be visible in StepReport, recovery must finish within the
// 4x-policy-timeout budget, crash runs must be bit-reproducible per seed,
// and a scheduled rejoin must restore the full world with bit-identical
// parameters on every rank.
#include "core/engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <span>
#include <vector>

#include "comm/collectives.h"
#include "comm/fault.h"
#include "comm/membership.h"
#include "comm/transports.h"
#include "comm/world.h"
#include "tensor/tensor_ops.h"

namespace cgx::core {
namespace {

using namespace std::chrono_literals;

tensor::LayerLayout tiny_layout() {
  tensor::LayerLayout layout;
  layout.add_layer("w0", tensor::Shape{24, 8});
  layout.add_layer("b0", tensor::Shape{48});
  return layout;
}

std::vector<float> rank_gradient(const tensor::LayerLayout& layout, int rank,
                                 int round) {
  util::Rng rng(4000 + 100 * static_cast<std::uint64_t>(round) +
                static_cast<std::uint64_t>(rank));
  std::vector<float> g(layout.total_numel());
  for (auto& v : g) v = static_cast<float>(rng.next_gaussian());
  return g;
}

struct ElasticOutcome {
  std::vector<std::vector<float>> grads;  // per GLOBAL rank; empty if dead
  std::vector<StepReport> reports;        // last report per global rank
  std::vector<bool> failed;               // oracle verdict per global rank
  std::uint64_t epoch = 0;
  int active = 0;
  std::uint64_t reshards = 0;
};

// Runs `rounds` engine steps over an elastic world with an optional seeded
// crash. Gradients are keyed by GLOBAL rank and round, so survivor results
// are comparable across runs regardless of who died when.
ElasticOutcome run_elastic_rounds(const tensor::LayerLayout& layout,
                                  int world, int rounds, std::uint64_t seed,
                                  int crash_rank, std::uint64_t crash_op,
                                  std::chrono::milliseconds timeout,
                                  std::vector<std::uint64_t>* ops_out =
                                      nullptr) {
  comm::ShmTransport inner(world);
  comm::CommPolicy pol;
  pol.timeout = timeout;
  pol.checksums = true;
  inner.set_policy(pol);
  comm::FaultInjector injector(seed, world);
  if (crash_rank >= 0) injector.schedule_crash(crash_rank, crash_op);
  if (ops_out != nullptr) injector.enable_op_counting();
  comm::FaultyTransport faulty(inner, injector);
  comm::Membership membership(world);

  EngineOptions options;
  options.scheme = comm::ReductionScheme::Ring;  // fixed arithmetic order
  // Generous agreement budget: the sweep runs with tiny policy timeouts, and
  // a missed agreement deadline is fatal (not retried), so the budget must
  // absorb scheduling noise on a loaded test machine.
  options.recovery_timeout = 2000ms;
  CgxEngine engine(layout, CompressionConfig::cgx_default(), world, options);

  ElasticOutcome out;
  out.grads.resize(static_cast<std::size_t>(world));
  out.reports.resize(static_cast<std::size_t>(world));
  out.failed.assign(static_cast<std::size_t>(world), false);
  comm::run_world(
      faulty,
      [&](comm::Comm& comm) {
        const int g = comm.global_rank();
        util::Rng rng(6000 + static_cast<std::uint64_t>(g));
        std::vector<float> grad;
        for (int round = 0; round < rounds; ++round) {
          grad = rank_gradient(layout, g, round);
          engine.allreduce(comm, grad, rng);
        }
        out.grads[static_cast<std::size_t>(g)] = grad;
        out.reports[static_cast<std::size_t>(g)] =
            engine.last_step_report(g);
      },
      comm::WorldOptions{&membership});
  for (int r = 0; r < world; ++r) {
    out.failed[static_cast<std::size_t>(r)] = membership.is_failed(r);
  }
  out.epoch = membership.epoch();
  out.active = membership.active_count();
  out.reshards = membership.reshard_count();
  if (ops_out != nullptr) {
    ops_out->resize(static_cast<std::size_t>(world));
    for (int r = 0; r < world; ++r) {
      (*ops_out)[static_cast<std::size_t>(r)] = injector.rank_ops(r);
    }
  }
  return out;
}

// Every survivor must have finished all rounds with the exact same bytes.
void expect_survivors_in_lockstep(const ElasticOutcome& out, int world,
                                  const char* context) {
  int reference = -1;
  for (int r = 0; r < world; ++r) {
    if (out.failed[static_cast<std::size_t>(r)]) continue;
    ASSERT_FALSE(out.grads[static_cast<std::size_t>(r)].empty())
        << context << ": survivor " << r << " never finished";
    if (reference < 0) {
      reference = r;
      continue;
    }
    const auto& a = out.grads[static_cast<std::size_t>(reference)];
    const auto& b = out.grads[static_cast<std::size_t>(r)];
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << context << ": survivors " << reference << " and " << r
        << " diverged";
  }
}

TEST(ElasticCrashSweep, EveryOpIndexLeavesSurvivorsInLockstepWorld4) {
  constexpr int kWorld = 4;
  constexpr int kRounds = 2;
  const auto layout = tiny_layout();
  // Probe run: count a clean run's per-rank transport ops, then crash at
  // every index of that range (indices past the end are valid clean runs).
  std::vector<std::uint64_t> ops;
  const auto clean = run_elastic_rounds(layout, kWorld, kRounds, /*seed=*/1,
                                        /*crash_rank=*/-1, 0, 200ms, &ops);
  EXPECT_EQ(clean.active, kWorld);
  EXPECT_EQ(clean.epoch, 0u);
  std::uint64_t max_ops = 0;
  for (auto o : ops) max_ops = std::max(max_ops, o);
  ASSERT_GT(max_ops, 0u);
  for (std::uint64_t idx = 0; idx <= max_ops + 1; ++idx) {
    const int victim = static_cast<int>(idx % kWorld);
    const auto out = run_elastic_rounds(layout, kWorld, kRounds, /*seed=*/1,
                                        victim, idx, 25ms);
    SCOPED_TRACE("crash_op=" + std::to_string(idx) +
                 " victim=" + std::to_string(victim));
    if (out.failed[static_cast<std::size_t>(victim)]) {
      EXPECT_EQ(out.active, kWorld - 1);
      EXPECT_GE(out.epoch, 1u);
      EXPECT_GE(out.reshards, 1u);
    } else {
      EXPECT_EQ(out.active, kWorld);  // index past the victim's last op
    }
    expect_survivors_in_lockstep(out, kWorld, "world-4 sweep");
  }
}

TEST(ElasticCrashSweep, EveryOpIndexLeavesSurvivorsInLockstepWorld8) {
  constexpr int kWorld = 8;
  constexpr int kRounds = 1;
  const auto layout = tiny_layout();
  std::vector<std::uint64_t> ops;
  const auto clean = run_elastic_rounds(layout, kWorld, kRounds, /*seed=*/2,
                                        /*crash_rank=*/-1, 0, 200ms, &ops);
  EXPECT_EQ(clean.active, kWorld);
  std::uint64_t max_ops = 0;
  for (auto o : ops) max_ops = std::max(max_ops, o);
  ASSERT_GT(max_ops, 0u);
  for (std::uint64_t idx = 0; idx <= max_ops + 1; ++idx) {
    const int victim = static_cast<int>(idx % kWorld);
    const auto out = run_elastic_rounds(layout, kWorld, kRounds, /*seed=*/2,
                                        victim, idx, 25ms);
    SCOPED_TRACE("crash_op=" + std::to_string(idx) +
                 " victim=" + std::to_string(victim));
    expect_survivors_in_lockstep(out, kWorld, "world-8 sweep");
  }
}

TEST(ElasticCrashSoak, EightSeedsAreBitReproducibleRunToRun) {
  constexpr int kWorld = 8;
  constexpr int kRounds = 2;
  const auto layout = tiny_layout();
  std::vector<std::uint64_t> ops;
  run_elastic_rounds(layout, kWorld, kRounds, /*seed=*/1, -1, 0, 200ms,
                     &ops);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const int victim = static_cast<int>((seed * 3) % kWorld);
    const std::uint64_t crash_op =
        (seed * 13) % ops[static_cast<std::size_t>(victim)];
    const auto first = run_elastic_rounds(layout, kWorld, kRounds, seed,
                                          victim, crash_op, 30ms);
    const auto second = run_elastic_rounds(layout, kWorld, kRounds, seed,
                                           victim, crash_op, 30ms);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " victim=" + std::to_string(victim) +
                 " crash_op=" + std::to_string(crash_op));
    EXPECT_TRUE(first.failed[static_cast<std::size_t>(victim)]);
    EXPECT_EQ(first.active, kWorld - 1);
    EXPECT_EQ(first.epoch, second.epoch);
    expect_survivors_in_lockstep(first, kWorld, "soak run 1");
    expect_survivors_in_lockstep(second, kWorld, "soak run 2");
    for (int r = 0; r < kWorld; ++r) {
      if (r == victim) continue;
      const auto& a = first.grads[static_cast<std::size_t>(r)];
      const auto& b = second.grads[static_cast<std::size_t>(r)];
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)),
                0)
          << "rank " << r << " differs between identical seeded runs";
    }
  }
}

TEST(ElasticRecovery, CompletesWithinFourPolicyTimeouts) {
  constexpr int kWorld = 4;
  constexpr int kRounds = 3;
  constexpr auto kTimeout = 80ms;
  const auto layout = tiny_layout();

  comm::ShmTransport inner(kWorld);
  comm::CommPolicy pol;
  pol.timeout = kTimeout;
  pol.checksums = true;
  inner.set_policy(pol);
  comm::FaultInjector injector(/*seed=*/5, kWorld);
  injector.schedule_crash(/*rank=*/2, /*op_index=*/40);
  comm::FaultyTransport faulty(inner, injector);
  comm::Membership membership(kWorld);

  EngineOptions options;
  options.scheme = comm::ReductionScheme::Ring;
  CgxEngine engine(layout, CompressionConfig::cgx_default(), kWorld,
                   options);

  std::vector<std::chrono::nanoseconds> worst(kWorld,
                                              std::chrono::nanoseconds{0});
  comm::run_world(
      faulty,
      [&](comm::Comm& comm) {
        const int g = comm.global_rank();
        util::Rng rng(6000 + static_cast<std::uint64_t>(g));
        std::vector<float> grad;
        for (int round = 0; round < kRounds; ++round) {
          grad = rank_gradient(layout, g, round);
          const auto start = std::chrono::steady_clock::now();
          engine.allreduce(comm, grad, rng);
          const auto elapsed = std::chrono::steady_clock::now() - start;
          worst[static_cast<std::size_t>(g)] =
              std::max(worst[static_cast<std::size_t>(g)], elapsed);
        }
      },
      comm::WorldOptions{&membership});

  EXPECT_EQ(membership.active_count(), kWorld - 1);
  for (int r = 0; r < kWorld; ++r) {
    if (membership.is_failed(r)) continue;
    // Fault detection + survivor agreement + re-shard + the retried step
    // all fit in the 4x-policy-timeout recovery budget.
    EXPECT_LE(worst[static_cast<std::size_t>(r)], 4 * kTimeout)
        << "rank " << r << " recovery exceeded the budget";
  }
}

TEST(ElasticWorld8, MidStepCrashFinishesAllStepsAndReportsTheShrink) {
  constexpr int kWorld = 8;
  constexpr int kRounds = 4;
  const auto layout = tiny_layout();

  comm::ShmTransport inner(kWorld);
  comm::CommPolicy pol;
  pol.timeout = 30ms;
  pol.checksums = true;
  inner.set_policy(pol);
  comm::FaultInjector injector(/*seed=*/7, kWorld);
  injector.schedule_crash(/*rank=*/5, /*op_index=*/23);
  comm::FaultyTransport faulty(inner, injector);
  comm::Membership membership(kWorld);

  EngineOptions options;
  options.scheme = comm::ReductionScheme::Ring;
  options.recovery_timeout = 500ms;  // satellite knob: explicit budget
  CgxEngine engine(layout, CompressionConfig::cgx_default(), kWorld,
                   options);

  std::vector<int> rounds_done(kWorld, 0);
  std::vector<StepReport> shrink_report(kWorld);
  comm::run_world(
      faulty,
      [&](comm::Comm& comm) {
        const int g = comm.global_rank();
        util::Rng rng(6000 + static_cast<std::uint64_t>(g));
        std::vector<float> grad;
        for (int round = 0; round < kRounds; ++round) {
          grad = rank_gradient(layout, g, round);
          engine.allreduce(comm, grad, rng);
          const StepReport& report = engine.last_step_report(g);
          EXPECT_TRUE(report.ok);
          if (report.departed > 0) {
            shrink_report[static_cast<std::size_t>(g)] = report;
          }
          ++rounds_done[static_cast<std::size_t>(g)];
        }
      },
      comm::WorldOptions{&membership});

  EXPECT_EQ(membership.active_count(), kWorld - 1);
  EXPECT_TRUE(membership.is_failed(5));
  EXPECT_EQ(engine.active_world(), kWorld - 1);
  for (int r = 0; r < kWorld; ++r) {
    if (r == 5) continue;
    EXPECT_EQ(rounds_done[static_cast<std::size_t>(r)], kRounds)
        << "survivor " << r << " did not finish every step";
    // Exactly one step reported the membership movement.
    EXPECT_EQ(shrink_report[static_cast<std::size_t>(r)].departed, 1);
    EXPECT_EQ(shrink_report[static_cast<std::size_t>(r)].world, kWorld - 1);
    EXPECT_GE(shrink_report[static_cast<std::size_t>(r)].epoch, 1u);
    EXPECT_GE(shrink_report[static_cast<std::size_t>(r)].retries, 1);
  }
}

// A survivor's rebuild() after a shrink must size compressors for the
// ACTIVE world (one per dense chunk), or the next step's collectives abort
// on a compressor count that no longer matches the world. The cached wire
// estimate must follow the shrink too.
TEST(ElasticRebuild, SurvivorRebuildAfterShrinkKeepsLockstep) {
  constexpr int kWorld = 4;
  constexpr int kVictim = 3;
  constexpr int kRounds = 3;
  const auto layout = tiny_layout();

  comm::ShmTransport inner(kWorld);
  comm::CommPolicy pol;
  pol.timeout = 40ms;
  pol.checksums = true;
  inner.set_policy(pol);
  comm::FaultInjector injector(/*seed=*/3, kWorld);
  injector.schedule_crash(kVictim, /*op_index=*/5);  // dies in step 0
  comm::FaultyTransport faulty(inner, injector);
  comm::Membership membership(kWorld);

  EngineOptions options;
  options.scheme = comm::ReductionScheme::Ring;
  options.recovery_timeout = 2000ms;
  CgxEngine engine(layout, CompressionConfig::cgx_default(), kWorld,
                   options);
  const double launch_wire = engine.cached_wire_bytes();
  const double shrunk_wire =
      CgxEngine(layout, CompressionConfig::cgx_default(), kWorld - 1,
                options)
          .cached_wire_bytes();
  ASSERT_NE(launch_wire, shrunk_wire);

  std::vector<std::vector<float>> grads(kWorld);
  std::vector<double> reported_wire(kWorld, 0.0);
  comm::run_world(
      faulty,
      [&](comm::Comm& comm) {
        const int g = comm.global_rank();
        util::Rng rng(6000 + static_cast<std::uint64_t>(g));
        std::vector<float> grad;
        for (int round = 0; round < kRounds; ++round) {
          grad = rank_gradient(layout, g, round);
          engine.allreduce(comm, grad, rng);
          if (round == 0) {
            ASSERT_EQ(engine.last_step_report(g).world, kWorld - 1);
            // Quiesced policy rebuild on one survivor, between barriers.
            comm.barrier();
            if (comm.rank() == 0) engine.rebuild();
            comm.barrier();
          }
        }
        reported_wire[static_cast<std::size_t>(g)] =
            engine.last_step_report(g).wire_bytes;
        grads[static_cast<std::size_t>(g)] = grad;
      },
      comm::WorldOptions{&membership});

  ASSERT_TRUE(membership.is_failed(kVictim));
  EXPECT_EQ(engine.active_world(), kWorld - 1);
  EXPECT_EQ(engine.cached_wire_bytes(), shrunk_wire);
  for (int r = 0; r < kWorld; ++r) {
    if (r == kVictim) continue;
    ASSERT_EQ(grads[static_cast<std::size_t>(r)].size(), layout.total_numel())
        << "survivor " << r << " never finished";
    EXPECT_EQ(reported_wire[static_cast<std::size_t>(r)], shrunk_wire);
    EXPECT_EQ(std::memcmp(grads[0].data(),
                          grads[static_cast<std::size_t>(r)].data(),
                          layout.total_numel() * sizeof(float)),
              0)
        << "survivor " << r << " diverged from survivor 0";
  }
}

TEST(ElasticRejoin, RestoresTheFullWorldWithIdenticalParameters) {
  constexpr int kWorld = 8;
  constexpr std::uint64_t kSteps = 8;
  constexpr std::uint64_t kRejoinStep = 5;
  constexpr int kVictim = 3;
  const auto layout = tiny_layout();
  const std::size_t numel = layout.total_numel();

  comm::ShmTransport inner(kWorld);
  comm::CommPolicy pol;
  pol.timeout = 40ms;
  pol.checksums = true;
  inner.set_policy(pol);
  comm::FaultInjector injector(/*seed=*/11, kWorld);
  injector.schedule_crash(kVictim, /*op_index=*/17);  // dies in step 0-1
  comm::FaultyTransport faulty(inner, injector);
  comm::Membership membership(kWorld);
  membership.schedule_rejoin(kVictim, kRejoinStep);

  EngineOptions options;
  options.scheme = comm::ReductionScheme::Ring;
  options.recovery_timeout = 2000ms;
  CgxEngine engine(layout, CompressionConfig::cgx_default(), kWorld,
                   options);
  const comm::Membership::ReshardFn rebuild =
      [&](const comm::WorldView& v) { engine.apply_view(v); };

  std::vector<std::vector<float>> params(static_cast<std::size_t>(kWorld));
  std::vector<bool> completed(kWorld, false);
  comm::run_world(
      faulty,
      [&](comm::Comm& comm) {
        const int g = comm.global_rank();
        util::Rng rng(6000 + static_cast<std::uint64_t>(g));
        std::vector<float> p(numel, 0.0f);
        std::uint64_t step = 0;
        if (membership.is_scheduled_joiner(g)) {
          // Readmission candidate: wait for the survivors to open the
          // window, then receive authoritative parameters by broadcast.
          const auto adm = membership.await_rejoin(comm, 30'000ms);
          comm::broadcast(comm, std::span<float>(p),
                          membership.view()->dense_rank(adm.root));
          step = adm.resume_step;
        }
        std::vector<float> grad;
        while (step < kSteps) {
          const auto act = membership.apply_scheduled(comm, step, rebuild);
          if (act.leave) return;
          if (act.joined >= 0) {
            comm::broadcast(comm, std::span<float>(p),
                            membership.view()->dense_rank(act.join_root));
          }
          grad = rank_gradient(layout, g, static_cast<int>(step));
          engine.allreduce(comm, grad, rng);
          for (std::size_t i = 0; i < numel; ++i) p[i] -= 0.1f * grad[i];
          ++step;
        }
        params[static_cast<std::size_t>(g)] = std::move(p);
        completed[static_cast<std::size_t>(g)] = true;
      },
      comm::WorldOptions{&membership});

  // The rejoin restored the full world...
  EXPECT_EQ(membership.active_count(), kWorld);
  EXPECT_EQ(engine.active_world(), kWorld);
  EXPECT_GE(membership.epoch(), 2u);  // one shrink + one re-expansion
  // ...and every rank (the readmitted one included) finished all steps
  // with bit-identical parameters.
  for (int r = 0; r < kWorld; ++r) {
    ASSERT_TRUE(completed[static_cast<std::size_t>(r)])
        << "rank " << r << " never finished";
  }
  for (int r = 1; r < kWorld; ++r) {
    EXPECT_EQ(std::memcmp(params[0].data(),
                          params[static_cast<std::size_t>(r)].data(),
                          numel * sizeof(float)),
              0)
        << "rank " << r << " parameters differ from rank 0 after rejoin";
  }
}

}  // namespace
}  // namespace cgx::core
