// Elastic-membership benchmark (DESIGN.md §5h): what does surviving a rank
// crash cost? For worlds 8 -> 7 and 16 -> 14, over the SHM backend and the
// simulated multi-node fabric (SimNet), a seeded mid-step crash is injected
// and the run measures
//
//   * recovery latency — the wall-clock duration of the step that observes
//     the shrink (fault detection via the bounded policy deadline, survivor
//     agreement, epoch fence + flush, plan rebuild, and the retried step),
//     reported raw and with the clean-step cost subtracted;
//   * degraded-world throughput — mean step time before the first crash vs
//     after the last one, so the shrink's steady-state cost is visible.
//
// Every configuration asserts that the survivors finish in lockstep (their
// final reduced vectors are bit-identical). Results go to
// results/BENCH_elastic.json; the gate requires lockstep everywhere and
// recovery within 4x the policy timeout (informational under --smoke).
//
// --smoke: world 8 only, fewer steps.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "comm/fault.h"
#include "comm/membership.h"
#include "comm/simnet.h"
#include "comm/transports.h"
#include "comm/world.h"
#include "core/engine.h"
#include "util/table.h"

using namespace cgx;
using namespace std::chrono_literals;

namespace {

constexpr auto kPolicyTimeout = 40ms;
constexpr int kRanksPerNode = 4;

tensor::LayerLayout bench_layout() {
  tensor::LayerLayout layout;
  layout.add_layer("block.weight", tensor::Shape{256, 256});  // 256 KiB
  layout.add_layer("block.bias", tensor::Shape{512});
  return layout;
}

std::vector<float> rank_gradient(const tensor::LayerLayout& layout, int rank,
                                 int round) {
  util::Rng rng(8800 + 100 * static_cast<std::uint64_t>(round) +
                static_cast<std::uint64_t>(rank));
  std::vector<float> g(layout.total_numel());
  for (auto& v : g) v = static_cast<float>(rng.next_gaussian());
  return g;
}

struct CrashPlan {
  int rank;
  std::uint64_t op;
};

struct ConfigResult {
  std::string transport;
  int world = 0;
  int survivors = 0;
  double full_ms_per_step = 0.0;
  double degraded_ms_per_step = 0.0;
  std::vector<double> recovery_ms;  // raw crash-step durations, in order
  std::uint64_t epoch = 0;
  std::uint64_t stale_frames = 0;
  bool lockstep = true;
};

// One elastic run: `world` ranks, `rounds` engine steps, the scheduled
// crashes striking mid-run. Per-rank per-round wall times and StepReports
// feed the latency/throughput split afterwards.
ConfigResult run_config(const std::string& transport_name, int world,
                        int rounds, const std::vector<CrashPlan>& crashes) {
  const auto layout = bench_layout();
  comm::ShmTransport shm(world);
  std::unique_ptr<comm::SimNetTransport> simnet;
  comm::Transport* stack = &shm;
  if (transport_name == "simnet") {
    simnet = std::make_unique<comm::SimNetTransport>(
        shm, comm::Topology::grouped(world, kRanksPerNode),
        comm::SimNetParams{});
    stack = simnet.get();
  }
  comm::FaultInjector injector(/*seed=*/1, world);
  for (const CrashPlan& c : crashes) injector.schedule_crash(c.rank, c.op);
  comm::FaultyTransport faulty(*stack, injector);
  comm::CommPolicy pol;
  pol.timeout = kPolicyTimeout;
  pol.checksums = true;
  faulty.set_policy(pol);
  comm::Membership membership(world);

  core::EngineOptions options;
  options.scheme = comm::ReductionScheme::Ring;  // bit-comparable survivors
  options.recovery_timeout = 2000ms;
  core::CgxEngine engine(layout, core::CompressionConfig::cgx_default(),
                         world, options);

  struct Sample {
    double ms = 0.0;
    int world_after = 0;
    int departed = 0;
  };
  std::vector<std::vector<Sample>> samples(static_cast<std::size_t>(world));
  std::vector<std::vector<float>> finals(static_cast<std::size_t>(world));
  comm::run_world(
      faulty,
      [&](comm::Comm& comm) {
        const int g = comm.global_rank();
        util::Rng rng(50 + static_cast<std::uint64_t>(g));
        std::vector<float> grad;
        auto& mine = samples[static_cast<std::size_t>(g)];
        for (int round = 0; round < rounds; ++round) {
          grad = rank_gradient(layout, g, round);
          const auto start = std::chrono::steady_clock::now();
          engine.allreduce(comm, grad, rng);
          const auto end = std::chrono::steady_clock::now();
          const core::StepReport& report = engine.last_step_report(g);
          Sample s;
          s.ms = 1e-6 * static_cast<double>(
                            std::chrono::duration_cast<std::chrono::nanoseconds>(
                                end - start)
                                .count());
          s.world_after = report.world;
          s.departed = report.departed;
          mine.push_back(s);
        }
        finals[static_cast<std::size_t>(g)] = grad;
      },
      comm::WorldOptions{&membership});

  ConfigResult out;
  out.transport = transport_name;
  out.world = world;
  out.survivors = membership.active_count();
  out.epoch = membership.epoch();
  out.stale_frames = faulty.stale_frames_discarded();

  // Lockstep: every survivor finished all rounds with identical bytes.
  int reference = -1;
  for (int r = 0; r < world; ++r) {
    if (membership.is_failed(r)) continue;
    if (finals[static_cast<std::size_t>(r)].empty()) {
      out.lockstep = false;
      continue;
    }
    if (reference < 0) {
      reference = r;
    } else if (finals[static_cast<std::size_t>(r)] !=
               finals[static_cast<std::size_t>(reference)]) {
      out.lockstep = false;
    }
  }

  // Throughput split over the reference survivor's timeline: full-world
  // steps before the first shrink, degraded steps once every scheduled
  // crash has been absorbed, and the shrink-observing steps themselves
  // (max across survivors — recovery ends when the slowest one is back).
  const int degraded_world = world - static_cast<int>(crashes.size());
  double full_sum = 0.0, degraded_sum = 0.0;
  int full_n = 0, degraded_n = 0;
  const auto& timeline = samples[static_cast<std::size_t>(reference)];
  for (const Sample& s : timeline) {
    if (s.departed > 0) continue;  // a recovery step, counted below
    if (s.world_after == world) {
      full_sum += s.ms;
      ++full_n;
    } else if (s.world_after == degraded_world) {
      degraded_sum += s.ms;
      ++degraded_n;
    }
  }
  out.full_ms_per_step = full_n > 0 ? full_sum / full_n : 0.0;
  out.degraded_ms_per_step = degraded_n > 0 ? degraded_sum / degraded_n : 0.0;
  const std::size_t rounds_seen = timeline.size();
  for (std::size_t i = 0; i < rounds_seen; ++i) {
    double worst = 0.0;
    bool shrank = false;
    for (int r = 0; r < world; ++r) {
      const auto& t = samples[static_cast<std::size_t>(r)];
      if (i >= t.size()) continue;
      if (t[i].departed > 0) {
        shrank = true;
        worst = std::max(worst, t[i].ms);
      }
    }
    if (shrank) out.recovery_ms.push_back(worst);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const int rounds = smoke ? 8 : 14;

  struct Config {
    int world;
    std::vector<CrashPlan> crashes;
  };
  // Crash ops land mid-run: a step of this layout costs a rank roughly 40+
  // transport ops at world 8, so op 150 strikes around step 3. The world-16
  // run loses two ranks at different steps (8 -> ... -> 14 would need a
  // second bench; 16 -> 14 in one run exercises a repeated shrink instead).
  std::vector<Config> configs{{8, {{5, 150}}}};
  if (!smoke) configs.push_back({16, {{5, 150}, {11, 400}}});

  util::Table table("Elastic recovery - seeded crash, policy timeout " +
                    std::to_string(kPolicyTimeout.count()) + " ms");
  table.set_header({"transport", "world", "survivors", "full ms/step",
                    "degraded ms/step", "recovery ms", "epoch", "lockstep"});

  std::vector<ConfigResult> results;
  for (const std::string& transport : {std::string("shm"),
                                       std::string("simnet")}) {
    for (const Config& config : configs) {
      ConfigResult r = run_config(transport, config.world, rounds,
                                  config.crashes);
      std::string rec;
      for (std::size_t i = 0; i < r.recovery_ms.size(); ++i) {
        rec += (i > 0 ? " / " : "") + util::Table::num(r.recovery_ms[i], 1);
      }
      table.add_row({r.transport, std::to_string(r.world),
                     std::to_string(r.survivors),
                     util::Table::num(r.full_ms_per_step, 2),
                     util::Table::num(r.degraded_ms_per_step, 2), rec,
                     std::to_string(r.epoch), r.lockstep ? "yes" : "NO"});
      results.push_back(std::move(r));
    }
  }
  table.print();

  // Gate: lockstep everywhere, every crash absorbed, and recovery within
  // the 4x-policy-timeout budget (informational under --smoke, where a
  // loaded machine can skew wall-clock numbers).
  const double budget_ms = 4.0 * static_cast<double>(kPolicyTimeout.count());
  bool all_lockstep = true;
  bool all_shrank = true;
  double worst_recovery = 0.0;
  for (const ConfigResult& r : results) {
    all_lockstep = all_lockstep && r.lockstep;
    all_shrank = all_shrank && r.survivors < r.world &&
                 !r.recovery_ms.empty();
    for (double ms : r.recovery_ms) {
      worst_recovery = std::max(worst_recovery, ms);
    }
  }
  const bool gate_pass =
      all_lockstep && all_shrank && (smoke || worst_recovery <= budget_ms);

  std::ofstream out(bench::results_path("BENCH_elastic.json"));
  out << "{\n  \"configs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    char line[512];
    std::string rec = "[";
    for (std::size_t k = 0; k < r.recovery_ms.size(); ++k) {
      char num[32];
      std::snprintf(num, sizeof(num), "%s%.2f", k > 0 ? ", " : "",
                    r.recovery_ms[k]);
      rec += num;
    }
    rec += "]";
    std::snprintf(
        line, sizeof(line),
        "    {\"transport\": \"%s\", \"world\": %d, \"survivors\": %d, "
        "\"full_ms_per_step\": %.3f, \"degraded_ms_per_step\": %.3f, "
        "\"degraded_over_full\": %.3f, \"recovery_ms\": %s, "
        "\"final_epoch\": %llu, \"stale_frames_discarded\": %llu, "
        "\"lockstep\": %s}%s\n",
        r.transport.c_str(), r.world, r.survivors, r.full_ms_per_step,
        r.degraded_ms_per_step,
        r.full_ms_per_step > 0.0
            ? r.degraded_ms_per_step / r.full_ms_per_step
            : 0.0,
        rec.c_str(), static_cast<unsigned long long>(r.epoch),
        static_cast<unsigned long long>(r.stale_frames),
        r.lockstep ? "true" : "false",
        i + 1 < results.size() ? "," : "");
    out << line;
  }
  char gate[320];
  std::snprintf(gate, sizeof(gate),
                "  ],\n  \"gate\": {\"policy_timeout_ms\": %lld, "
                "\"recovery_budget_ms\": %.1f, \"worst_recovery_ms\": %.2f, "
                "\"all_lockstep\": %s, \"all_crashes_absorbed\": %s, "
                "\"pass\": %s},\n  \"smoke\": %s\n}\n",
                static_cast<long long>(kPolicyTimeout.count()), budget_ms,
                worst_recovery, all_lockstep ? "true" : "false",
                all_shrank ? "true" : "false", gate_pass ? "true" : "false",
                smoke ? "true" : "false");
  out << gate;
  std::printf("wrote results/BENCH_elastic.json\n");

  if (!all_lockstep) {
    std::fprintf(stderr, "FAIL: survivors disagree on the reduced vector\n");
    return 1;
  }
  if (!all_shrank) {
    std::fprintf(stderr, "FAIL: a scheduled crash was never absorbed\n");
    return 1;
  }
  if (!gate_pass) {
    std::fprintf(stderr,
                 "FAIL: recovery %.1f ms exceeded the %.1f ms budget "
                 "(4x policy timeout)\n",
                 worst_recovery, budget_ms);
    return 1;
  }
  return 0;
}
