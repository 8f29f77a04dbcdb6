// End-to-end training benchmark: one command per (workload, seed) that
// trains for real, checks the result, and prints every metric by name with
// its unit; the last stdout line is the machine-readable result.
//
//   cgx_perfbench --workload W --seed N --seconds S --trace 0|1
//                 [--out DIR] [--commit SHA] [--src-hash SHA]
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 reports the per-layer metrics from a traced run that records
// every other step (the steps in between give the tracing overhead), then
// checks a shorter untraced run against it. Both modes run the correctness
// gate and exit 1 when it fails. See README.md.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "core/compression_config.h"
#include "driver.h"
#include "simgpu/timeline.h"
#include "util/simd.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};
}  // namespace

// Counts heap allocations (every thread) while the traced window runs.
void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

void set_alloc_counting(bool on) {
  if (on) g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(on, std::memory_order_relaxed);
}
std::size_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

namespace {

using namespace cgx;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_out";
  std::string commit = "unknown";
  std::string src_hash = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--out") {
      a.out = val;
    } else if (key == "--commit") {
      a.commit = val;
    } else if (key == "--src-hash") {
      a.src_hash = val;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string env_or_empty(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : "";
}

// Where the numbers came from: a figure from another machine, build or
// source tree must never pass for a speed-up.
std::string provenance_json(const Args& a) {
  char host[256] = {};
  gethostname(host, sizeof(host) - 1);
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  std::ostringstream o;
  o << "{\"workload\": " << json_str(a.workload) << ", \"seed\": " << a.seed
    << ", \"trace\": " << (a.trace ? 1 : 0)
    << ", \"git_commit\": " << json_str(a.commit)
    << ", \"src_sha256\": " << json_str(a.src_hash)
    << ", \"host\": " << json_str(host)
    << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"affinity_cpus\": " << affinity << ", \"simd\": "
    << json_str(util::simd::level_name(util::simd::active_level()))
    << ", \"build_type\": " << json_str(CGX_BENCH_BUILD_TYPE)
    << ", \"compiler\": " << json_str(__VERSION__)
    << ", \"CGX_SIMD\": " << json_str(env_or_empty("CGX_SIMD"))
    << ", \"CGX_NUMA\": " << json_str(env_or_empty("CGX_NUMA")) << "}";
  return o.str();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double sum_of(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// The step-time metrics are medians over an odd number of consecutive
// windows of at least kWindowSteps measured steps each, so a burst of host
// contention that slows one window does not move them. Each window's p90
// still has at least 10 steps beyond it.
constexpr std::size_t kWindowSteps = 100;

struct StepStats {
  double samples_per_s = 0.0;
  double p50_s = 0.0;
  double p90_s = 0.0;
  std::size_t windows = 0;
};

StepStats windowed(const std::vector<double>& steps,
                   double samples_per_step) {
  std::size_t k = std::max<std::size_t>(steps.size() / kWindowSteps, 1);
  if (k % 2 == 0) --k;
  std::vector<double> rate, p50, p90;
  for (std::size_t i = 0; i < k; ++i) {
    const std::vector<double> win(
        steps.begin() + static_cast<std::ptrdiff_t>(steps.size() * i / k),
        steps.begin() +
            static_cast<std::ptrdiff_t>(steps.size() * (i + 1) / k));
    rate.push_back(samples_per_step * static_cast<double>(win.size()) /
                   std::max(sum_of(win), 1e-12));
    p50.push_back(percentile(win, 0.5));
    p90.push_back(percentile(win, 0.9));
  }
  return {percentile(rate, 0.5), percentile(p50, 0.5), percentile(p90, 0.5),
          k};
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b,
               std::size_t n) {
  if (a.size() < n || b.size() < n) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Check {
  std::string name;
  bool pass;
};

// Replays rank 0's captured gradient, layer by layer, through
// make_compressor(cfg) for every compressible layer; `cfg_of` picks the
// policy per layer. Returns {compress GB/s, decompress GB/s, compress ms
// for one pass over the gradient}.
struct Replay {
  double compress_gbps = 0.0;
  double decompress_gbps = 0.0;
  double compress_ms = 0.0;
};

template <class CfgOf>
Replay replay_codec(const tensor::LayerLayout& layout,
                    const std::vector<core::LayerCompression>& resolved,
                    const std::vector<float>& gradient, CfgOf cfg_of) {
  struct Layer {
    std::unique_ptr<core::Compressor> codec;
    std::span<const float> in;
    std::vector<std::byte> payload;
    std::size_t used = 0;
    std::vector<float> out;
  };
  std::vector<Layer> layers;
  double bytes = 0.0;
  for (std::size_t l = 0; l < layout.layer_count(); ++l) {
    if (resolved[l].method == core::Method::None) continue;
    const auto& info = layout.layer(l);
    const std::size_t rows = info.shape.empty() ? 0 : info.shape.front();
    Layer layer;
    layer.codec = core::make_compressor(cfg_of(resolved[l]), rows);
    layer.in = layout.slice(std::span<const float>(gradient), l);
    layer.payload.resize(layer.codec->compressed_size(layer.in.size()));
    layer.out.resize(layer.in.size());
    bytes += 4.0 * static_cast<double>(layer.in.size());
    layers.push_back(std::move(layer));
  }
  Replay r;
  if (layers.empty()) return r;
  util::Rng rng(7);
  // Repeat whole passes until each side has run for at least 50 ms.
  const auto timed_passes = [&](auto&& pass) {
    std::size_t reps = 0;
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = t0;
    while (reps < 3 || t1 - t0 < 50'000'000) {
      pass();
      ++reps;
      t1 = now_ns();
    }
    return std::make_pair(1e-9 * static_cast<double>(t1 - t0),
                          static_cast<double>(reps));
  };
  const auto [c_s, c_reps] = timed_passes([&] {
    for (Layer& l : layers) l.used = l.codec->compress(l.in, l.payload, rng);
  });
  const auto [d_s, d_reps] = timed_passes([&] {
    for (Layer& l : layers) {
      l.codec->decompress(std::span<const std::byte>(l.payload).first(l.used),
                          l.out);
    }
  });
  r.compress_gbps = bytes * c_reps / c_s / 1e9;
  r.decompress_gbps = bytes * d_reps / d_s / 1e9;
  r.compress_ms = 1e3 * c_s / c_reps;
  return r;
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream(path) << text;
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed);
  const std::string provenance = provenance_json(args);
  std::printf("provenance %s\n", provenance.c_str());
  std::fflush(stdout);

  const Dataset data = generate_dataset(w);
  std::vector<Check> checks;
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  const auto check_instance = [&](const InstanceResult& r, const char* what) {
    if (!r.ok) std::printf("%s failed: %s\n", what, r.error.c_str());
    bool finite = true;
    for (double l : r.losses) finite = finite && std::isfinite(l);
    checks.push_back({std::string(what) + ".completed", r.ok});
    checks.push_back({std::string(what) + ".replicas_bit_identical",
                      r.ok && r.replicas_identical});
    checks.push_back({std::string(what) + ".losses_finite",
                      r.ok && finite && r.failed_steps == 0});
    attempted += r.measured_steps;
    failed += r.failed_steps;
  };

  InstanceResult measured;
  InstanceResult traced;
  std::vector<InstanceResult> extra_setups;
  Tracer tracer(w.world, args.trace ? std::size_t{1} << 19 : 0);
  if (!args.trace) {
    // Set-up is timed three times; the first instance also measures, so
    // its peak RSS is read before the repetitions add their own.
    measured = run_instance(w, data, args.seed, {true, args.seconds, 0, nullptr});
    for (int i = 0; i < 2; ++i) {
      extra_setups.push_back(
          run_instance(w, data, args.seed, {false, 0.0, 0, nullptr}));
    }
    check_instance(measured, "measured");
    for (const auto& r : extra_setups) check_instance(r, "setup");
    std::vector<double> setups{measured.setup_s};
    for (const auto& r : extra_setups) setups.push_back(r.setup_s);
    // Warm-up is deterministic, so every repetition trains identically.
    bool repeatable = true;
    for (const auto& r : extra_setups) {
      repeatable = repeatable && same_bits(r.losses, measured.losses,
                                           w.warmup_steps);
    }
    checks.push_back({"setup_repetitions_bit_identical", repeatable});

    const StepStats st = windowed(
        measured.step_s,
        static_cast<double>(w.batch * static_cast<std::size_t>(w.world)));
    // Mean over every rank and the second half of the first min_steps
    // measured steps: a fixed span, so a faster build does not train
    // longer before the loss is read.
    const std::size_t loss_end = w.warmup_steps + w.min_steps;
    const std::size_t loss_begin = loss_end - w.min_steps / 2;
    double loss_tail = 0.0;
    for (std::size_t i = loss_begin; i < loss_end; ++i) {
      loss_tail += measured.mean_losses.at(i) /
                   static_cast<double>(loss_end - loss_begin);
    }
    metrics = {
        {"samples_per_s", st.samples_per_s, "1/s"},
        {"step_ms_p50", 1e3 * st.p50_s, "ms"},
        {"step_ms_p90", 1e3 * st.p90_s, "ms"},
        {"setup_s", percentile(setups, 0.5), "s"},
        {"loss_final", loss_tail, "nats"},
        {"peak_rss_mb", measured.peak_rss_mb, "MiB"},
        {"ok_step_frac",
         measured.measured_steps > 0
             ? 1.0 - static_cast<double>(measured.failed_steps) /
                         static_cast<double>(measured.measured_steps)
             : 0.0,
         "frac"},
    };
    std::printf("measured %zu steps in %zu windows\n", measured.step_s.size(),
                st.windows);
  } else {
    // The traced instance records every other measured step; a shorter
    // untraced instance must train bit-identically over its length.
    traced = run_instance(w, data, args.seed,
                          {true, args.seconds, 0, &tracer});
    measured = run_instance(w, data, args.seed,
                            {true, 0.0, w.min_steps / 4, nullptr});
    check_instance(traced, "traced");
    check_instance(measured, "untraced");
    checks.push_back({"traced_losses_equal_untraced",
                      same_bits(measured.losses, traced.losses,
                                measured.losses.size())});
  }
  const InstanceResult& main_run = args.trace ? traced : measured;

  // The driver must run the trainer's computation: compare its loss
  // history with nn::train_distributed's over the warm-up prefix.
  if (w.ranks_per_node == 0) {
    const std::vector<double> ref =
        trainer_losses(w, data, args.seed, w.warmup_steps);
    checks.push_back({"losses_equal_train_distributed",
                      same_bits(ref, main_run.losses, w.warmup_steps)});
  }

  if (args.trace) {
    const InstanceResult& t = traced;
    // Odd measured steps were recorded, even ones ran with recording off.
    std::vector<double> on_s, off_s;
    for (std::size_t i = 0; i < t.step_s.size(); ++i) {
      (i % 2 == 1 ? on_s : off_s).push_back(t.step_s[i]);
    }
    const double all_steps =
        static_cast<double>(std::max<std::size_t>(t.measured_steps, 1));
    const double steps = static_cast<double>(std::max<std::size_t>(on_s.size(), 1));
    const double rank_steps = steps * w.world;
    const auto per_rank_step = [&](std::initializer_list<const char*> names) {
      double ms = 0.0;
      for (const char* n : names) ms += tracer.total_ms(tracer.intern(n));
      return ms / rank_steps;
    };
    const double forward = per_rank_step({"nn.forward"});
    const double backward = per_rank_step({"nn.backward"});
    const double optimizer = per_rank_step({"nn.optimizer"});
    const double exposed = per_rank_step({"core.allreduce", "core.wait_all"});
    const double send = per_rank_step({"comm.send", "comm.direct_post"});
    const double recv = per_rank_step(
        {"comm.recv", "comm.recv_add", "comm.direct_pull", "comm.direct_pull2"});
    const double wait =
        per_rank_step({"comm.select_source", "comm.direct_wait"});
    const double comm_busy = w.streaming
                                 ? 1e3 * t.probe.timing_comm_s / rank_steps
                                 : exposed;

    // Codec replay over the captured gradient.
    const auto& g = t.probe.gradient;
    const auto& res = t.probe.resolved;
    const auto with = [](core::Method m) {
      return [m](const core::LayerCompression&) {
        core::LayerCompression c;
        c.method = m;
        return c;
      };
    };
    const Replay qsgd = replay_codec(t.layout, res, g, with(core::Method::Qsgd));
    const Replay nuq = replay_codec(t.layout, res, g, with(core::Method::Nuq));
    const Replay topk = replay_codec(t.layout, res, g, with(core::Method::TopK));
    const Replay policy = replay_codec(
        t.layout, res, g, [](const core::LayerCompression& c) { return c; });
    const double compress = w.streaming
                                ? 1e3 * t.probe.timing_compress_s / rank_steps
                                : policy.compress_ms;

    // Model check: the traced stage times through simgpu::simulate_step.
    const double replan_total = t.replans > 0 ? t.replan_ms + t.rebuild_ms : 0.0;
    simgpu::StepSpec spec;
    spec.forward_s = 1e-3 * forward;
    for (double ms : t.probe.backward_ms) spec.backward_s.push_back(1e-3 * ms);
    for (double ms : t.probe.comm_ms) spec.comm_s.push_back(1e-3 * ms);
    spec.optimizer_s = 1e-3 * (optimizer + replan_total / all_steps);
    const double predicted = simgpu::simulate_step(spec).step_s;
    const double measured_step = sum_of(on_s) / steps;

    // Window counters cover every measured step, recorded or not.
    const double cached = t.cached_wire_bytes / all_steps;
    metrics = {
        {"nn.forward_ms", forward, "ms"},
        {"nn.backward_ms", backward, "ms"},
        {"nn.optimizer_ms", optimizer, "ms"},
        {"core.exposed_comm_ms", exposed, "ms"},
        {"core.comm_busy_ms", comm_busy, "ms"},
        {"core.compress_ms", compress, "ms"},
        {"core.self_ms", comm_busy - send - recv - wait, "ms"},
        {"core.hidden_comm_pct",
         w.streaming && t.probe.timing_comm_s > 0.0
             ? 100.0 * (1.0 - t.probe.timing_exposed_s / t.probe.timing_comm_s)
             : 0.0,
         "%"},
        {"core.replans", static_cast<double>(t.replans), "count"},
        {"core.replan_ms",
         t.replans > 0 ? t.replan_ms / t.replans : t.probe.probe_replan_ms,
         "ms"},
        {"core.rebuild_ms",
         t.replans > 0 ? t.rebuild_ms / t.replans : t.probe.probe_rebuild_ms,
         "ms"},
        {"core.scratch_mib", t.scratch_bytes / 1048576.0, "MiB"},
        {"core.retries", static_cast<double>(t.retries), "count"},
        {"core.wire_est_ratio",
         cached > 0.0 ? (t.wire_bytes / all_steps) / (cached * w.world)
                      : 0.0,
         "ratio"},
        {"codec.qsgd.compress_gbps", qsgd.compress_gbps, "GB/s"},
        {"codec.qsgd.decompress_gbps", qsgd.decompress_gbps, "GB/s"},
        {"codec.nuq.compress_gbps", nuq.compress_gbps, "GB/s"},
        {"codec.nuq.decompress_gbps", nuq.decompress_gbps, "GB/s"},
        {"codec.topk.compress_gbps", topk.compress_gbps, "GB/s"},
        {"codec.topk.decompress_gbps", topk.decompress_gbps, "GB/s"},
        {"codec.policy.compress_gbps", policy.compress_gbps, "GB/s"},
        {"codec.policy.decompress_gbps", policy.decompress_gbps, "GB/s"},
        {"comm.bytes_per_step", t.wire_bytes / all_steps, "B"},
        {"comm.msgs_per_step", t.messages / all_steps, "count"},
        {"comm.send_ms", send, "ms"},
        {"comm.recv_ms", recv, "ms"},
        {"comm.wait_ms", wait, "ms"},
        {"comm.timeouts", static_cast<double>(t.timeouts), "count"},
        {"comm.retransmits", static_cast<double>(t.retransmits), "count"},
        {"comm.slab_mib", t.slab_bytes / 1048576.0, "MiB"},
        {"comm.sim_comm_ms_per_step", 1e-6 * t.sim_elapsed_ns / all_steps,
         "sim_ms"},
        {"comm.sim_nic_busy_ms", 1e-6 * t.sim_nic_busy_ns / all_steps,
         "sim_ms"},
        {"mem.allocs_per_step", static_cast<double>(t.allocs) / all_steps,
         "count"},
        {"simgpu.pred_over_measured",
         measured_step > 0.0 ? predicted / measured_step : 0.0, "ratio"},
        {"trace.overhead_pct",
         100.0 * (percentile(on_s, 0.5) /
                      std::max(percentile(off_s, 0.5), 1e-12) -
                  1.0),
         "%"},
        {"trace.spans_dropped", static_cast<double>(tracer.dropped()),
         "count"},
    };
    std::printf(
        "model check: predicted %.3f ms vs measured %.3f ms per step\n",
        1e3 * predicted, 1e3 * measured_step);
    std::printf("trace: %zu spans kept\n", tracer.recorded());

    const std::filesystem::path trace_path =
        std::filesystem::path(args.out) /
        (args.workload + "_seed" + std::to_string(args.seed) + ".trace.json");
    std::ostringstream chrome;
    tracer.write_chrome_json(chrome, provenance);
    write_file(trace_path, chrome.str());
    std::printf("trace written to %s\n", trace_path.string().c_str());
  }

  bool correct = true;
  for (const Check& c : checks) {
    correct = correct && c.pass;
    std::printf("check %-40s %s\n", c.name.c_str(), c.pass ? "ok" : "FAILED");
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-30s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::ostringstream metrics_json;
  metrics_json << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    metrics_json << (i ? ", " : "") << json_str(metrics[i].name)
                 << ": {\"value\": " << json_num(metrics[i].value)
                 << ", \"unit\": " << json_str(metrics[i].unit) << "}";
  }
  metrics_json << "}";

  std::ostringstream detail;
  detail << "{\"provenance\": " << provenance << ",\n \"correct\": "
         << (correct ? "true" : "false") << ",\n \"checks\": {";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    detail << (i ? ", " : "") << json_str(checks[i].name) << ": "
           << (checks[i].pass ? "true" : "false");
  }
  detail << "},\n \"metrics\": " << metrics_json.str()
         << ",\n \"step_ms\": [";
  for (std::size_t i = 0; i < main_run.step_s.size(); ++i) {
    detail << (i ? ", " : "") << json_num(1e3 * main_run.step_s[i]);
  }
  detail << "],\n \"loss_history\": [";
  for (std::size_t i = 0; i < main_run.losses.size(); ++i) {
    detail << (i ? ", " : "") << json_num(main_run.losses[i]);
  }
  detail << "]}\n";
  const std::filesystem::path detail_path =
      std::filesystem::path(args.out) /
      (args.workload + "_seed" + std::to_string(args.seed) + "_trace" +
       (args.trace ? "1" : "0") + ".json");
  write_file(detail_path, detail.str());
  std::printf("report written to %s\n", detail_path.string().c_str());

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", std::max<std::size_t>(attempted, 1),
              failed, metrics_json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: cgx_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--out DIR] [--commit SHA] [--src-hash SHA]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cgx_perfbench: %s\n", e.what());
    return 2;
  }
}
