// The benchmark's step driver and its three workloads.
//
// The library's trainer (nn::train_distributed) can neither run over the
// simulated multi-node fabric nor accept a wrapped transport, so the
// benchmark drives training itself, built only from the public calls the
// trainer makes: Module::forward/backward with gradient-ready hooks, the
// loss, gather_grads/scatter_grads, GradientEngine::allreduce or
// AsyncGradientEngine::begin_step/notify_layer_ready/wait_all,
// Optimizer::step, and PolicyController::replan plus rebuild. Every step is
// closed-loop: it ends at a world barrier, so the next step starts only
// after the previous one finished on every rank.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/compression_config.h"
#include "nn/train.h"
#include "tensor/layer_layout.h"
#include "trace.h"

namespace perfbench {

struct Workload {
  int world = 4;
  int ranks_per_node = 0;  // 0: one node, flat SRA over ShmTransport
  bool streaming = false;  // AsyncGradientEngine fed by gradient-ready hooks
  std::size_t bucket_bytes = 0;
  std::size_t reassign_every = 0;  // DP planner period; 0 = static policy
  std::size_t batch = 0;           // samples per rank per step
  std::size_t pool = 32;           // distinct pre-generated batches per rank
  std::size_t warmup_steps = 5;    // part of set-up
  std::size_t min_steps = 300;     // measured steps, at least
  double clip_norm = 0.0;
  cgx::nn::ModelFactory model;
  cgx::nn::OptimizerFactory optimizer;
  cgx::nn::LossFn loss;
  std::function<cgx::nn::Batch(int rank, std::size_t index)> generate;
};

// Throws std::invalid_argument for an unknown name. Every input the run
// uses derives from `seed`.
Workload make_workload(const std::string& name, std::uint64_t seed);

// Batches generated before timing starts; step s of rank r trains on
// batch s % pool. The system under test only ever sees these.
struct Dataset {
  std::vector<std::vector<cgx::nn::Batch>> per_rank;
  const cgx::nn::Batch& at(int rank, std::size_t step) const {
    const auto& v = per_rank[static_cast<std::size_t>(rank)];
    return v[step % v.size()];
  }
};
Dataset generate_dataset(const Workload& w);

struct InstanceOptions {
  bool measure = true;          // false: set-up (and warm-up) only
  double seconds = 10.0;        // measured window, at least min_steps
  std::size_t fixed_steps = 0;  // > 0: measure exactly this many steps
  Tracer* tracer = nullptr;     // non-null: the traced run
};

// Per-layer figures a traced instance collects beside its spans.
struct LayerProbe {
  // Rank 0, per measured step: backward time up to each parameter-bearing
  // child's gradient-ready point (backward order), and the communication
  // busy time whose last gradient that child produced.
  std::vector<double> backward_ms;
  std::vector<double> comm_ms;
  // StepReport::Timing sums over measured rank-steps (streaming only).
  double timing_comm_s = 0.0;
  double timing_compress_s = 0.0;
  double timing_exposed_s = 0.0;
  // Rank 0's local (pre-reduction) gradient of the last measured step, and
  // the policy it was compressed under, for the codec replay.
  std::vector<float> gradient;
  std::vector<cgx::core::LayerCompression> resolved;
  // One DP replan + differential rebuild after the measured window, on
  // workloads whose policy is static.
  double probe_replan_ms = 0.0;
  double probe_rebuild_ms = 0.0;
};

struct InstanceResult {
  bool ok = true;  // false: a worker threw (error says why)
  std::string error;
  double setup_s = 0.0;
  std::vector<double> losses;       // rank 0, every step from step 0
  std::vector<double> mean_losses;  // mean over ranks, every step
  std::vector<double> step_s;  // rank 0, measured steps
  double peak_rss_mb = 0.0;    // process peak after min_steps measured steps
  std::size_t measured_steps = 0;
  std::size_t failed_steps = 0;  // threw, retried or non-finite loss
  bool replicas_identical = true;
  cgx::tensor::LayerLayout layout;

  // Measured-window telemetry.
  double wire_bytes = 0.0;  // TrafficRecorder, all ranks
  double messages = 0.0;
  double cached_wire_bytes = 0.0;  // engine estimate, per rank
  double sim_elapsed_ns = 0.0;     // VirtualClock (two-level fabric only)
  double sim_nic_busy_ns = 0.0;    // busiest node's NIC tx + rx
  std::size_t retries = 0;
  std::size_t replans = 0;
  double replan_ms = 0.0;   // summed over replans
  double rebuild_ms = 0.0;
  double scratch_bytes = 0.0;
  double slab_bytes = 0.0;
  std::uint64_t timeouts = 0;
  std::uint64_t retransmits = 0;
  std::size_t allocs = 0;  // operator new calls while measuring (traced)
  LayerProbe probe;        // traced only
};

InstanceResult run_instance(const Workload& w, const Dataset& data,
                            std::uint64_t seed, const InstanceOptions& opt);

// nn::train_distributed's rank-0 loss history for the same workload and
// seed over `steps` steps (flat workloads only: the trainer runs over
// ShmTransport).
std::vector<double> trainer_losses(const Workload& w, const Dataset& data,
                                   std::uint64_t seed, std::size_t steps);

// The allocation counter behind mem.allocs_per_step (main.cpp replaces
// the global operator new).
void set_alloc_counting(bool on);
std::size_t alloc_count();

}  // namespace perfbench
