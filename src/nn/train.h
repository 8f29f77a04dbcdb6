// Training harnesses: single-device and data-parallel.
//
// The DistributedTrainer is the reproduction of the paper's end-to-end
// setting: N device threads, each with a model replica and its shard of
// the batch; per step each computes forward/backward, the fused gradient
// goes through a GradientEngine (CGX / QNCCL / GRACE / baseline), the
// synchronized gradient comes back, optional global-norm clipping runs on
// it (Technical Issue 3), and every replica applies an identical optimizer
// step. Replica state never diverges — an invariant the tests assert —
// because the engines return bit-identical buffers on all ranks.
//
// Adaptive compression (§5) hooks in here: rank 0 accumulates gradient
// statistics and periodically re-assigns per-layer bit-widths; the engine
// is rebuilt at a barrier so all ranks switch policies atomically.
#pragma once

#include <functional>
#include <memory>
#include <utility>

#include "comm/fault.h"
#include "comm/transports.h"
#include "core/adaptive.h"
#include "core/engine.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "nn/sequential.h"

namespace cgx::nn {

struct Batch {
  tensor::Tensor input;
  std::vector<int> targets;
};

// rank/step -> that rank's micro-batch (ranks must return disjoint data for
// data parallelism to mean anything).
using BatchProvider = std::function<Batch(int rank, std::size_t step)>;

// Builds one model replica. Called once per rank with a shared seed so all
// replicas initialize identically.
using ModelFactory = std::function<std::unique_ptr<Module>(util::Rng&)>;

using OptimizerFactory =
    std::function<std::unique_ptr<Optimizer>(std::vector<Param*>)>;

// Builds the gradient engine once; shared by all rank threads.
using EngineFactory = std::function<std::unique_ptr<core::GradientEngine>(
    const tensor::LayerLayout&, int world_size)>;

// loss(output, batch, grad_out) -> scalar loss; writes dL/d(output) into
// grad_out at the output's shape. The trainers hold grad_out across steps,
// so a loss that fills it with tensor::Tensor::reset (as make_xent_loss
// does) reuses its storage instead of allocating every step.
using LossFn = std::function<double(const tensor::Tensor& output,
                                    const Batch& batch,
                                    tensor::Tensor& grad_out)>;

// Standard classification / LM loss over the last dim.
LossFn make_xent_loss(std::size_t classes);

struct TrainOptions {
  int world_size = 4;
  std::size_t steps = 100;
  double clip_norm = 0.0;  // 0 = no clipping
  std::uint64_t seed = 1;
  comm::Backend backend = comm::Backend::Shm;
  // Adaptive compression: re-assign every `reassign_every` steps using
  // `assigner` (requires the engine to be a CgxEngine). 0 = off.
  core::Assigner* assigner = nullptr;
  std::size_t reassign_every = 0;
  core::AdaptiveOptions adaptive;
  // Streaming overlapped communication (paper §4, Fig. 3): wrap the
  // engine in a core::AsyncGradientEngine (when the factory returned a
  // flat CgxEngine) and ship gradient buckets from the backward hooks
  // instead of one monolithic allreduce after backward. Results are
  // bit-identical to overlap=false by construction (test-enforced).
  bool overlap = false;
  std::size_t overlap_bucket_bytes = std::size_t{4} << 20;
  // Comm lanes for the streaming facade (core::AsyncOptions::comm_lanes):
  // comm threads per rank, each draining the buckets of a fixed,
  // byte-balanced lane map in the facade's canonical plan order. Only
  // meaningful with overlap.
  int overlap_comm_lanes = 1;
  // Worker threads of each rank's executor (util::ThreadPool, DESIGN.md
  // §5l), which the trainer binds to the rank's training thread. GEMM row
  // blocks split over it, and an nn::Graph's backward runs as one DAG job
  // on it, so independent branches differentiate concurrently and gradient
  // buckets launch when their true producers finish. QSGD calls of at
  // least 64 Ki elements split only over an executor of size() 2 or more
  // (2+ workers here), and the optimizer's element ranges only when the
  // model has at least 64 Ki elements. 0 = no executor: everything runs
  // serially on the training thread. Any value produces bit-identical
  // models (test-enforced). A streaming engine with overlap owns the rank
  // executor (helped by the rank's comm threads, which never take DAG ops)
  // and binds it itself; compute_threads gives it that many workers of its
  // own (AsyncGradientEngine::add_rank_workers).
  std::size_t compute_threads = 0;
  // ---- Elastic membership (comm/membership.h, README "Surviving rank
  // failures") ----
  // Survive rank crashes: the run continues in the shrunken world instead
  // of rethrowing WorkerError, and crashed/new ranks may rejoin at epoch
  // boundaries. CGX_ELASTIC=1 in the environment also enables it. Requires
  // a CgxEngine factory; incompatible with overlap and adaptive (the
  // streaming facade and the stats pipeline assume a fixed world).
  // train_distributed throws std::invalid_argument for these, before any
  // worker starts.
  bool elastic = false;
  // Reliability policy installed on the transport before traffic flows.
  // Elastic runs with a fault injector must be bounded (crash detection
  // rides the deadline machinery).
  comm::CommPolicy policy{};
  // Optional fault harness: crashes/hangs/planned departures. Not owned.
  // Planned departures (FaultInjector::schedule_departure) are imported
  // into the membership schedule automatically.
  comm::FaultInjector* fault_injector = nullptr;
  // (global rank, step): readmit `rank` at the top of `step`. The rank
  // receives parameters by broadcast from the lowest surviving rank, but
  // not optimizer state: with a stateful optimizer (Optimizer::stateful)
  // train_distributed throws std::invalid_argument.
  std::vector<std::pair<int, std::size_t>> rejoins;
  // Called on rank 0 after every step with the step's loss.
  std::function<void(std::size_t, double)> on_step;
};

struct TrainResult {
  std::vector<double> loss_history;  // rank-0 loss per step
  double final_loss = 0.0;
  std::size_t params = 0;
  // Bit-width assignments chosen by the adaptive runs (empty otherwise).
  std::vector<core::Assignment> assignments;
  // Rank 0's trained replica (all replicas are identical by construction),
  // for post-training evaluation.
  std::unique_ptr<Module> model;
};

// Single-device reference loop (world of one, no engine).
TrainResult train_single(const ModelFactory& model_factory,
                         const OptimizerFactory& optimizer_factory,
                         const BatchProvider& batches, const LossFn& loss,
                         std::size_t steps, std::uint64_t seed);

TrainResult train_distributed(const ModelFactory& model_factory,
                              const OptimizerFactory& optimizer_factory,
                              const EngineFactory& engine_factory,
                              const BatchProvider& batches, const LossFn& loss,
                              const TrainOptions& options);

}  // namespace cgx::nn
