#include "driver.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "comm/simnet.h"
#include "comm/transports.h"
#include "comm/world.h"
#include "core/async_engine.h"
#include "core/budget.h"
#include "data/synthetic.h"
#include "models/small_models.h"
#include "nn/sequential.h"
#include "tensor/tensor_ops.h"

namespace perfbench {

using namespace cgx;

namespace {

// Upper bound on steps per instance; per-step buffers are reserved to it
// up front so the measured window allocates nothing of the driver's own.
constexpr std::size_t kMaxSteps = std::size_t{1} << 15;

// lm_2node's language model: vocabulary and sequence length.
constexpr std::size_t kVocab = 2048;
constexpr std::size_t kSeq = 32;

std::uint64_t data_seed(std::uint64_t seed) {
  return seed * 0x9E3779B97F4A7C15ull + 17;
}

// Share of classification labels replaced by a uniformly drawn class, so
// the loss settles on a floor set by the noise instead of sliding to zero
// at a seed-dependent pace.
constexpr double kLabelNoise = 0.5;

nn::Batch to_batch(data::LabeledBatch b) {
  return nn::Batch{std::move(b.input), std::move(b.targets)};
}

nn::Batch with_label_noise(data::LabeledBatch b, std::size_t classes,
                           std::uint64_t seed, int rank, std::size_t index) {
  util::Rng rng = util::Rng(seed).split(
      static_cast<std::uint64_t>(rank) * 1000003ULL + index);
  for (int& t : b.targets) {
    if (rng.next_double() < kLabelNoise) {
      t = static_cast<int>(rng.next_below(classes));
    }
  }
  return to_batch(std::move(b));
}

std::uint64_t hash_params(const std::vector<nn::Param*>& params) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the value bytes
  for (const nn::Param* p : params) {
    const auto bytes = std::as_bytes(p->value.data());
    for (std::byte b : bytes) {
      h ^= static_cast<std::uint64_t>(b);
      h *= 1099511628211ull;
    }
  }
  return h;
}

// Peak resident set of the process so far.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB -> MiB
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Span names of the driver's own brackets.
struct Names {
  std::uint32_t forward = 0, backward = 0, allreduce = 0, wait_all = 0,
                optimizer = 0, replan = 0, rebuild = 0, bucket = 0;
  std::vector<std::uint32_t> child;  // per Sequential child, backward
};

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "cnn_sync") {
    // Compute-bound: forward + backward dominate the step, one monolithic
    // CGX 4-bit flat SRA allreduce after backward.
    w.world = 4;
    w.batch = 8;
    w.pool = 128;
    w.warmup_steps = 4;
    w.min_steps = 300;
    w.model = [](util::Rng& rng) {
      return models::make_vgg_mini(3, 32, 10, rng);
    };
    w.optimizer = [](std::vector<nn::Param*> params) {
      return std::make_unique<nn::Sgd>(std::move(params),
                                       nn::constant_lr(0.02), 0.9);
    };
    w.loss = nn::make_xent_loss(10);
    auto images =
        std::make_shared<data::SyntheticImages>(10, 3, 32, data_seed(seed));
    w.generate = [images, b = w.batch, seed](int rank, std::size_t i) {
      return with_label_noise(images->batch(b, rank, i), 10, seed, rank, i);
    };
  } else if (name == "mlp_stream") {
    // Communication- and optimizer-bound, and the only workload on the
    // streaming bucket path: 256 KiB buckets fed by gradient-ready hooks.
    w.world = 2;
    w.batch = 8;
    w.streaming = true;
    w.bucket_bytes = std::size_t{256} << 10;
    w.pool = 256;
    w.warmup_steps = 8;
    w.min_steps = 300;
    w.model = [](util::Rng& rng) { return models::make_mlp(512, 1024, 10, rng); };
    w.optimizer = [](std::vector<nn::Param*> params) {
      return std::make_unique<nn::Adam>(std::move(params),
                                        nn::constant_lr(1e-3));
    };
    w.loss = nn::make_xent_loss(10);
    auto blobs = std::make_shared<data::BlobDataset>(10, 512, data_seed(seed),
                                                      /*spread=*/2.0f);
    w.generate = [blobs, b = w.batch, seed](int rank, std::size_t i) {
      return with_label_noise(blobs->batch(b, rank, i), 10, seed, rank, i);
    };
  } else if (name == "lm_2node") {
    // Two nodes of two ranks over the simulated α-β fabric: leaders,
    // node-boundary re-compression, no peer-direct reads across nodes, and
    // the DP budget planner hot-swapping a mixed codec set every 25 steps.
    w.world = 4;
    w.ranks_per_node = 2;
    w.batch = 4;
    w.reassign_every = 25;
    w.warmup_steps = 5;
    w.min_steps = 300;
    w.clip_norm = 1.0;
    w.model = [](util::Rng& rng) {
      return std::make_unique<models::TinyTransformerLM>(kVocab, 64, 4, 2,
                                                         kSeq, rng);
    };
    w.optimizer = [](std::vector<nn::Param*> params) {
      return std::make_unique<nn::Adam>(std::move(params),
                                        nn::constant_lr(2e-3));
    };
    w.loss = nn::make_xent_loss(kVocab);
    auto text = std::make_shared<data::MarkovText>(kVocab, data_seed(seed));
    w.generate = [text, b = w.batch](int rank, std::size_t i) {
      return to_batch(text->batch(b, kSeq, rank, i));
    };
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

Dataset generate_dataset(const Workload& w) {
  Dataset d;
  d.per_rank.resize(static_cast<std::size_t>(w.world));
  for (int r = 0; r < w.world; ++r) {
    auto& v = d.per_rank[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < w.pool; ++i) v.push_back(w.generate(r, i));
  }
  return d;
}

InstanceResult run_instance(const Workload& w, const Dataset& data,
                            std::uint64_t seed, const InstanceOptions& opt) {
  InstanceResult res;
  Tracer* tracer = opt.tracer;
  const bool traced = tracer != nullptr;
  const int world = w.world;
  const std::int64_t setup_t0 = now_ns();

  // Layout (and, traced, the backward span names) from a throwaway
  // replica, as the trainer does.
  Names names;
  {
    util::Rng probe_rng(seed);
    std::unique_ptr<nn::Module> probe = w.model(probe_rng);
    res.layout = nn::build_layout(nn::parameters(*probe));
    auto* seq = dynamic_cast<nn::Sequential*>(probe.get());
    if (traced) {
      names.forward = tracer->intern("nn.forward");
      names.backward = tracer->intern("nn.backward");
      names.allreduce = tracer->intern("core.allreduce");
      names.wait_all = tracer->intern("core.wait_all");
      names.optimizer = tracer->intern("nn.optimizer");
      names.replan = tracer->intern("core.replan");
      names.rebuild = tracer->intern("core.rebuild");
      names.bucket = tracer->intern("core.bucket");
      for (std::size_t i = 0; seq != nullptr && i < seq->size(); ++i) {
        names.child.push_back(tracer->intern(
            "nn.backward." + std::to_string(i) + "." + seq->module(i).kind()));
      }
    }
  }
  const tensor::LayerLayout& layout = res.layout;

  comm::ShmTransport shm(world);
  std::unique_ptr<comm::SimNetTransport> net;
  core::EngineOptions engine_options;
  if (w.ranks_per_node > 0) {
    const comm::Topology topo =
        comm::Topology::grouped(world, w.ranks_per_node);
    engine_options.node_of = topo.node_map();
    net = std::make_unique<comm::SimNetTransport>(shm, topo,
                                                  comm::SimNetParams{});
  }
  comm::Transport* wire = &shm;
  if (net != nullptr) wire = net.get();
  std::unique_ptr<TimedTransport> timed;
  if (traced) {
    timed = std::make_unique<TimedTransport>(*wire, *tracer);
    wire = timed.get();
  }

  auto owned = std::make_unique<core::CgxEngine>(
      layout, core::CompressionConfig::cgx_default(), world, engine_options);
  core::CgxEngine* cgx = owned.get();
  std::unique_ptr<core::GradientEngine> engine;
  core::AsyncGradientEngine* async = nullptr;
  if (w.streaming) {
    core::AsyncOptions async_options;
    async_options.bucket_bytes = w.bucket_bytes;
    auto a = std::make_unique<core::AsyncGradientEngine>(std::move(owned),
                                                         async_options);
    async = a.get();
    engine = std::move(a);
  } else {
    engine = std::move(owned);
  }

  // Fresh per instance: the controller's guard-rail mutates the menu.
  std::unique_ptr<core::DpAssigner> assigner;
  std::unique_ptr<core::PolicyController> controller;
  if (w.reassign_every > 0) {
    assigner = std::make_unique<core::DpAssigner>(core::BudgetMenu{});
    controller = std::make_unique<core::PolicyController>(
        layout, *assigner, w.reassign_every, seed);
  }
  const core::AdaptiveOptions adaptive;  // the trainer's defaults

  // Shared between rank threads; written by rank 0 between barriers.
  std::size_t target = 0;
  double wire0 = 0.0, msgs0 = 0.0;
  std::uint64_t timeouts0 = 0, retransmits0 = 0;
  res.step_s.reserve(kMaxSteps);
  std::vector<std::vector<std::uint8_t>> step_failed(
      static_cast<std::size_t>(world));
  std::vector<std::uint64_t> hashes(static_cast<std::size_t>(world));
  std::vector<std::vector<double>> rank_losses(static_cast<std::size_t>(world));
  std::vector<std::size_t> retries(static_cast<std::size_t>(world));
  std::vector<std::array<double, 3>> timing(static_cast<std::size_t>(world));
  if (traced) res.probe.gradient.resize(layout.total_numel());

  auto worker = [&](comm::Comm& comm) {
    const int rank = comm.rank();
    const auto urank = static_cast<std::size_t>(rank);
    util::Rng init_rng(seed);  // identical init on every rank
    std::unique_ptr<nn::Module> model = w.model(init_rng);
    std::vector<nn::Param*> params = nn::parameters(*model);
    std::unique_ptr<nn::Optimizer> optimizer = w.optimizer(params);
    util::Rng engine_rng =
        util::Rng(seed).split(1000 + static_cast<std::uint64_t>(rank));
    std::vector<float> fused(layout.total_numel());
    std::vector<std::uint8_t>& failed = step_failed[urank];
    failed.reserve(kMaxSteps);
    std::vector<double>& losses = rank_losses[urank];
    losses.reserve(kMaxSteps);

    auto* seq = dynamic_cast<nn::Sequential*>(model.get());
    const std::size_t children = seq != nullptr ? seq->size() : 0;
    const bool streaming = async != nullptr && children > 0;
    const bool probe = traced && rank == 0;
    bool measuring = false;
    // Traced instance: spans and layer figures come from every other
    // measured step, so the steps in between time the same instance with
    // recording off and the overhead estimate is immune to machine drift.
    bool rec = false;

    // Per child: its slice of the parameter list.
    std::vector<std::size_t> child_begin(children), child_end(children);
    std::vector<std::size_t> child_of_layer(layout.layer_count());
    std::size_t first_param_child = children;
    for (std::size_t i = 0, offset = 0; i < children; ++i) {
      std::vector<nn::Param*> child_params;
      seq->module(i).collect_params("", child_params);
      child_begin[i] = offset;
      offset += child_params.size();
      child_end[i] = offset;
      for (std::size_t l = child_begin[i]; l < offset; ++l) {
        child_of_layer[l] = i;
      }
      if (offset > child_begin[i] && first_param_child == children) {
        first_param_child = i;
      }
    }

    // Rank-0 layer probe: backward time per child and comm busy time per
    // completing child, summed over measured steps.
    std::int64_t mark = 0;
    std::vector<std::int64_t> child_ns(children), comm_child_ns(children);
    std::int64_t backward_ns = 0, comm_ns = 0;
    std::vector<std::size_t> child_of_submission;
    std::vector<core::StepReport::Timing::BucketEvent> events;
    if (streaming) {
      const core::BucketPlan& plan = async->plan();
      for (const auto& b : plan.buckets) {
        child_of_submission.push_back(child_of_layer[b.layers.back()]);
      }
      if (plan.has_packet) {
        const auto& filtered = cgx->filtered_layers();
        child_of_submission.push_back(child_of_layer[*std::min_element(
            filtered.begin(), filtered.end())]);
      }
      events.reserve(plan.total_submissions());
    }

    for (std::size_t i = 0; i < children; ++i) {
      const std::size_t begin = child_begin[i];
      const std::size_t end = child_end[i];
      const bool notify = streaming && begin != end;
      if (!notify && !traced) continue;
      seq->module(i).set_grad_ready_hook([&, i, begin, end, notify,
                                          rank](nn::Module&) {
        if (notify) {
          // Reverse parameter order within a child, as the trainer does.
          for (std::size_t l = end; l-- > begin;) {
            tensor::copy(params[l]->grad.data(),
                         layout.slice(std::span<float>(fused), l));
            async->notify_layer_ready(rank, l);
          }
        }
        if (traced) {
          const std::int64_t t = now_ns();
          if (tracer->recording()) {
            tracer->record(names.child[i], rank, mark, t);
          }
          if (probe && rec) child_ns[i] += t - mark;
          mark = t;
        }
      });
    }

    std::vector<double> warm_s;
    std::int64_t t_prev = rank == 0 ? now_ns() : 0;
    for (std::size_t step = 0;; ++step) {
      if (step == w.warmup_steps) {
        comm.barrier();
        if (rank == 0) {
          const std::int64_t t = now_ns();
          res.setup_s = 1e-9 * static_cast<double>(t - setup_t0);
          if (!opt.measure) {
            target = 0;
          } else if (opt.fixed_steps > 0) {
            target = opt.fixed_steps;
          } else {
            // Size the window from the settled half of the warm-up.
            std::vector<double> settled(warm_s.begin() + warm_s.size() / 2,
                                        warm_s.end());
            const double est = std::max(median_of(settled), 1e-6);
            target = static_cast<std::size_t>(std::ceil(opt.seconds / est));
          }
          if (opt.measure) {
            target = std::clamp(target, w.min_steps, kMaxSteps - 1);
          }
          wire0 = static_cast<double>(wire->recorder().total_bytes());
          msgs0 = static_cast<double>(wire->recorder().total_messages());
          timeouts0 = wire->health().total_timeouts();
          retransmits0 = wire->health().total_retransmits();
          if (net != nullptr) net->clock().reset();  // fabric quiesced
          if (traced) set_alloc_counting(true);
          t_prev = now_ns();
        }
        comm.barrier();
        measuring = true;
      }
      if (step >= w.warmup_steps + target) break;
      rec = traced && tracer->recording();

      const nn::Batch& batch = data.at(rank, step);
      tensor::Tensor grad_out;
      double loss = 0.0;
      {
        ScopedSpan span(tracer, names.forward, rank);
        const tensor::Tensor& out = model->forward(batch.input, /*train=*/true);
        loss = w.loss(out, batch, grad_out);
      }
      const core::StepReport* report = nullptr;
      if (streaming) {
        const std::int64_t t_begin = traced ? now_ns() : 0;
        {
          ScopedSpan span(tracer, names.backward, rank);
          mark = t_begin;
          async->begin_step(comm, fused, engine_rng);
          model->backward(grad_out);  // hooks gather + notify per layer
        }
        const std::int64_t t_wait = traced ? now_ns() : 0;
        {
          ScopedSpan span(tracer, names.wait_all, rank);
          async->wait_all(rank);
        }
        report = &async->last_step_report(rank);
        if (rec) {
          timing[urank][0] += report->timing.comm_s;
          timing[urank][1] += report->timing.compress_s;
          timing[urank][2] += report->timing.exposed_comm_s;
        }
        if (rec) {
          events.clear();
          for (const auto& ev : report->timing.buckets) {
            if (ev.bucket < 0 ||
                static_cast<std::size_t>(ev.bucket) >=
                    child_of_submission.size()) {
              continue;
            }
            events.push_back(ev);
            tracer->record(names.bucket, rank,
                           t_begin + static_cast<std::int64_t>(1e9 * ev.launch_s),
                           t_begin + static_cast<std::int64_t>(1e9 * ev.finish_s),
                           0, 1000 + ev.lane);
          }
          if (probe) {
            backward_ns += t_wait - t_begin;
            // One lane drains FIFO in launch order: a submission is busy
            // from max(its launch, the previous finish) to its finish.
            std::sort(events.begin(), events.end(),
                      [](const auto& a, const auto& b) {
                        return a.launch_s < b.launch_s;
                      });
            double prev_finish = 0.0;
            for (const auto& ev : events) {
              const double busy =
                  ev.finish_s - std::max(ev.launch_s, prev_finish);
              prev_finish = ev.finish_s;
              const auto ns = static_cast<std::int64_t>(1e9 * busy);
              comm_child_ns[child_of_submission[static_cast<std::size_t>(
                  ev.bucket)]] += ns;
              comm_ns += ns;
            }
          }
        }
      } else {
        const std::int64_t t_begin = traced ? now_ns() : 0;
        {
          ScopedSpan span(tracer, names.backward, rank);
          mark = t_begin;
          model->backward(grad_out);
          nn::gather_grads(params, layout, fused);
        }
        const std::int64_t t_comm = traced ? now_ns() : 0;
        {
          ScopedSpan span(tracer, names.allreduce, rank);
          engine->allreduce(comm, fused, engine_rng);
        }
        report = &cgx->last_step_report(rank);
        if (probe && rec) {
          const std::int64_t ns = now_ns() - t_comm;
          backward_ns += t_comm - t_begin;
          comm_ns += ns;
          if (first_param_child < children) {
            comm_child_ns[first_param_child] += ns;
          }
        }
      }
      if (probe && measuring && step + 1 == w.warmup_steps + target) {
        // Local gradients are intact until scatter_grads overwrites them.
        nn::gather_grads(params, layout, res.probe.gradient);
      }
      {
        ScopedSpan span(tracer, names.optimizer, rank);
        nn::scatter_grads(fused, layout, params);
        if (w.clip_norm > 0.0) nn::clip_global_norm(params, w.clip_norm);
        optimizer->step();
      }
      if (measuring) {
        failed.push_back(!std::isfinite(loss) || !report->ok ||
                         report->retries > 0);
        retries[urank] += static_cast<std::size_t>(report->retries);
      }
      losses.push_back(loss);
      if (rank == 0) {
        if (measuring) res.cached_wire_bytes += cgx->cached_wire_bytes();
        if (controller != nullptr) controller->observe_step(fused);
      }

      if (controller != nullptr && (step + 1) % w.reassign_every == 0) {
        comm.barrier();  // quiesce before mutating the shared engine
        if (rank == 0) {
          std::vector<bool> compressible;
          compressible.reserve(layout.layer_count());
          for (const auto& cfg : cgx->resolved()) {
            compressible.push_back(cfg.method != core::Method::None);
          }
          const std::int64_t t0 = traced ? now_ns() : 0;
          controller->replan(step, compressible, adaptive, cgx->config(),
                             cgx->ef_residual_norm(0));
          const std::int64_t t1 = traced ? now_ns() : 0;
          if (async != nullptr) {
            async->rebuild();
          } else {
            cgx->rebuild();
          }
          if (measuring) ++res.replans;
          if (traced && measuring) {
            const std::int64_t t2 = now_ns();
            tracer->record(names.replan, rank, t0, t1);
            tracer->record(names.rebuild, rank, t1, t2);
            res.replan_ms += 1e-6 * static_cast<double>(t1 - t0);
            res.rebuild_ms += 1e-6 * static_cast<double>(t2 - t1);
          }
        }
        comm.barrier();  // all ranks resume under the new policy
      }

      comm.barrier();  // closed loop: the step is over on every rank
      if (rank == 0) {
        const std::int64_t t = now_ns();
        const double dt = 1e-9 * static_cast<double>(t - t_prev);
        t_prev = t;
        if (measuring) {
          res.step_s.push_back(dt);
          // Read at a fixed step count: buffers abandoned by policy
          // hot-swaps make the peak grow with the number of steps.
          if (res.step_s.size() == w.min_steps) {
            res.peak_rss_mb = peak_rss_mb();
          }
        } else {
          warm_s.push_back(dt);
        }
      }
      if (traced && measuring) {
        // Odd measured steps record; flip while every rank is parked.
        if (rank == 0) {
          tracer->set_recording((step + 1 - w.warmup_steps) % 2 == 1);
        }
        comm.barrier();
      }
    }

    comm.barrier();
    if (rank == 0 && opt.measure) {
      if (traced) {
        tracer->set_recording(false);
        set_alloc_counting(false);
        res.allocs = alloc_count();
      }
      res.measured_steps = target;
      res.wire_bytes =
          static_cast<double>(wire->recorder().total_bytes()) - wire0;
      res.messages =
          static_cast<double>(wire->recorder().total_messages()) - msgs0;
      res.timeouts = wire->health().total_timeouts() - timeouts0;
      res.retransmits = wire->health().total_retransmits() - retransmits0;
      res.scratch_bytes = static_cast<double>(
          async != nullptr ? async->scratch_high_water_bytes()
                           : cgx->scratch_high_water_bytes());
      res.slab_bytes = static_cast<double>(shm.slab_high_water_bytes());
      if (net != nullptr) {
        const util::VirtualClock& clock = net->clock();
        res.sim_elapsed_ns = static_cast<double>(clock.elapsed_ns());
        for (int node = 0; node < clock.nodes(); ++node) {
          res.sim_nic_busy_ns = std::max(
              res.sim_nic_busy_ns,
              static_cast<double>(clock.nic_tx_busy_ns(node) +
                                  clock.nic_rx_busy_ns(node)));
        }
      }
    }
    if (probe && opt.measure) {
      LayerProbe& lp = res.probe;
      // Only the odd measured steps were recorded.
      const double steps = static_cast<double>(std::max<std::size_t>(
          target / 2, 1));
      const auto per_step_ms = [steps](std::int64_t ns) {
        return 1e-6 * static_cast<double>(ns) / steps;
      };
      if (children == 0) {
        lp.backward_ms = {per_step_ms(backward_ns)};
        lp.comm_ms = {per_step_ms(comm_ns)};
      } else {
        // Backward order; a parameterless child's time belongs to the next
        // gradient-ready point.
        std::int64_t pending = 0;
        for (std::size_t i = children; i-- > 0;) {
          pending += child_ns[i];
          if (child_begin[i] == child_end[i]) continue;
          lp.backward_ms.push_back(per_step_ms(pending));
          lp.comm_ms.push_back(per_step_ms(comm_child_ns[i]));
          pending = 0;
        }
        if (!lp.backward_ms.empty()) lp.backward_ms.back() += per_step_ms(pending);
      }
      lp.resolved = cgx->resolved();
      if (controller == nullptr) {
        // Static-policy workloads: one replan + rebuild on the captured
        // gradient, so planner and rebuild cost are measured everywhere.
        core::DpAssigner probe_assigner{core::BudgetMenu{}};
        core::PolicyController probe_controller(layout, probe_assigner, 1,
                                                seed);
        probe_controller.observe_step(lp.gradient);
        std::vector<bool> compressible;
        for (const auto& cfg : lp.resolved) {
          compressible.push_back(cfg.method != core::Method::None);
        }
        const std::int64_t t0 = now_ns();
        probe_controller.replan(0, compressible, adaptive, cgx->config(),
                                cgx->ef_residual_norm(0));
        const std::int64_t t1 = now_ns();
        if (async != nullptr) {
          async->rebuild();
        } else {
          cgx->rebuild();
        }
        lp.probe_replan_ms = 1e-6 * static_cast<double>(t1 - t0);
        lp.probe_rebuild_ms = 1e-6 * static_cast<double>(now_ns() - t1);
      }
    }
    comm.barrier();
    hashes[urank] = hash_params(params);
    for (std::size_t i = 0; i < children; ++i) {
      seq->module(i).clear_grad_ready_hook();
    }
  };

  try {
    comm::run_world(*wire, worker);
  } catch (const std::exception& e) {
    res.ok = false;
    res.error = e.what();
    return res;
  }

  res.losses = rank_losses[0];
  res.mean_losses.assign(res.losses.size(), 0.0);
  for (const auto& l : rank_losses) {
    for (std::size_t i = 0; i < res.mean_losses.size() && i < l.size(); ++i) {
      res.mean_losses[i] += l[i] / world;
    }
  }
  for (std::size_t s = 0; s < res.measured_steps; ++s) {
    bool bad = false;
    for (const auto& f : step_failed) bad = bad || s >= f.size() || f[s] != 0;
    res.failed_steps += bad ? 1 : 0;
  }
  for (int r = 0; r < world; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    res.replicas_identical = res.replicas_identical && hashes[ur] == hashes[0];
    res.retries += retries[ur];
    res.probe.timing_comm_s += timing[ur][0];
    res.probe.timing_compress_s += timing[ur][1];
    res.probe.timing_exposed_s += timing[ur][2];
  }
  return res;
}

std::vector<double> trainer_losses(const Workload& w, const Dataset& data,
                                   std::uint64_t seed, std::size_t steps) {
  nn::TrainOptions options;
  options.world_size = w.world;
  options.steps = steps;
  options.seed = seed;
  options.clip_norm = w.clip_norm;
  options.overlap = w.streaming;
  if (w.streaming) options.overlap_bucket_bytes = w.bucket_bytes;
  const nn::TrainResult result = nn::train_distributed(
      w.model, w.optimizer,
      [](const tensor::LayerLayout& layout,
         int world) -> std::unique_ptr<core::GradientEngine> {
        return std::make_unique<core::CgxEngine>(
            layout, core::CompressionConfig::cgx_default(), world);
      },
      [&data](int rank, std::size_t step) {
        const nn::Batch& b = data.at(rank, step);
        return nn::Batch{b.input.clone(), b.targets};
      },
      w.loss, options);
  return result.loss_history;
}

}  // namespace perfbench
