// Table 7: adaptive layer-wise compression — KMEANS (Algorithm 1) vs
// Bayesian optimization vs the Linear heuristic vs the DP budget planner
// (core/budget.h), relative to static uniform 4-bit assignment.
// Transformer-XL, single node (8x RTX3090) and multi-node (4x 4x RTX3090).
//
// Paper claims: kmeans finds the best compression with the lowest error;
// adaptive gains are modest on one node (~5%) and large (up to ~40%)
// multi-node. The DP planner (L-GreCo-style global budget, with DGC top-k
// as a selectable family) should compress strictly harder at the same
// error budget.
//
// Gate (ISSUE 10): on the fig04-style REAL training harness, the DP policy
// reaches equal-or-better final loss than the k-means baseline at >= 20%
// lower average wire-bytes-per-step. Recorded in results/BENCH_adaptive.json
// with a planner=dp row. --smoke: shorter run, gate informational.
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench/adaptive_common.h"
#include "core/budget.h"
#include "data/synthetic.h"
#include "models/small_models.h"
#include "nn/train.h"

using namespace cgx;

namespace {

constexpr std::size_t kVocab = 24;
constexpr std::size_t kSeq = 16;

struct TrainingRun {
  std::string planner;
  double avg_wire_bytes = 0.0;  // mean StepReport::wire_bytes per step
  double tail_loss = 0.0;       // mean loss over the last `tail` steps
};

// Fig04-style real training of the TinyTransformerLM with the given
// assigner live in the gradient path (via the trainer's PolicyController),
// measuring the per-step wire-byte telemetry.
TrainingRun run_training(const std::string& planner, core::Assigner* assigner,
                         std::size_t steps, std::size_t reassign_every,
                         std::size_t tail) {
  data::MarkovText dataset(kVocab, 555);
  core::CgxEngine* eng = nullptr;

  nn::TrainOptions options;
  options.world_size = 4;
  options.steps = steps;
  options.seed = 5;
  options.clip_norm = 1.0;
  options.assigner = assigner;
  options.reassign_every = assigner ? reassign_every : 0;

  TrainingRun run;
  run.planner = planner;
  double wire_sum = 0.0;
  std::size_t count = 0;
  std::vector<double> losses;
  options.on_step = [&](std::size_t, double loss) {
    wire_sum += eng->last_step_report(0).wire_bytes;
    ++count;
    losses.push_back(loss);
  };

  nn::train_distributed(
      [](util::Rng& rng) {
        return std::make_unique<models::TinyTransformerLM>(kVocab, 24, 2, 2,
                                                           kSeq, rng);
      },
      [](std::vector<nn::Param*> params) {
        return std::make_unique<nn::Adam>(std::move(params),
                                          nn::constant_lr(2e-3));
      },
      [&eng](const tensor::LayerLayout& layout, int world) {
        auto engine = std::make_unique<core::CgxEngine>(
            layout, core::CompressionConfig::cgx_default(), world);
        eng = engine.get();
        return engine;
      },
      [&](int rank, std::size_t step) {
        auto b = dataset.batch(8, kSeq, rank, step);
        return nn::Batch{std::move(b.input), std::move(b.targets)};
      },
      nn::make_xent_loss(kVocab), options);

  run.avg_wire_bytes = count > 0 ? wire_sum / static_cast<double>(count) : 0.0;
  const std::size_t n = losses.size();
  const std::size_t t = std::min(tail, n);
  for (std::size_t i = n - t; i < n; ++i) run.tail_loss += losses[i];
  if (t > 0) run.tail_loss /= static_cast<double>(t);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }

  // ---- Part 1: simulated Transformer-XL comparison (the classic table).
  const auto txl = models::transformer_xl_base();
  const auto node = simgpu::make_rtx3090_8x();
  const auto cluster = simgpu::make_genesis_cluster(4);

  core::CompressionConfig static4 = core::CompressionConfig::cgx_default();
  core::CgxEngine single_static(txl.layout, static4, 8);
  core::CgxEngine multi_static(txl.layout, static4, 16);
  const double t1_static = bench::step_seconds(txl, node, single_static);
  const double tn_static = bench::step_seconds(txl, cluster, multi_static);
  const double size_static = single_static.wire_bytes_per_rank();

  const auto scaled = bench::collect_scaled_stats(txl, single_static);
  core::AdaptiveOptions options;

  core::KMeansAssigner kmeans;
  core::BayesAssigner bayes(40);
  core::LinearAssigner linear;
  core::DpAssigner dp;
  core::Assigner* assigners[] = {&kmeans, &bayes, &linear, &dp};

  double dp_rel_size_sim = 1.0;
  double km_rel_size_sim = 1.0;
  util::Table table(
      "Table 7 - adaptive methods vs static 4-bit (Transformer-XL)");
  table.set_header({"method", "Compression (rel. size)", "Error / E4",
                    "Speedup 1-node", "Speedup multi-node"});
  for (core::Assigner* assigner : assigners) {
    util::Rng rng(42);
    const core::Assignment assignment = assigner->assign(
        *scaled.stats, scaled.compressible, options, rng);

    core::CgxEngine single(txl.layout, static4, 8);
    core::CgxEngine multi(txl.layout, static4, 16);
    bench::apply_to_engine(assignment, scaled, single, options.bucket_size);
    bench::apply_to_engine(assignment, scaled, multi, options.bucket_size);

    const double rel_size =
        single.wire_bytes_per_rank() /
        size_static;
    if (assigner == &dp) dp_rel_size_sim = rel_size;
    if (assigner == &kmeans) km_rel_size_sim = rel_size;
    const double speedup1 =
        t1_static / bench::step_seconds(txl, node, single);
    const double speedup_n =
        tn_static / bench::step_seconds(txl, cluster, multi);
    table.add_row(
        {assigner->name(), util::Table::num(rel_size, 2),
         util::Table::num(
             assignment.measured_error /
                 std::max(assignment.reference_error, 1e-12),
             2),
         util::Table::num(speedup1, 2), util::Table::num(speedup_n, 2)});
  }
  table.print();

  // ---- Part 2: the real-training wire-byte gate (kmeans vs dp).
  const std::size_t steps = smoke ? 80 : 240;
  const std::size_t reassign_every = smoke ? 20 : 60;
  const std::size_t tail = 20;
  core::KMeansAssigner km_live;
  core::DpAssigner dp_live;
  const TrainingRun km =
      run_training("kmeans", &km_live, steps, reassign_every, tail);
  const TrainingRun dprun =
      run_training("dp", &dp_live, steps, reassign_every, tail);

  const double bytes_ratio =
      km.avg_wire_bytes > 0.0 ? dprun.avg_wire_bytes / km.avg_wire_bytes
                              : 1.0;
  const double loss_ratio =
      km.tail_loss > 0.0 ? dprun.tail_loss / km.tail_loss : 1.0;
  const bool bytes_ok = bytes_ratio <= 0.80;
  // Equal-or-better final loss, with a 2% noise allowance on the tail mean.
  const bool loss_ok = loss_ratio <= 1.02;
  const bool pass = smoke || (bytes_ok && loss_ok);

  util::Table gate_table("Adaptive gate - real training, kmeans vs DP");
  gate_table.set_header(
      {"planner", "avg wire bytes/step", "tail loss (last 20)"});
  gate_table.add_row({km.planner, util::Table::num(km.avg_wire_bytes, 0),
                      util::Table::num(km.tail_loss, 4)});
  gate_table.add_row({dprun.planner,
                      util::Table::num(dprun.avg_wire_bytes, 0),
                      util::Table::num(dprun.tail_loss, 4)});
  gate_table.print();

  std::ofstream out(bench::results_path("BENCH_adaptive.json"));
  char buf[1024];
  out << "{\n  \"bench\": \"adaptive\",\n  \"provenance\": "
      << bench::provenance_json() << ",\n  \"rows\": [\n";
  std::snprintf(buf, sizeof(buf),
                "    {\"planner\": \"kmeans\", \"avg_wire_bytes_per_step\": "
                "%.1f, \"tail_loss\": %.6f, \"rel_size_sim\": %.4f},\n",
                km.avg_wire_bytes, km.tail_loss, km_rel_size_sim);
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "    {\"planner\": \"dp\", \"avg_wire_bytes_per_step\": "
                "%.1f, \"tail_loss\": %.6f, \"rel_size_sim\": %.4f}\n",
                dprun.avg_wire_bytes, dprun.tail_loss, dp_rel_size_sim);
  out << buf;
  std::snprintf(
      buf, sizeof(buf),
      "  ],\n  \"gate\": {\"bytes_ratio\": %.4f, \"loss_ratio\": %.4f, "
      "\"bytes_ok\": %s, \"loss_ok\": %s, \"pass\": %s},\n  \"smoke\": "
      "%s\n}\n",
      bytes_ratio, loss_ratio, bytes_ok ? "true" : "false",
      loss_ok ? "true" : "false", pass ? "true" : "false",
      smoke ? "true" : "false");
  out << buf;

  std::printf(
      "\nGate: dp/kmeans wire-bytes ratio %.3f (need <= 0.80), tail-loss "
      "ratio %.3f (need <= 1.02) -> %s%s\n",
      bytes_ratio, loss_ratio, bytes_ok && loss_ok ? "PASS" : "FAIL",
      smoke ? " (informational under --smoke)" : "");
  std::printf("Written to results/BENCH_adaptive.json\n");
  return pass ? 0 : 1;
}
