// Figure 1: compression ratio vs average step time on the 8x RTX3090 box.
//
// The paper's motivating experiment: transmit only the first N/gamma
// elements of each gradient buffer ("fake compression") and watch the step
// time approach the ideal (linear-scaling) dashed line as gamma grows —
// evidence that bandwidth, not compute or latency, is the bottleneck.
#include "bench/common.h"

using namespace cgx;

int main() {
  const auto machine = simgpu::make_rtx3090_8x();
  const double gammas[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};

  util::Table table("Fig 1 - step time (ms) vs compression ratio, 8x RTX3090");
  std::vector<std::string> header = {"model", "ideal"};
  for (double g : gammas) header.push_back("x" + util::Table::num(g, 0));
  table.set_header(header);

  util::CsvWriter csv(bench::results_path("fig01_compression_sweep.csv"),
                      {"model", "gamma", "step_ms", "ideal_ms"});

  for (const auto& model : models::all_paper_models()) {
    const double ideal_ms =
        1e3 * model.step_seconds_1gpu(machine.gpu);  // perfect scaling
    std::vector<std::string> row = {model.name,
                                    util::Table::num(ideal_ms, 1)};
    for (double gamma : gammas) {
      // Fake compression applied uniformly, no filters — exactly the
      // synthetic benchmark of §2.1.
      core::CompressionConfig config;
      core::LayerCompression cfg;
      cfg.method = gamma <= 1.0 ? core::Method::None : core::Method::Fake;
      cfg.fake_ratio = gamma;
      config.set_default(cfg);
      config.set_min_compress_numel(0);
      core::CgxEngine engine(model.layout, config, 8);
      const double tput = models::simulated_throughput(
          model, machine, engine, bench::profile_for(bench::EngineKind::Cgx, 8));
      const double step_ms = 1e3 * 8.0 * model.items_per_step_per_gpu / tput;
      row.push_back(util::Table::num(step_ms, 1));
      csv.add_row({model.name, util::Table::num(gamma, 0),
                   util::Table::num(step_ms, 3),
                   util::Table::num(ideal_ms, 3)});
    }
    table.add_row(row);
  }
  table.print();
  std::cout << "\nSeries written to results/fig01_compression_sweep.csv\n"
            << "Shape check: step time monotonically approaches the ideal\n"
            << "column as gamma grows; Transformers need ~1-2 orders of\n"
            << "magnitude of compression, ResNet50 saturates earlier.\n";
  return 0;
}
