// Figure 5: adaptive compression approaches compared on (a) compression
// error and (b) compressed size, both relative to uniform static 4-bit
// assignment. Transformer-XL layer statistics.
#include "bench/adaptive_common.h"
#include "core/budget.h"

using namespace cgx;

int main() {
  const auto txl = models::transformer_xl_base();
  core::CgxEngine engine(txl.layout,
                         core::CompressionConfig::cgx_default(), 8);
  const auto scaled = bench::collect_scaled_stats(txl, engine);
  core::AdaptiveOptions options;

  // Reference: the measured error and weighted size of uniform 4-bit.
  util::Rng ref_rng(7);
  std::vector<unsigned> uniform(scaled.layout.layer_count(), 4u);
  const double e4 = core::measured_assignment_error(
      *scaled.stats, scaled.compressible, uniform, options.bucket_size,
      ref_rng);

  core::KMeansAssigner kmeans;
  core::BayesAssigner bayes(40);
  core::LinearAssigner linear;
  core::DpAssigner dp;
  core::Assigner* assigners[] = {&kmeans, &bayes, &linear, &dp};

  util::Table table("Fig 5 - error (a) and size (b) relative to static 4-bit");
  table.set_header({"method", "(a) error ratio", "(b) size ratio"});
  util::CsvWriter csv(bench::results_path("fig05_adaptive_error.csv"),
                      {"method", "error_ratio", "size_ratio"});
  for (core::Assigner* assigner : assigners) {
    util::Rng rng(42);
    const core::Assignment a = assigner->assign(
        *scaled.stats, scaled.compressible, options, rng);
    const double error_ratio = a.measured_error / std::max(e4, 1e-12);
    table.add_row({assigner->name(), util::Table::num(error_ratio, 2),
                   util::Table::num(a.relative_size, 2)});
    csv.add_row({assigner->name(), util::Table::num(error_ratio, 4),
                 util::Table::num(a.relative_size, 4)});
  }
  table.print();
  std::cout << "\nSeries written to results/fig05_adaptive_error.csv\n"
            << "Shape check: all error ratios <= alpha = " << options.alpha
            << "; kmeans leads the bits-only assigners, and the DP budget\n"
            << "planner (mixing in sparsification) compresses hardest.\n";
  return 0;
}
