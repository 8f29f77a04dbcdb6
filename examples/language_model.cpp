// Language modelling with ADAPTIVE layer-wise compression (paper §5).
//
// A small causal Transformer trains on a Markov-chain corpus with the CGX
// engine in the gradient path. Every 50 steps the KMEANS assigner
// (Algorithm 1) re-clusters the layers by (size, accumulated-gradient
// norm) and re-assigns per-layer bit-widths; the example prints the chosen
// assignment so the §5 behaviour is visible: the big embedding drops to
// the lowest width, small sensitive layers stay high or uncompressed.
#include <cmath>
#include <iomanip>
#include <iostream>

#include "core/adaptive.h"
#include "data/synthetic.h"
#include "models/small_models.h"
#include "nn/train.h"
#include "util/table.h"

using namespace cgx;

int main() {
  constexpr std::size_t kVocab = 32;
  constexpr std::size_t kSeq = 16;
  data::MarkovText dataset(kVocab, /*seed=*/21);
  std::cout << "Corpus entropy rate -> ideal perplexity "
            << util::Table::num(std::exp(dataset.entropy_rate()), 2)
            << "\n\n";

  core::KMeansAssigner assigner;
  nn::TrainOptions options;
  options.world_size = 4;
  options.steps = 200;
  options.seed = 3;
  options.clip_norm = 1.0;
  // One executor worker per rank (four in all) shares the attention and
  // linear GEMMs' row blocks with the rank's training thread; codec calls
  // split only over executors of width 2 or more, and the optimizer only on
  // models of 64 Ki elements or more, so those stay on the training thread.
  // Bit-identical to compute_threads = 0 (see nn/train.h).
  options.compute_threads = 1;
  options.assigner = &assigner;
  options.reassign_every = 50;
  options.on_step = [](std::size_t step, double loss) {
    if ((step + 1) % 50 == 0) {
      std::cout << "step " << std::setw(4) << (step + 1)
                << "  train ppl "
                << util::Table::num(
                       nn::SoftmaxCrossEntropy::perplexity(loss), 2)
                << "\n";
    }
  };

  tensor::LayerLayout layout;  // filled by the engine factory below
  auto result = nn::train_distributed(
      [=](util::Rng& rng) {
        return std::make_unique<models::TinyTransformerLM>(
            kVocab, 32, 4, 2, kSeq, rng);
      },
      [](std::vector<nn::Param*> params) {
        return std::make_unique<nn::Adam>(std::move(params),
                                          nn::constant_lr(2e-3));
      },
      [&layout](const tensor::LayerLayout& model_layout, int world) {
        layout = model_layout;  // keep a copy for reporting
        return std::make_unique<core::CgxEngine>(
            model_layout, core::CompressionConfig::cgx_default(), world);
      },
      [&](int rank, std::size_t step) {
        auto b = dataset.batch(8, kSeq, rank, step);
        return nn::Batch{std::move(b.input), std::move(b.targets)};
      },
      nn::make_xent_loss(kVocab), options);

  std::cout << "\nFinal adaptive bit-width assignment (last period):\n";
  util::Table table("");
  table.set_header({"layer", "numel", "bits"});
  const auto& last = result.assignments.back();
  for (std::size_t l = 0; l < layout.layer_count(); ++l) {
    const auto& info = layout.layer(l);
    const std::string bits =
        last.bits[l] == 0 ? std::string("fp32 (filtered)")
                          : std::to_string(last.bits[l]);
    table.add_row({info.name, std::to_string(info.numel), bits});
  }
  table.print();
  std::cout << "\nAssignment stayed within the error budget: error = "
            << util::Table::num(last.measured_error, 3) << " <= "
            << util::Table::num(2.0 * last.reference_error, 3)
            << " (alpha * E4); relative payload "
            << util::Table::num(last.relative_size, 2) << " of uniform 4-bit.\n";
  return 0;
}
