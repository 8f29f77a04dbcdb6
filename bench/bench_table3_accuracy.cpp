// Table 3: accuracy recovery — full-precision baseline vs CGX (4-bit
// quantization, bias/norm layers filtered), trained end-to-end for real.
//
// Substituted scale (DESIGN.md §1): the paper's ImageNet/WikiText/SQuAD
// runs become synthetic-task runs on structurally faithful small models;
// the property under test is identical — compressed-gradient training must
// match the uncompressed metric. The paper's envelope is MLPerf-style 1%;
// the band applied here is printed per row (see main). Three seeds per
// cell, mean +- spread reported, as in the paper.
#include <cmath>

#include "bench/common.h"
#include "data/synthetic.h"
#include "models/small_models.h"
#include "nn/train.h"
#include "util/stats.h"

using namespace cgx;

namespace {

constexpr int kWorld = 4;
constexpr std::uint64_t kSeeds[] = {11, 22, 33};

nn::EngineFactory engine_factory(bool compressed) {
  return [compressed](const tensor::LayerLayout& layout, int world)
             -> std::unique_ptr<core::GradientEngine> {
    if (!compressed) {
      return std::make_unique<core::BaselineEngine>(layout, world);
    }
    return std::make_unique<core::CgxEngine>(
        layout, core::CompressionConfig::cgx_default(), world);
  };
}

struct Cell {
  util::OnlineStats baseline;
  util::OnlineStats cgx;
};

std::string fmt(const util::OnlineStats& s, int precision = 1) {
  return util::Table::num(s.mean(), precision) + " +- " +
         util::Table::num((s.max() - s.min()) / 2.0, precision);
}

// ---- task runners: return the final metric for one (seed, engine) -------

double run_mlp(bool compressed, std::uint64_t seed) {
  data::BlobDataset dataset(6, 12, 100 + seed, /*spread=*/1.1f);
  nn::TrainOptions options;
  options.world_size = kWorld;
  options.steps = 300;
  options.seed = seed;
  auto result = nn::train_distributed(
      [](util::Rng& rng) { return models::make_mlp(12, 48, 6, rng); },
      [](std::vector<nn::Param*> params) {
        return std::make_unique<nn::Sgd>(std::move(params),
                                         nn::constant_lr(0.05), 0.9);
      },
      engine_factory(compressed),
      [&](int rank, std::size_t step) {
        auto b = dataset.batch(16, rank, step);
        return nn::Batch{std::move(b.input), std::move(b.targets)};
      },
      nn::make_xent_loss(6), options);
  // Held-out accuracy.
  auto eval = dataset.batch(512, /*rank=*/99, 0);
  const auto& logits = result.model->forward(eval.input, false);
  return 100.0 *
         nn::SoftmaxCrossEntropy::accuracy(logits, eval.targets, 6);
}

double run_cnn(bool compressed, std::uint64_t seed) {
  data::SyntheticImages dataset(5, 2, 8, 200 + seed, /*noise=*/1.2f);
  nn::TrainOptions options;
  options.world_size = kWorld;
  options.steps = 220;
  options.seed = seed;
  auto result = nn::train_distributed(
      [](util::Rng& rng) { return models::make_small_cnn(2, 8, 5, rng); },
      [](std::vector<nn::Param*> params) {
        return std::make_unique<nn::Adam>(std::move(params),
                                          nn::constant_lr(3e-3));
      },
      engine_factory(compressed),
      [&](int rank, std::size_t step) {
        auto b = dataset.batch(12, rank, step);
        return nn::Batch{std::move(b.input), std::move(b.targets)};
      },
      nn::make_xent_loss(5), options);
  auto eval = dataset.batch(256, 99, 0);
  const auto& logits = result.model->forward(eval.input, false);
  return 100.0 *
         nn::SoftmaxCrossEntropy::accuracy(logits, eval.targets, 5);
}

double run_lm(bool compressed, std::uint64_t seed) {
  data::MarkovText dataset(24, 300 + seed);
  constexpr std::size_t kSeq = 16;
  nn::TrainOptions options;
  options.world_size = kWorld;
  options.steps = 250;
  options.seed = seed;
  options.clip_norm = 1.0;  // the Transformer recipe clips gradients
  auto result = nn::train_distributed(
      [](util::Rng& rng) {
        return std::make_unique<models::TinyTransformerLM>(
            24, 24, 2, 2, /*max_seq=*/16, rng);
      },
      [](std::vector<nn::Param*> params) {
        return std::make_unique<nn::Adam>(std::move(params),
                                          nn::constant_lr(2e-3));
      },
      engine_factory(compressed),
      [&](int rank, std::size_t step) {
        auto b = dataset.batch(8, kSeq, rank, step);
        return nn::Batch{std::move(b.input), std::move(b.targets)};
      },
      nn::make_xent_loss(24), options);
  // Held-out perplexity.
  auto eval = dataset.batch(64, kSeq, 99, 0);
  const auto& logits = result.model->forward(eval.input, false);
  nn::SoftmaxCrossEntropy criterion(24);
  return nn::SoftmaxCrossEntropy::perplexity(
      criterion.forward(logits, eval.targets));
}

double run_qa(bool compressed, std::uint64_t seed) {
  constexpr std::size_t kSeq = 16;
  data::SpanQa dataset(24, kSeq, 400 + seed);
  nn::TrainOptions options;
  options.world_size = kWorld;
  options.steps = 250;
  options.seed = seed;
  // Loss: xent over start positions + xent over end positions, from the
  // per-token 2-logit head.
  auto qa_loss = [](const tensor::Tensor& output, const nn::Batch& batch,
                    tensor::Tensor& grad_out) {
    const std::size_t b_count = batch.targets.size() / 2;
    const std::size_t t_len = output.numel() / (b_count * 2);
    grad_out = tensor::Tensor(output.shape());
    double total = 0.0;
    for (int side = 0; side < 2; ++side) {
      tensor::Tensor logits({b_count, t_len});
      for (std::size_t b = 0; b < b_count; ++b) {
        for (std::size_t t = 0; t < t_len; ++t) {
          logits.at(b, t) = output.at((b * t_len + t) * 2 +
                                      static_cast<std::size_t>(side));
        }
      }
      std::vector<int> targets(b_count);
      for (std::size_t b = 0; b < b_count; ++b) {
        targets[b] = batch.targets[2 * b + static_cast<std::size_t>(side)];
      }
      nn::SoftmaxCrossEntropy criterion(t_len);
      total += criterion.forward(logits, targets);
      for (std::size_t b = 0; b < b_count; ++b) {
        for (std::size_t t = 0; t < t_len; ++t) {
          grad_out.at((b * t_len + t) * 2 + static_cast<std::size_t>(side)) =
              criterion.grad().at(b, t) * 0.5f;
        }
      }
    }
    return total / 2.0;
  };
  auto batches = [&](int rank, std::size_t step) {
    auto qa = dataset.batch(8, rank, step);
    nn::Batch batch;
    batch.input = std::move(qa.tokens);
    batch.targets.resize(16);
    for (std::size_t b = 0; b < 8; ++b) {
      batch.targets[2 * b] = qa.start[b];
      batch.targets[2 * b + 1] = qa.end[b];
    }
    return batch;
  };
  auto result = nn::train_distributed(
      [](util::Rng& rng) {
        return std::make_unique<models::TinyBertQa>(24, 24, 2, 2,
                                                     /*max_seq=*/16, rng);
      },
      [](std::vector<nn::Param*> params) {
        return std::make_unique<nn::Adam>(std::move(params),
                                          nn::constant_lr(2e-3));
      },
      engine_factory(compressed), batches, qa_loss, options);
  auto eval = dataset.batch(128, 99, 0);
  const auto& logits = result.model->forward(eval.tokens, false);
  return 100.0 * data::SpanQa::span_f1(logits, eval);
}

}  // namespace

int main() {
  struct Task {
    std::string label;
    std::string metric;
    double (*run)(bool, std::uint64_t);
    bool lower_better;
  };
  const Task tasks[] = {
      {"MLP / blobs   (stand-in: ResNet50-class)", "Top-1 %", run_mlp, false},
      {"CNN / images  (stand-in: VGG16/ImageNet)", "Top-1 %", run_cnn, false},
      {"TinyTXL / markov-LM (stand-in: TXL/WikiText)", "ppl", run_lm, true},
      {"TinyBERT / span-QA (stand-in: BERT/SQuAD)", "F1 %", run_qa, false},
  };

  util::Table table(
      "Table 3 - accuracy: baseline vs CGX (4-bit, filtered), 4 workers, 3 "
      "seeds");
  table.set_header({"task", "metric", "baseline", "CGX", "delta", "band"});
  bool all_within = true;
  for (const Task& task : tasks) {
    Cell cell;
    for (std::uint64_t seed : kSeeds) {
      cell.baseline.add(task.run(false, seed));
      cell.cgx.add(task.run(true, seed));
    }
    const double delta = cell.cgx.mean() - cell.baseline.mean();
    // The band |delta| must stay within: 1.5 points (5% of the baseline
    // perplexity for ppl), widened to the two cells' summed seed
    // half-ranges when the runs are noisier than that. It is wider than
    // the paper's <1%, because three seeds of a small synthetic task
    // spread by more than 1%.
    const double spread =
        (cell.baseline.max() - cell.baseline.min()) / 2.0 +
        (cell.cgx.max() - cell.cgx.min()) / 2.0;
    const double tolerance = std::max(
        task.lower_better ? 0.05 * cell.baseline.mean() : 1.5, spread);
    if (std::fabs(delta) > tolerance) all_within = false;
    table.add_row({task.label, task.metric, fmt(cell.baseline, 2),
                   fmt(cell.cgx, 2), util::Table::num(delta, 2),
                   "+-" + util::Table::num(tolerance, 2)});
  }
  table.print();
  std::cout << "\nAccuracy recovery "
            << (all_within ? "WITHIN" : "OUTSIDE")
            << " each row's band: |delta| <= max(1.5 pts, or 5% of the "
               "baseline ppl; the summed seed half-ranges). The paper's "
               "band is <1%; three seeds of these small tasks spread wider "
               "(Table 3).\n";
  return all_within ? 0 : 1;
}
