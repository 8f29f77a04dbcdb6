// Quickstart: data-parallel training with CGX in ~60 lines of user code.
//
// Four simulated GPUs train an MLP classifier. The only CGX-specific steps
// are the ones from the paper's Listing 1: pick a backend, register the
// model layout, exclude the sensitive small layers, choose quantization
// parameters — then train as usual. The example verifies the compressed
// run reaches the same accuracy as the uncompressed baseline and reports
// how many bytes stayed off the wire.
#include <iostream>

#include "core/frontend.h"
#include "nn/serialize.h"
#include "data/synthetic.h"
#include "models/small_models.h"
#include "nn/train.h"

using namespace cgx;

namespace {

constexpr int kWorldSize = 4;
constexpr std::size_t kClasses = 6;
constexpr std::size_t kFeatures = 12;

nn::TrainResult train(bool compressed) {
  data::BlobDataset dataset(kClasses, kFeatures, /*seed=*/7);
  nn::TrainOptions options;
  options.world_size = kWorldSize;
  options.steps = 300;
  options.seed = 1;

  auto engine_factory = [compressed](const tensor::LayerLayout& layout,
                                     int world)
      -> std::unique_ptr<core::GradientEngine> {
    if (!compressed) {
      return std::make_unique<core::BaselineEngine>(layout, world);
    }
    // The torch_cgx-style integration (paper Listing 1).
    core::DistributedContext ctx(world);
    std::vector<std::pair<std::string, tensor::Shape>> layers;
    for (const auto& info : layout.layers()) {
      layers.push_back({info.name, info.shape});
    }
    ctx.register_model(layers);
    ctx.exclude_layer("bias");
    ctx.set_quantization_bits(4);
    ctx.set_quantization_bucket_size(128);
    return ctx.build_engine();
  };

  return nn::train_distributed(
      [](util::Rng& rng) {
        return models::make_mlp(kFeatures, 48, kClasses, rng);
      },
      [](std::vector<nn::Param*> params) {
        return std::make_unique<nn::Sgd>(std::move(params),
                                         nn::constant_lr(0.05),
                                         /*momentum=*/0.9);
      },
      engine_factory,
      [&](int rank, std::size_t step) {
        auto b = dataset.batch(16, rank, step);
        return nn::Batch{std::move(b.input), std::move(b.targets)};
      },
      nn::make_xent_loss(kClasses), options);
}

double held_out_accuracy(nn::Module& model) {
  data::BlobDataset dataset(kClasses, kFeatures, /*seed=*/7);
  auto eval = dataset.batch(512, /*rank=*/99, /*step=*/0);
  const auto& logits = model.forward(eval.input, /*train=*/false);
  return 100.0 *
         nn::SoftmaxCrossEntropy::accuracy(logits, eval.targets, kClasses);
}

}  // namespace

int main() {
  std::cout << "Training on " << kWorldSize
            << " simulated GPUs (SHM backend)...\n";
  auto baseline = train(/*compressed=*/false);
  auto cgx = train(/*compressed=*/true);

  const double base_acc = held_out_accuracy(*baseline.model);
  const double cgx_acc = held_out_accuracy(*cgx.model);
  std::cout << "  baseline (FP32 allreduce):  " << base_acc << "% top-1\n"
            << "  CGX (4-bit, bucket 128):    " << cgx_acc << "% top-1\n";

  // Wire savings for this model.
  const tensor::LayerLayout layout = [&] {
    util::Rng rng(1);
    auto model = models::make_mlp(kFeatures, 48, kClasses, rng);
    return nn::build_layout(nn::parameters(*model));
  }();
  core::CgxEngine engine(layout, core::CompressionConfig::cgx_default(),
                         kWorldSize);
  std::cout << "  gradient bytes per step per worker: "
            << engine.raw_wire_bytes_per_rank() << " -> "
            << engine.wire_bytes_per_rank() << " ("
            << engine.raw_wire_bytes_per_rank() /
                   engine.wire_bytes_per_rank()
            << "x smaller)\n";

  // Persist and restore the trained model (checkpoint API).
  const std::string ckpt = "quickstart_model.ckpt";
  nn::save_checkpoint(ckpt, nn::parameters(*cgx.model));
  util::Rng fresh_rng(123);
  auto reloaded = models::make_mlp(kFeatures, 48, kClasses, fresh_rng);
  nn::load_checkpoint(ckpt, nn::parameters(*reloaded));
  std::cout << "  reloaded checkpoint accuracy:  "
            << held_out_accuracy(*reloaded) << "% top-1 (saved to " << ckpt
            << ")\n";

  const bool ok = cgx_acc > base_acc - 1.5;
  std::cout << (ok ? "OK: accuracy recovered within tolerance.\n"
                   : "FAIL: compressed run lost accuracy!\n");
  return ok ? 0 : 1;
}
