// Elastic end-to-end training (README "Surviving rank failures"): a rank
// crash mid-training must not kill the run — the survivors re-shard and
// keep converging — a planned departure applies at its step boundary, a
// crashed rank readmitted at an epoch boundary converges with the others,
// and the elastic machinery is a bit-exact no-op while nothing fails.
#include "nn/train.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "comm/fault.h"
#include "data/synthetic.h"
#include "models/small_models.h"

namespace cgx::nn {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kClasses = 4;
constexpr std::size_t kDim = 8;

ModelFactory mlp_factory() {
  return [](util::Rng& rng) {
    return models::make_mlp(kDim, 32, kClasses, rng);
  };
}

// Momentum 0: a readmitted rank receives parameters by broadcast but not
// optimizer state, so elastic runs use a stateless optimizer (momentum
// would silently diverge after readmission).
OptimizerFactory plain_sgd(double lr) {
  return [lr](std::vector<Param*> params) {
    return std::make_unique<Sgd>(std::move(params), constant_lr(lr), 0.0);
  };
}

BatchProvider blob_batches(const data::BlobDataset& dataset,
                           std::size_t batch) {
  return [&dataset, batch](int rank, std::size_t step) {
    auto labeled = dataset.batch(batch, rank, step);
    return Batch{std::move(labeled.input), std::move(labeled.targets)};
  };
}

EngineFactory cgx_engine() {
  return [](const tensor::LayerLayout& layout, int world) {
    return std::make_unique<core::CgxEngine>(
        layout, core::CompressionConfig::cgx_default(), world);
  };
}

TEST(ElasticTrain, CleanRunIsBitIdenticalToTheFixedWorldRun) {
  // With nothing failing, elastic mode is pure bookkeeping: dense and
  // global coordinates coincide and the commit fence adds no arithmetic,
  // so the loss trajectory must match the fixed-world run exactly.
  data::BlobDataset dataset(kClasses, kDim, 52);
  TrainOptions fixed;
  fixed.world_size = 4;
  fixed.steps = 30;
  fixed.seed = 9;
  TrainResult want = train_distributed(
      mlp_factory(), plain_sgd(0.05), cgx_engine(), blob_batches(dataset, 16),
      make_xent_loss(kClasses), fixed);
  TrainOptions elastic = fixed;
  elastic.elastic = true;
  elastic.policy.timeout = 500ms;
  TrainResult got = train_distributed(
      mlp_factory(), plain_sgd(0.05), cgx_engine(), blob_batches(dataset, 16),
      make_xent_loss(kClasses), elastic);
  ASSERT_EQ(want.loss_history.size(), got.loss_history.size());
  for (std::size_t i = 0; i < want.loss_history.size(); ++i) {
    EXPECT_EQ(want.loss_history[i], got.loss_history[i]) << "step " << i;
  }
}

TEST(ElasticTrain, MidTrainingCrashContinuesDegradedToTheEnd) {
  data::BlobDataset dataset(kClasses, kDim, 53);
  comm::FaultInjector injector(/*seed=*/3, /*world=*/4);
  injector.schedule_crash(/*rank=*/2, /*op_index=*/120);
  TrainOptions options;
  options.world_size = 4;
  options.steps = 60;
  options.seed = 10;
  options.elastic = true;
  options.policy.timeout = 40ms;
  options.policy.checksums = true;
  options.fault_injector = &injector;
  std::size_t steps_reported = 0;
  options.on_step = [&steps_reported](std::size_t, double) {
    ++steps_reported;
  };
  TrainResult result = train_distributed(
      mlp_factory(), plain_sgd(0.05), cgx_engine(), blob_batches(dataset, 16),
      make_xent_loss(kClasses), options);
  // No WorkerError escaped: the crash shrank the world to 3 and every step
  // still ran and converged.
  EXPECT_EQ(result.loss_history.size(), options.steps);
  EXPECT_EQ(steps_reported, options.steps);
  EXPECT_FALSE(std::isnan(result.final_loss));
  EXPECT_LT(result.final_loss, 1.2);
  EXPECT_GT(result.loss_history.front(), result.final_loss);
}

TEST(ElasticTrain, PlannedDepartureAppliesAtItsStepBoundary) {
  data::BlobDataset dataset(kClasses, kDim, 54);
  comm::FaultInjector injector(/*seed=*/4, /*world=*/4);
  injector.schedule_departure(/*rank=*/3, /*step=*/20);
  TrainOptions options;
  options.world_size = 4;
  options.steps = 50;
  options.seed = 11;
  options.elastic = true;
  options.policy.timeout = 200ms;
  options.fault_injector = &injector;
  TrainResult result = train_distributed(
      mlp_factory(), plain_sgd(0.05), cgx_engine(), blob_batches(dataset, 16),
      make_xent_loss(kClasses), options);
  EXPECT_EQ(result.loss_history.size(), options.steps);
  EXPECT_FALSE(std::isnan(result.final_loss));
  EXPECT_LT(result.final_loss, 1.2);
}

TEST(ElasticTrain, CrashedRankRejoinsAndConverges) {
  // The fig04-style harness with a full lifecycle: rank 1 dies early, the
  // survivors train degraded, rank 1 is readmitted at step 40 (parameters
  // by broadcast from the lowest survivor, fresh error feedback), and the
  // restored world keeps converging to the end.
  data::BlobDataset dataset(kClasses, kDim, 55);
  comm::FaultInjector injector(/*seed=*/5, /*world=*/4);
  injector.schedule_crash(/*rank=*/1, /*op_index=*/150);
  TrainOptions options;
  options.world_size = 4;
  options.steps = 80;
  options.seed = 12;
  options.elastic = true;
  options.policy.timeout = 40ms;
  options.policy.checksums = true;
  options.fault_injector = &injector;
  options.rejoins = {{1, 40}};
  TrainResult result = train_distributed(
      mlp_factory(), plain_sgd(0.05), cgx_engine(), blob_batches(dataset, 16),
      make_xent_loss(kClasses), options);
  EXPECT_EQ(result.loss_history.size(), options.steps);
  EXPECT_FALSE(std::isnan(result.final_loss));
  EXPECT_LT(result.final_loss, 1.0);
  EXPECT_GT(result.loss_history.front(), result.final_loss);
  ASSERT_NE(result.model, nullptr);
}

TrainOptions rejoin_options(comm::FaultInjector& injector) {
  TrainOptions options;
  options.world_size = 4;
  options.steps = 80;
  options.seed = 12;
  options.elastic = true;
  options.policy.timeout = 40ms;
  options.policy.checksums = true;
  options.fault_injector = &injector;
  options.rejoins = {{1, 40}};
  return options;
}

TEST(ElasticTrain, RejoinWithAStatefulOptimizerIsRejected) {
  // A readmitted rank gets parameters but not optimizer state, so moments
  // or velocity would silently desync it: the trainer refuses up front.
  data::BlobDataset dataset(kClasses, kDim, 55);
  const OptimizerFactory adam = [](std::vector<Param*> params) {
    return std::make_unique<Adam>(std::move(params), constant_lr(0.01));
  };
  const OptimizerFactory momentum = [](std::vector<Param*> params) {
    return std::make_unique<Sgd>(std::move(params), constant_lr(0.05), 0.9);
  };
  for (const OptimizerFactory& optimizer : {adam, momentum}) {
    comm::FaultInjector injector(/*seed=*/5, /*world=*/4);
    injector.schedule_crash(/*rank=*/1, /*op_index=*/150);
    EXPECT_THROW(train_distributed(mlp_factory(), optimizer, cgx_engine(),
                                   blob_batches(dataset, 16),
                                   make_xent_loss(kClasses),
                                   rejoin_options(injector)),
                 std::invalid_argument);
  }
}

TEST(ElasticTrain, OverlapIsRejectedBeforeAnyWorkerStarts) {
  data::BlobDataset dataset(kClasses, kDim, 56);
  TrainOptions options;
  options.world_size = 2;
  options.steps = 5;
  options.elastic = true;
  options.overlap = true;
  EXPECT_THROW(train_distributed(mlp_factory(), plain_sgd(0.05), cgx_engine(),
                                 blob_batches(dataset, 16),
                                 make_xent_loss(kClasses), options),
               std::invalid_argument);
}

// Momentum SGD that, when its rank's worker tears down (the model is still
// alive: it is declared before the optimizer), reports how many steps it
// took and an FNV-1a hash of the rank's parameters.
class HashingMomentumSgd final : public Optimizer {
 public:
  using Sink = std::function<void(std::size_t steps, std::uint64_t hash)>;
  HashingMomentumSgd(std::vector<Param*> params, Sink sink)
      : params_(params),
        inner_(std::move(params), constant_lr(0.05), 0.9),
        sink_(std::move(sink)) {}
  ~HashingMomentumSgd() override {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const Param* p : params_) {
      for (const std::byte b : std::as_bytes(p->value.data())) {
        h = (h ^ std::to_integer<std::uint64_t>(b)) * 0x100000001b3ull;
      }
    }
    sink_(steps_, h);
  }
  void step() override {
    inner_.step();
    ++steps_;
  }
  bool stateful() const override { return inner_.stateful(); }

 private:
  std::vector<Param*> params_;
  Sgd inner_;
  Sink sink_;
};

TEST(ElasticTrain, CrashWithoutRejoinKeepsMomentumSurvivorsInLockstep) {
  // Without a rejoin no replica lacks state the others have: momentum SGD
  // trains through a crash and every survivor ends with the same
  // parameters.
  data::BlobDataset dataset(kClasses, kDim, 53);
  comm::FaultInjector injector(/*seed=*/3, /*world=*/4);
  injector.schedule_crash(/*rank=*/2, /*op_index=*/120);
  TrainOptions options;
  options.world_size = 4;
  options.steps = 60;
  options.seed = 10;
  options.elastic = true;
  options.policy.timeout = 40ms;
  options.policy.checksums = true;
  options.fault_injector = &injector;
  std::mutex mutex;
  std::vector<std::uint64_t> finished;  // hashes of ranks that ran every step
  int torn_down = 0;
  const OptimizerFactory momentum = [&](std::vector<Param*> params) {
    return std::make_unique<HashingMomentumSgd>(
        std::move(params), [&](std::size_t steps, std::uint64_t hash) {
          std::lock_guard<std::mutex> lock(mutex);
          ++torn_down;
          if (steps == options.steps) finished.push_back(hash);
        });
  };
  TrainResult result = train_distributed(
      mlp_factory(), momentum, cgx_engine(), blob_batches(dataset, 16),
      make_xent_loss(kClasses), options);
  EXPECT_EQ(result.loss_history.size(), options.steps);
  EXPECT_FALSE(std::isnan(result.final_loss));
  EXPECT_LT(result.final_loss, result.loss_history.front());
  EXPECT_EQ(torn_down, 4);
  ASSERT_EQ(finished.size(), 3u) << "three survivors run every step";
  EXPECT_EQ(finished[1], finished[0]);
  EXPECT_EQ(finished[2], finished[0]);
}

}  // namespace
}  // namespace cgx::nn
