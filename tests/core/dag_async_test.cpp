// DAG-executor x streaming-engine composition tests: ordered bucket launch
// and multi-lane comm threads are bit-identical to the legacy inline path
// across reduction schemes and world sizes; per-bucket launch/finish
// timestamps land in the StepReport; round retries force a single lane and
// still recover bitwise; and the trainer's DAG backward on the rank
// executor (the streaming engine's, with compute_threads workers) and
// overlap_comm_lanes reproduce the plain serial run exactly — including
// models with frozen and parameterless children streaming through the
// hooks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "comm/fault.h"
#include "comm/tagspace.h"
#include "comm/transports.h"
#include "comm/world.h"
#include "core/async_engine.h"
#include "data/synthetic.h"
#include "models/small_models.h"
#include "nn/graph.h"
#include "nn/train.h"

namespace cgx::core {
namespace {

tensor::LayerLayout transformer_like_layout() {
  tensor::LayerLayout layout;
  layout.add_layer("embed.weight", tensor::Shape{1000, 64});
  layout.add_layer("block0.attn.weight", tensor::Shape{64, 192});
  layout.add_layer("block0.attn.bias", tensor::Shape{192});
  layout.add_layer("block0.ln.weight", tensor::Shape{64});
  layout.add_layer("block0.ffn.weight", tensor::Shape{64, 256});
  layout.add_layer("block0.ffn.bias", tensor::Shape{256});
  layout.add_layer("head.weight", tensor::Shape{64, 100});
  return layout;
}

std::vector<float> rank_gradient(const tensor::LayerLayout& layout, int rank,
                                 int round) {
  util::Rng rng(4000 + 100 * static_cast<std::uint64_t>(round) +
                static_cast<std::uint64_t>(rank));
  std::vector<float> g(layout.total_numel());
  for (auto& v : g) v = static_cast<float>(rng.next_gaussian());
  return g;
}

AsyncGradientEngine make_engine(const tensor::LayerLayout& layout, int world,
                                comm::ReductionScheme scheme,
                                AsyncOptions aopts,
                                EngineOptions eopts = {}) {
  eopts.scheme = scheme;
  return AsyncGradientEngine(
      std::make_unique<CgxEngine>(layout, CompressionConfig::cgx_default(),
                                  world, eopts),
      aopts);
}

std::vector<std::vector<float>> run_rounds(AsyncGradientEngine& engine,
                                           const tensor::LayerLayout& layout,
                                           int world, int rounds) {
  comm::ShmTransport transport(world);
  std::vector<std::vector<float>> result(static_cast<std::size_t>(world));
  comm::run_world(transport, [&](comm::Comm& comm) {
    util::Rng rng(6000 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<float> grad;
    for (int round = 0; round < rounds; ++round) {
      grad = rank_gradient(layout, comm.rank(), round);
      engine.allreduce(comm, grad, rng);
    }
    result[static_cast<std::size_t>(comm.rank())] = grad;
  });
  return result;
}

TEST(DagAsync, OrderedLanesBitIdenticalToInlineAcrossSchemesAndWorlds) {
  // The DAG-executor contract: ordered launch + any lane count produces
  // the exact bits of the facade's inline mode. Per-bucket RNG streams and
  // the canonical release frontier make the schedule immaterial.
  const auto layout = transformer_like_layout();
  AsyncOptions inline_opts;
  inline_opts.bucket_bytes = std::size_t{32} << 10;
  inline_opts.overlap = false;

  for (auto scheme : {comm::ReductionScheme::ScatterReduceAllgather,
                      comm::ReductionScheme::Ring,
                      comm::ReductionScheme::Tree}) {
    for (int world : {2, 4, 8}) {
      auto inlined = make_engine(layout, world, scheme, inline_opts);
      const auto want = run_rounds(inlined, layout, world, 2);
      for (int lanes : {1, 2}) {
        AsyncOptions aopts = inline_opts;
        aopts.overlap = true;
        aopts.comm_lanes = lanes;
        auto engine = make_engine(layout, world, scheme, aopts);
        EXPECT_EQ(engine.comm_lanes(), lanes);
        const auto got = run_rounds(engine, layout, world, 2);
        for (int r = 0; r < world; ++r) {
          const auto& g = got[static_cast<std::size_t>(r)];
          const auto& w = want[static_cast<std::size_t>(r)];
          ASSERT_EQ(g.size(), w.size());
          EXPECT_EQ(
              std::memcmp(g.data(), w.data(), g.size() * sizeof(float)), 0)
              << "scheme=" << comm::reduction_scheme_name(scheme)
              << " world=" << world << " lanes=" << lanes << " rank=" << r;
        }
      }
    }
  }
}

TEST(DagAsync, LaneCountClampsToTagSpaceBound) {
  const auto layout = transformer_like_layout();
  AsyncOptions aopts;
  aopts.bucket_bytes = std::size_t{32} << 10;
  aopts.overlap = true;
  aopts.comm_lanes = comm::kMaxCommLanes + 5;
  auto engine = make_engine(
      layout, 2, comm::ReductionScheme::ScatterReduceAllgather, aopts);
  EXPECT_EQ(engine.comm_lanes(), comm::kMaxCommLanes);
  const auto got = run_rounds(engine, layout, 2, 1);
  EXPECT_EQ(got[0], got[1]);
}

TEST(DagAsync, PerBucketTimestampsRecordLaunchFinishAndLane) {
  const auto layout = transformer_like_layout();
  constexpr int kWorld = 2;
  constexpr int kLanes = 2;
  AsyncOptions aopts;
  aopts.bucket_bytes = std::size_t{32} << 10;
  aopts.overlap = true;
  aopts.comm_lanes = kLanes;
  auto engine = make_engine(
      layout, kWorld, comm::ReductionScheme::ScatterReduceAllgather, aopts);
  run_rounds(engine, layout, kWorld, 2);

  const std::size_t total = engine.plan().total_submissions();
  for (int r = 0; r < kWorld; ++r) {
    const StepReport& report = engine.last_step_report(r);
    EXPECT_TRUE(report.ok);
    ASSERT_EQ(report.timing.buckets.size(), total);
    for (std::size_t i = 0; i < total; ++i) {
      const auto& ev = report.timing.buckets[i];
      EXPECT_EQ(ev.bucket, static_cast<int>(i)) << "submission " << i;
      // Lanes come from the byte-balanced map (fixed per rebuild), not a
      // round-robin — the report must record the lane actually ridden.
      EXPECT_EQ(ev.lane, engine.lane_of(i)) << "submission " << i;
      EXPECT_GE(ev.lane, 0);
      EXPECT_LT(ev.lane, kLanes);
      EXPECT_GE(ev.launch_s, 0.0);
      EXPECT_GE(ev.finish_s, ev.launch_s)
          << "bucket finished before it launched";
    }
    // exposed_comm_pct is exposed_comm_s as a share of comm_s.
    ASSERT_GT(report.timing.comm_s, 0.0);
    EXPECT_NEAR(report.timing.exposed_comm_pct,
                100.0 * report.timing.exposed_comm_s / report.timing.comm_s,
                1e-9);
  }
}

TEST(DagAsync, LaneMapBalancesBytesUnderSkewedPolicies) {
  // The lane map balances POST-COMPRESSION bytes, not bucket counts: with
  // the embedding sparsified to 0.1% its bucket costs a sliver of a
  // quantized one, and a round-robin would leave one lane nearly idle.
  // The greedy map's invariant: no lane exceeds another by more than one
  // submission's cost, and every lane gets work.
  const auto layout = transformer_like_layout();
  constexpr int kLanes = 2;
  AsyncOptions aopts;
  aopts.bucket_bytes = std::size_t{32} << 10;
  aopts.overlap = true;
  aopts.comm_lanes = kLanes;
  auto engine = make_engine(
      layout, 2, comm::ReductionScheme::ScatterReduceAllgather, aopts);

  LayerCompression sparse;
  sparse.method = Method::TopK;
  sparse.topk_ratio = 0.001;
  sparse.dgc = true;
  engine.inner().config().set_layer_exact("embed.weight", sparse);
  engine.rebuild();

  const BucketPlan& plan = engine.plan();
  std::vector<double> load(kLanes, 0.0);
  double max_item = 0.0;
  for (std::size_t idx = 0; idx < plan.total_submissions(); ++idx) {
    const double bytes = engine.inner().wire_bytes_of(
        plan.has_packet && idx == plan.packet_index()
            ? std::span<const std::size_t>(engine.inner().filtered_layers())
            : std::span<const std::size_t>(plan.buckets[idx].layers));
    const int lane = engine.lane_of(idx);
    ASSERT_GE(lane, 0);
    ASSERT_LT(lane, kLanes);
    load[static_cast<std::size_t>(lane)] += bytes;
    max_item = std::max(max_item, bytes);
  }
  const double hi = *std::max_element(load.begin(), load.end());
  const double lo = *std::min_element(load.begin(), load.end());
  EXPECT_GT(lo, 0.0) << "a lane was left idle";
  EXPECT_LE(hi - lo, max_item)
      << "greedy byte balance violated: loads " << load[0] << " / "
      << load[1];

  // And the skewed-policy multi-lane run still reduces correctly.
  const auto got = run_rounds(engine, layout, 2, 1);
  EXPECT_EQ(got[0], got[1]);
}

TEST(DagAsync, InlineModeReportsFullyExposedComm) {
  // With overlap off, every collective sits on the critical path: the
  // engine must say so (exposed == comm, pct == 100).
  const auto layout = transformer_like_layout();
  AsyncOptions aopts;
  aopts.bucket_bytes = std::size_t{32} << 10;
  aopts.overlap = false;
  auto engine = make_engine(
      layout, 2, comm::ReductionScheme::ScatterReduceAllgather, aopts);
  run_rounds(engine, layout, 2, 1);
  for (int r = 0; r < 2; ++r) {
    const StepReport& report = engine.last_step_report(r);
    ASSERT_GT(report.timing.comm_s, 0.0);
    EXPECT_EQ(report.timing.exposed_comm_s, report.timing.comm_s);
    EXPECT_DOUBLE_EQ(report.timing.exposed_comm_pct, 100.0);
  }
}

TEST(DagAsync, RetriesForceSingleLaneAndRecoverBitwise) {
  // Round retries assume one comm thread (the recovery barrier is
  // world-sized); the facade must silently fall back to one lane and the
  // retried step must still restore the clean bits.
  constexpr int kWorld = 2;
  constexpr int kRounds = 2;
  const auto layout = transformer_like_layout();
  AsyncOptions aopts;
  aopts.bucket_bytes = std::size_t{32} << 10;
  aopts.overlap = true;

  auto clean = make_engine(
      layout, kWorld, comm::ReductionScheme::Ring, aopts);
  const std::size_t submissions = clean.plan().total_submissions();
  ASSERT_GT(submissions, 1u);
  const auto want = run_rounds(clean, layout, kWorld, kRounds);

  comm::FaultInjector injector(/*seed=*/1, kWorld);
  // Fail the SECOND step's first bucket round (the facade's round counter
  // advances once per bucket submission).
  injector.schedule_round_failure(submissions);
  EngineOptions eopts;
  eopts.max_round_retries = 1;
  eopts.injector = &injector;
  AsyncOptions lanes_opts = aopts;
  lanes_opts.comm_lanes = 4;
  auto engine = make_engine(layout, kWorld, comm::ReductionScheme::Ring,
                            lanes_opts, eopts);
  EXPECT_EQ(engine.comm_lanes(), 1) << "retries must disable extra lanes";

  const auto got = run_rounds(engine, layout, kWorld, kRounds);
  for (int r = 0; r < kWorld; ++r) {
    const StepReport& report = engine.last_step_report(r);
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.retries, 1);
    EXPECT_EQ(std::memcmp(got[static_cast<std::size_t>(r)].data(),
                          want[static_cast<std::size_t>(r)].data(),
                          want[0].size() * sizeof(float)),
              0)
        << "rank " << r;
  }
}

// ---- Trainer-level composition: Graph models + DAG backward + lanes ----

constexpr std::size_t kClasses = 4;
constexpr std::size_t kDim = 12;

nn::ModelFactory two_tower_factory(bool freeze_tower_layer = false) {
  return [freeze_tower_layer](util::Rng& rng) -> std::unique_ptr<nn::Module> {
    auto g = models::make_two_tower(kDim, 16, kClasses, rng);
    if (freeze_tower_layer) {
      // Node 2 is tower 0's first Linear (stem=0, stem relu=1). Frozen on
      // every replica, it drops out of the engine layout but backward still
      // flows through it — the hook loop must skip it without desyncing the
      // fused-buffer offsets of the layers behind it.
      g->node(2).set_frozen(true);
    }
    return g;
  };
}

nn::OptimizerFactory sgd_factory(double lr) {
  return [lr](std::vector<nn::Param*> params) {
    return std::make_unique<nn::Sgd>(std::move(params),
                                     nn::constant_lr(lr), 0.9);
  };
}

nn::EngineFactory cgx_engine() {
  return [](const tensor::LayerLayout& layout, int world) {
    return std::make_unique<CgxEngine>(
        layout, CompressionConfig::cgx_default(), world);
  };
}

// The streaming facade with no comm threads: every bucket runs inline on
// the training thread, which has no executor, so backward is the serial
// walk — the reference the DAG job on the rank executor must match.
nn::EngineFactory inline_streaming_engine() {
  return [](const tensor::LayerLayout& layout,
            int world) -> std::unique_ptr<GradientEngine> {
    AsyncOptions aopts;
    aopts.overlap = false;
    aopts.bucket_bytes = std::size_t{4} << 10;
    return std::make_unique<AsyncGradientEngine>(
        std::make_unique<CgxEngine>(layout, CompressionConfig::cgx_default(),
                                    world),
        aopts);
  };
}

nn::BatchProvider blob_batches(const data::BlobDataset& dataset,
                               std::size_t batch) {
  return [&dataset, batch](int rank, std::size_t step) {
    auto labeled = dataset.batch(batch, rank, step);
    return nn::Batch{std::move(labeled.input), std::move(labeled.targets)};
  };
}

void expect_same_run(const nn::TrainResult& got, const nn::TrainResult& want) {
  ASSERT_EQ(got.loss_history.size(), want.loss_history.size());
  for (std::size_t i = 0; i < got.loss_history.size(); ++i) {
    EXPECT_EQ(got.loss_history[i], want.loss_history[i]) << "step " << i;
  }
  const auto pg = nn::parameters(*got.model);
  const auto pw = nn::parameters(*want.model);
  ASSERT_EQ(pg.size(), pw.size());
  for (std::size_t i = 0; i < pg.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(pg[i]->value.data().data(),
                             pw[i]->value.data().data(),
                             pg[i]->value.numel() * sizeof(float)))
        << "param " << pg[i]->name;
  }
}

TEST(DagAsyncTrain, GraphDagBackwardBitIdenticalToSerialHooks) {
  // The full stack: Graph model, per-rank DepEngine backward as a job on
  // the rank executor (the training thread and 2 workers; the 2 comm lanes
  // help its split jobs only), streaming overlap — versus
  // the same streaming facade run inline, driven by the serial backward
  // walk (the legacy hook path). Only the scheduling differs; loss history
  // and final replicas must match bit-for-bit.
  data::BlobDataset dataset(kClasses, kDim, 61);
  nn::TrainOptions base;
  base.world_size = 2;
  base.steps = 8;
  base.seed = 13;
  base.overlap = true;
  base.overlap_bucket_bytes = std::size_t{4} << 10;
  nn::TrainResult want = train_distributed(
      two_tower_factory(), sgd_factory(0.05), inline_streaming_engine(),
      blob_batches(dataset, 16), nn::make_xent_loss(kClasses), base);

  nn::TrainOptions dag = base;
  dag.overlap_comm_lanes = 2;
  dag.compute_threads = 2;
  nn::TrainResult got = train_distributed(
      two_tower_factory(), sgd_factory(0.05), cgx_engine(),
      blob_batches(dataset, 16), nn::make_xent_loss(kClasses), dag);

  expect_same_run(got, want);
  EXPECT_FALSE(std::isnan(got.final_loss));
}

TEST(DagAsyncTrain, FrozenAndParameterlessChildrenStreamCorrectly) {
  // Regression for the hook loop: ReLU nodes own no parameters and the
  // frozen Linear contributes none to the layout; streaming with hooks
  // must skip both WITHOUT advancing the fused-buffer offset past live
  // layers — any slip desyncs every bucket behind it.
  data::BlobDataset dataset(kClasses, kDim, 62);
  nn::TrainOptions base;
  base.world_size = 2;
  base.steps = 6;
  base.seed = 17;
  base.overlap = true;
  base.overlap_bucket_bytes = std::size_t{4} << 10;
  nn::TrainResult want = train_distributed(
      two_tower_factory(/*freeze_tower_layer=*/true), sgd_factory(0.05),
      inline_streaming_engine(), blob_batches(dataset, 16),
      nn::make_xent_loss(kClasses), base);

  nn::TrainOptions dag = base;
  dag.overlap_comm_lanes = 2;
  dag.compute_threads = 2;
  nn::TrainResult got = train_distributed(
      two_tower_factory(/*freeze_tower_layer=*/true), sgd_factory(0.05),
      cgx_engine(), blob_batches(dataset, 16), nn::make_xent_loss(kClasses),
      dag);

  expect_same_run(got, want);
}

TEST(DagAsyncTrain, SequentialDagThreadsMatchPlainRun) {
  // An ordinary MLP with a 3-worker rank executor (its GEMMs and optimizer
  // split over it) must change nothing.
  data::BlobDataset dataset(kClasses, kDim, 63);
  auto mlp = [](util::Rng& rng) -> std::unique_ptr<nn::Module> {
    return models::make_mlp(kDim, 24, kClasses, rng);
  };
  nn::TrainOptions base;
  base.world_size = 2;
  base.steps = 6;
  base.seed = 19;
  nn::TrainResult want = train_distributed(
      mlp, sgd_factory(0.05), cgx_engine(), blob_batches(dataset, 16),
      nn::make_xent_loss(kClasses), base);

  nn::TrainOptions dag = base;
  dag.compute_threads = 3;
  nn::TrainResult got = train_distributed(
      mlp, sgd_factory(0.05), cgx_engine(), blob_batches(dataset, 16),
      nn::make_xent_loss(kClasses), dag);

  expect_same_run(got, want);
}

}  // namespace
}  // namespace cgx::core
