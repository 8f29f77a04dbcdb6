// Graph container tests: chain equivalence with Sequential, fan-in /
// multi-consumer semantics, frozen-child parameter dropout, and the
// determinism contract — backward as a DAG job on a bound pool is
// bit-identical to the serial walk across pool sizes for branchy models,
// and a Sequential on a bound pool is bit-identical to its plain loop.
#include "nn/graph.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "models/small_models.h"
#include "nn/layers.h"
#include "nn/sequential.h"
#include "util/threadpool.h"

namespace cgx::nn {
namespace {

tensor::Tensor gaussian(tensor::Shape shape, std::uint64_t seed) {
  tensor::Tensor t(std::move(shape));
  util::Rng rng(seed);
  t.fill_gaussian(rng, 0.0f, 1.0f);
  return t;
}

// One forward+backward; returns every bit the run produced.
struct RunOut {
  std::vector<float> output;
  std::vector<float> input_grad;
  std::vector<std::vector<float>> param_grads;

  bool operator==(const RunOut&) const = default;
};

// Binds `pool` (null: none) to the calling thread as its executor for the
// scope.
class Bind {
 public:
  explicit Bind(const std::shared_ptr<util::ThreadPool>& pool) {
    util::bind_thread_executor(pool);
  }
  ~Bind() { util::bind_thread_executor({}); }
};

std::shared_ptr<util::ThreadPool> make_pool(std::size_t threads) {
  return std::make_shared<util::ThreadPool>(threads);
}

RunOut run_once(Module& model, const tensor::Tensor& x,
                const std::shared_ptr<util::ThreadPool>& pool) {
  const Bind bind(pool);

  const tensor::Tensor& out = model.forward(x, /*train=*/true);
  const tensor::Tensor grad_out = gaussian(out.shape(), 777);
  const tensor::Tensor& grad_in = model.backward(grad_out);

  RunOut r;
  r.output.assign(out.data().begin(), out.data().end());
  r.input_grad.assign(grad_in.data().begin(), grad_in.data().end());
  for (Param* p : parameters(model)) {
    r.param_grads.emplace_back(p->grad.data().begin(), p->grad.data().end());
  }
  return r;
}

std::unique_ptr<Sequential> chain_mlp(util::Rng& rng) {
  auto seq = std::make_unique<Sequential>();
  seq->emplace<Linear>(6, 10, rng);
  seq->emplace<ReLU>();
  seq->emplace<Linear>(10, 10, rng);
  seq->emplace<ReLU>();
  seq->emplace<Linear>(10, 3, rng);
  return seq;
}

TEST(Graph, ChainGraphMatchesSequentialBitwise) {
  // The same modules (identical init streams) arranged as a Graph chain
  // and as a Sequential must produce identical bits everywhere.
  util::Rng rng_seq(42);
  auto seq = chain_mlp(rng_seq);

  util::Rng rng_g(42);
  Graph g;
  auto a = g.emplace<Linear>({Graph::kInput}, 6, 10, rng_g);
  a = g.emplace<ReLU>({a});
  a = g.emplace<Linear>({a}, 10, 10, rng_g);
  a = g.emplace<ReLU>({a});
  g.emplace<Linear>({a}, 10, 3, rng_g);

  const tensor::Tensor x = gaussian(tensor::Shape{4, 6}, 9);
  EXPECT_EQ(run_once(*seq, x, nullptr), run_once(g, x, nullptr));
}

TEST(Graph, FanInJoinSumsDuplicateInputsWithMultiplicity) {
  // A node consuming kInput twice sees x + x.
  Graph g;
  g.emplace<ReLU>({Graph::kInput, Graph::kInput});
  const tensor::Tensor x = gaussian(tensor::Shape{2, 5}, 3);
  const tensor::Tensor& out = g.forward(x, /*train=*/true);
  ASSERT_EQ(out.numel(), x.numel());
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float want = std::max(0.0f, 2.0f * x.data()[i]);
    EXPECT_EQ(out.data()[i], want);
  }
}

TEST(Graph, ExecutorBitIdenticalToSerialAcrossPoolSizes_TwoTower) {
  const tensor::Tensor x = gaussian(tensor::Shape{3, 12}, 11);
  util::Rng rng_ref(5);
  auto ref_model = models::make_two_tower(12, 16, 4, rng_ref);
  const RunOut want = run_once(*ref_model, x, nullptr);
  ASSERT_FALSE(want.param_grads.empty());

  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{7}}) {
    const auto pool = make_pool(threads);
    util::Rng rng(5);
    auto model = models::make_two_tower(12, 16, 4, rng);
    EXPECT_EQ(run_once(*model, x, pool), want) << "pool=" << threads;
  }
}

TEST(Graph, ExecutorBitIdenticalToSerialAcrossPoolSizes_SkipJoin) {
  const tensor::Tensor x = gaussian(tensor::Shape{2, 2, 8, 8}, 13);
  util::Rng rng_ref(6);
  auto ref_model = models::make_skipjoin_cnn(2, 8, 3, rng_ref);
  const RunOut want = run_once(*ref_model, x, nullptr);

  for (std::size_t threads : {std::size_t{2}, std::size_t{7}}) {
    const auto pool = make_pool(threads);
    util::Rng rng(6);
    auto model = models::make_skipjoin_cnn(2, 8, 3, rng);
    EXPECT_EQ(run_once(*model, x, pool), want) << "pool=" << threads;
  }
}

TEST(Graph, ExecutorReplayStaysIdenticalAcrossSteps) {
  // The recorded DAG is replayed every backward; three steps on the
  // executor must match three serial steps bit-for-bit (optimizer-free:
  // gradients simply accumulate across steps, which is the Module
  // contract).
  util::Rng rng_a(21);
  auto serial = models::make_two_tower(8, 12, 3, rng_a);
  util::Rng rng_b(21);
  auto pooled = models::make_two_tower(8, 12, 3, rng_b);
  const auto pool = make_pool(3);
  for (int step = 0; step < 3; ++step) {
    const tensor::Tensor x =
        gaussian(tensor::Shape{2, 8}, 100 + static_cast<std::uint64_t>(step));
    const tensor::Tensor& out_a = serial->forward(x, true);
    const tensor::Tensor& out_b = [&]() -> const tensor::Tensor& {
      const Bind bind(pool);
      return pooled->forward(x, true);
    }();
    ASSERT_EQ(0, std::memcmp(out_a.data().data(), out_b.data().data(),
                             out_a.numel() * sizeof(float)));
    const tensor::Tensor go =
        gaussian(out_a.shape(), 200 + static_cast<std::uint64_t>(step));
    serial->backward(go);
    {
      const Bind bind(pool);
      pooled->backward(go);
    }
    const auto pa = parameters(*serial);
    const auto pb = parameters(*pooled);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(0, std::memcmp(pa[i]->grad.data().data(),
                               pb[i]->grad.data().data(),
                               pa[i]->grad.numel() * sizeof(float)))
          << "step=" << step << " param=" << pa[i]->name;
    }
  }
}

TEST(Sequential, ExecutorChainBitIdenticalToPlainLoop) {
  const tensor::Tensor x = gaussian(tensor::Shape{4, 6}, 17);
  util::Rng rng_ref(31);
  auto ref_model = chain_mlp(rng_ref);
  const RunOut want = run_once(*ref_model, x, nullptr);

  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{7}}) {
    const auto pool = make_pool(threads);
    util::Rng rng(31);
    auto model = chain_mlp(rng);
    EXPECT_EQ(run_once(*model, x, pool), want) << "pool=" << threads;
  }
}

TEST(Module, FrozenChildDropsOutOfContainerParams) {
  util::Rng rng(9);
  auto seq = chain_mlp(rng);
  const std::size_t all = parameters(*seq).size();
  ASSERT_GT(all, 2u);
  seq->module(2).set_frozen(true);  // the middle Linear
  const std::size_t frozen = parameters(*seq).size();
  EXPECT_EQ(frozen, all - 2);  // weight + bias gone

  // Backward still flows THROUGH the frozen child: upstream gradients are
  // identical to the unfrozen run (freezing changes what is collected,
  // not what is computed).
  util::Rng rng_b(9);
  auto full = chain_mlp(rng_b);
  const tensor::Tensor x = gaussian(tensor::Shape{2, 6}, 23);
  const RunOut a = run_once(*seq, x, nullptr);
  const RunOut b = run_once(*full, x, nullptr);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.input_grad, b.input_grad);

  seq->module(2).set_frozen(false);
  EXPECT_EQ(parameters(*seq).size(), all);
}

TEST(Module, FrozenGraphNodeDropsOutOfCollectParams) {
  util::Rng rng(15);
  auto g = models::make_two_tower(8, 12, 3, rng);
  const std::size_t all = parameters(*g).size();
  // Node 2 is tower 0's first Linear (stem=0, relu=1).
  g->node(2).set_frozen(true);
  EXPECT_EQ(parameters(*g).size(), all - 2);
  g->node(2).set_frozen(false);
  EXPECT_EQ(parameters(*g).size(), all);
}

}  // namespace
}  // namespace cgx::nn
