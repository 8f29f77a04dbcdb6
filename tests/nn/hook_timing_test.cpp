// Gradient-ready hook timing: every module fires its hook exactly once per
// backward, with its parameter gradients already final, and parameterised
// layers fire it before they compute their input gradient. Composites
// (TransformerBlock, MultiHeadAttention, a nested Sequential) fire once,
// after their last child. The cross-module order stays the reverse walk.
// Each model runs under a plain Sequential, a Sequential with a pool bound
// as the thread's executor, and a chain Graph (serial and as a DAG job on a
// bound pool); the pooled cases are why this binary is labelled tsan.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/attention.h"
#include "nn/conv.h"
#include "nn/graph.h"
#include "nn/layers.h"
#include "nn/sequential.h"
#include "util/threadpool.h"

namespace cgx::nn {
namespace {

using Children = std::vector<std::unique_ptr<Module>>;

struct ModelCase {
  const char* name;
  std::function<Children(util::Rng&)> children;
  std::function<tensor::Tensor()> input;
};

tensor::Tensor gaussian(tensor::Shape shape, std::uint64_t seed) {
  tensor::Tensor t(std::move(shape));
  util::Rng rng(seed);
  t.fill_gaussian(rng, 0.0f, 1.0f);
  return t;
}

tensor::Tensor token_ids(std::size_t b, std::size_t t, std::size_t vocab) {
  tensor::Tensor x(tensor::Shape{b, t});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>((i * 7 + 3) % vocab);
  }
  return x;
}

std::vector<ModelCase> model_cases() {
  return {
      {"dense",
       [](util::Rng& rng) {
         Children c;
         c.push_back(std::make_unique<Linear>(6, 8, rng));
         c.push_back(std::make_unique<LayerNorm>(8));
         c.push_back(std::make_unique<ReLU>());
         auto inner = std::make_unique<Sequential>();
         inner->emplace<Linear>(8, 8, rng).emplace<Tanh>();
         c.push_back(std::move(inner));
         c.push_back(std::make_unique<Linear>(8, 3, rng));
         return c;
       },
       [] { return gaussian(tensor::Shape{4, 6}, 11); }},
      {"conv",
       [](util::Rng& rng) {
         Children c;
         c.push_back(std::make_unique<Conv2d>(2, 3, 3, 1, 1, rng));
         c.push_back(std::make_unique<BatchNorm2d>(3));
         c.push_back(std::make_unique<ReLU>());
         c.push_back(std::make_unique<MaxPool2d>(2));
         c.push_back(std::make_unique<Conv2d>(3, 4, 3, 2, 1, rng, false));
         c.push_back(std::make_unique<Flatten>());
         c.push_back(std::make_unique<Linear>(4 * 2 * 2, 5, rng));
         return c;
       },
       [] { return gaussian(tensor::Shape{2, 2, 8, 8}, 12); }},
      {"lm",
       [](util::Rng& rng) {
         Children c;
         c.push_back(std::make_unique<Embedding>(11, 8, rng));
         c.push_back(std::make_unique<TransformerBlock>(8, 2, 16, true, rng));
         c.push_back(std::make_unique<MultiHeadAttention>(8, 2, false, rng));
         c.push_back(std::make_unique<LayerNorm>(8));
         c.push_back(std::make_unique<Linear>(8, 11, rng));
         return c;
       },
       [] { return token_ids(2, 5, 11); }},
  };
}

enum class Container { kSequential, kSequentialPool, kGraph, kGraphPool };

const char* container_name(Container c) {
  switch (c) {
    case Container::kSequential: return "sequential";
    case Container::kSequentialPool: return "sequential+pool";
    case Container::kGraph: return "graph";
    case Container::kGraphPool: return "graph+pool";
  }
  return "?";
}

std::vector<std::vector<float>> grads_of(Module& m) {
  std::vector<Param*> params;
  m.collect_params("", params);
  std::vector<std::vector<float>> out;
  for (Param* p : params) {
    out.emplace_back(p->grad.data().begin(), p->grad.data().end());
  }
  return out;
}

// What one child's hook saw during one backward.
struct Fired {
  std::size_t child;
  bool during_backward;
  std::vector<std::vector<float>> grads;
};

void check_hooks(const ModelCase& mc, Container kind) {
  SCOPED_TRACE(::testing::Message()
               << mc.name << " under " << container_name(kind));
  util::Rng rng(5);
  Children children = mc.children(rng);
  std::vector<Module*> child;
  for (auto& c : children) child.push_back(c.get());

  std::unique_ptr<Module> model;
  const bool pooled =
      kind == Container::kSequentialPool || kind == Container::kGraphPool;
  const auto pool = std::make_shared<util::ThreadPool>(2);
  util::bind_thread_executor(pooled ? pool : nullptr);
  if (kind == Container::kSequential || kind == Container::kSequentialPool) {
    auto seq = std::make_unique<Sequential>();
    for (auto& c : children) seq->add(std::move(c));
    model = std::move(seq);
  } else {
    auto graph = std::make_unique<Graph>();
    Graph::NodeId prev = Graph::kInput;
    for (auto& c : children) prev = graph->add(std::move(c), {prev});
    model = std::move(graph);
  }

  bool in_backward = false;
  std::vector<Fired> fired;  // appended by whichever thread runs the child
  for (std::size_t i = 0; i < child.size(); ++i) {
    child[i]->set_grad_ready_hook([&, i](Module& m) {
      EXPECT_EQ(&m, child[i]);
      fired.push_back({i, in_backward, grads_of(m)});
    });
  }

  const tensor::Tensor x = mc.input();
  for (int step = 0; step < 2; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    zero_grads(parameters(*model));
    fired.clear();
    const tensor::Tensor& out = model->forward(x, /*train=*/true);
    const tensor::Tensor go = gaussian(out.shape(), 100 + step);
    in_backward = true;
    model->backward(go);
    in_backward = false;

    // Exactly once each, in reverse child order (the order before hooks
    // moved inside the layers), all while backward() was still running,
    // and each with the gradients backward() left behind.
    ASSERT_EQ(fired.size(), child.size());
    for (std::size_t f = 0; f < fired.size(); ++f) {
      const std::size_t i = child.size() - 1 - f;
      SCOPED_TRACE(::testing::Message() << "child " << i << " ("
                                        << child[i]->kind() << ")");
      EXPECT_EQ(fired[f].child, i);
      EXPECT_TRUE(fired[f].during_backward);
      EXPECT_EQ(fired[f].grads, grads_of(*child[i]));
    }
  }
  util::bind_thread_executor({});
}

TEST(HookTiming, SequentialFiresOnceWithFinalGradsInReverseOrder) {
  for (const ModelCase& mc : model_cases()) {
    check_hooks(mc, Container::kSequential);
  }
}

TEST(HookTiming, SequentialPoolFiresOnceWithFinalGradsInReverseOrder) {
  for (const ModelCase& mc : model_cases()) {
    check_hooks(mc, Container::kSequentialPool);
  }
}

TEST(HookTiming, GraphFiresOnceWithFinalGradsInReverseOrder) {
  for (const ModelCase& mc : model_cases()) {
    check_hooks(mc, Container::kGraph);
  }
}

TEST(HookTiming, GraphPoolFiresOnceWithFinalGradsInReverseOrder) {
  for (const ModelCase& mc : model_cases()) {
    check_hooks(mc, Container::kGraphPool);
  }
}

// A parameterised layer fires before its input gradient: inside the hook,
// the layer's input-gradient buffer (the tensor backward() returns, held
// from the previous step) does not hold this step's result yet, while the
// parameter gradients already do.
struct LayerCase {
  const char* name;
  std::function<std::unique_ptr<Module>(util::Rng&)> make;
  tensor::Shape input;
};

TEST(HookTiming, ParameterisedLayersFireBeforeTheInputGradient) {
  const LayerCase cases[] = {
      {"linear",
       [](util::Rng& r) { return std::make_unique<Linear>(6, 5, r); },
       tensor::Shape{3, 6}},
      {"conv",
       [](util::Rng& r) {
         return std::make_unique<Conv2d>(2, 3, 3, 1, 1, r);
       },
       tensor::Shape{2, 2, 5, 5}},
      {"bn", [](util::Rng&) { return std::make_unique<BatchNorm2d>(3); },
       tensor::Shape{2, 3, 4, 4}},
      {"ln", [](util::Rng&) { return std::make_unique<LayerNorm>(6); },
       tensor::Shape{3, 6}},
  };
  for (const LayerCase& lc : cases) {
    SCOPED_TRACE(lc.name);
    util::Rng rng(9);
    std::unique_ptr<Module> layer = lc.make(rng);
    const tensor::Tensor x = gaussian(lc.input, 21);
    const tensor::Tensor* grad_in = nullptr;
    std::vector<float> in_hook;
    int fires = 0;
    layer->set_grad_ready_hook([&](Module&) {
      ++fires;
      if (grad_in != nullptr) {
        in_hook.assign(grad_in->data().begin(), grad_in->data().end());
      }
    });
    for (int step = 0; step < 2; ++step) {
      const tensor::Tensor& out = layer->forward(x, /*train=*/true);
      const tensor::Tensor go = gaussian(out.shape(), 30 + step);
      grad_in = &layer->backward_notify(go);
    }
    EXPECT_EQ(fires, 2);
    ASSERT_EQ(in_hook.size(), grad_in->numel());
    const std::vector<float> final_grad_in(grad_in->data().begin(),
                                           grad_in->data().end());
    EXPECT_NE(in_hook, final_grad_in)
        << "the hook saw the finished input gradient";
  }
  // Embedding's input gradient is all zeros (ids are not differentiable),
  // so only the firing count and the gradients can be checked.
  util::Rng rng(9);
  Embedding emb(7, 4, rng);
  std::vector<std::vector<float>> seen;
  int fires = 0;
  emb.set_grad_ready_hook([&](Module& m) {
    ++fires;
    seen = grads_of(m);
  });
  const tensor::Tensor ids = token_ids(2, 3, 7);
  const tensor::Tensor& out = emb.forward(ids, /*train=*/true);
  emb.backward_notify(gaussian(out.shape(), 40));
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(seen, grads_of(emb));
}

}  // namespace
}  // namespace cgx::nn
