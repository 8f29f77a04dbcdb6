// DAG module container: skip joins, fan-out, fan-in, multi-tower models.
//
// Graph generalizes Sequential to an arbitrary DAG of modules. Nodes are
// added in topological order (each node's inputs must already exist); a
// node with several inputs receives their SUM (the residual-add / fan-in
// join convention), and a node whose output feeds several consumers
// receives the SUM of their input gradients in backward. Exactly one node
// must have no consumers — the sink, whose output is the graph's output.
//
// Backward is recorded ONCE into a core::DepEngine — one op per node,
// reading the consumers' input-gradient variables and writing the node's
// own — and replayed every step. With no executor bound to the calling
// thread it runs serially in reverse insertion order, a deterministic
// topological order of the gradient DAG. With one bound (util::
// thread_executor) it runs as one executor job: independent branches run
// concurrently, and hooks fire the moment a node's true consumers
// finished, which is what lets core::AsyncGradientEngine launch a bucket
// as soon as its actual producers are done instead of at the node's turn
// in a linear walk.
//
// Determinism contract (DESIGN.md §5i): fan-in joins and multi-consumer
// gradient sums accumulate in fixed ascending-node order regardless of
// completion order, so serial and executor backward are bit-identical for
// any number of helpers. (GEMMs inside modules keep their own fixed
// accumulation order per the tensor kernel contract; parallel_for runs
// serially inside a job's item.)
#pragma once

#include <memory>
#include <vector>

#include "core/dep_engine.h"
#include "nn/module.h"

namespace cgx::nn {

class Graph final : public Module {
 public:
  using NodeId = std::size_t;
  // Sentinel input id: the graph's own input tensor.
  static constexpr NodeId kInput = static_cast<NodeId>(-1);

  Graph() = default;

  // Takes ownership. `inputs` name earlier nodes (or kInput); a node
  // listed twice contributes twice to the sum. Returns the new node's id.
  NodeId add(std::unique_ptr<Module> module, std::vector<NodeId> inputs);

  template <typename M, typename... Args>
  NodeId emplace(std::vector<NodeId> inputs, Args&&... args) {
    return add(std::make_unique<M>(std::forward<Args>(args)...),
               std::move(inputs));
  }

  const tensor::Tensor& forward(const tensor::Tensor& x, bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_out) override;
  void collect_params(const std::string& prefix,
                      std::vector<Param*>& out) override;
  std::string kind() const override { return "graph"; }

  std::size_t node_count() const { return nodes_.size(); }
  Module& node(NodeId i) { return *nodes_.at(i).module; }

  // The gradient w.r.t. the graph input from the most recent backward.
  // (backward() also returns it, Module-style.)
  const tensor::Tensor& grad_input() const;

 private:
  struct Node {
    std::unique_ptr<Module> module;
    std::vector<NodeId> inputs;     // kInput or earlier node ids
    std::vector<NodeId> consumers;  // ascending (insertion order)
    const tensor::Tensor* out = nullptr;   // forward output (module-owned)
    const tensor::Tensor* d_in = nullptr;  // backward output (module-owned)
    tensor::Tensor sum_in;   // fan-in join buffer (forward)
    tensor::Tensor sum_grad; // multi-consumer gradient sum (backward)
  };

  void ensure_finalized();           // find + validate the single sink
  const tensor::Tensor& forward_input(Node& n);
  const tensor::Tensor& consumer_grad(NodeId i);
  void node_backward(NodeId i);
  void input_grad_backward();
  void record_backward();

  std::vector<Node> nodes_;
  std::vector<NodeId> input_consumers_;  // nodes reading kInput, ascending
  NodeId sink_ = kInput;
  std::size_t finalized_nodes_ = 0;  // node count ensure_finalized() saw

  const tensor::Tensor* x_ = nullptr;         // current forward input
  const tensor::Tensor* grad_out_ = nullptr;  // current backward seed
  const tensor::Tensor* input_grad_ = nullptr;
  tensor::Tensor input_grad_sum_;  // when kInput has several consumers

  core::DepEngine dag_;
  std::vector<core::DepEngine::VarId> node_grad_var_;
  std::size_t recorded_nodes_ = 0;  // node count the recording covers
};

}  // namespace cgx::nn
