#include "nn/graph.h"

#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace cgx::nn {

Graph::NodeId Graph::add(std::unique_ptr<Module> module,
                         std::vector<NodeId> inputs) {
  CGX_CHECK(module != nullptr);
  CGX_CHECK(!inputs.empty()) << "a graph node must consume something";
  const NodeId id = nodes_.size();
  for (NodeId in : inputs) {
    CGX_CHECK(in == kInput || in < id)
        << "graph nodes must be added in topological order";
  }
  Node n;
  n.module = std::move(module);
  n.inputs = std::move(inputs);
  nodes_.push_back(std::move(n));
  // Consumer lists stay ascending because ids are assigned in add order; a
  // duplicate input contributes one consumer entry per occurrence, so its
  // gradient is counted with the right multiplicity.
  for (NodeId in : nodes_[id].inputs) {
    if (in != kInput) nodes_[in].consumers.push_back(id);
  }
  return id;
}

void Graph::ensure_finalized() {
  if (finalized_nodes_ == nodes_.size()) return;
  CGX_CHECK(!nodes_.empty());
  sink_ = kInput;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].consumers.empty()) continue;
    CGX_CHECK(sink_ == kInput)
        << "graph must have exactly one sink (node with no consumers); "
           "nodes "
        << sink_ << " and " << i << " both have none";
    sink_ = i;
  }
  CGX_CHECK(sink_ != kInput) << "graph has no sink";
  input_consumers_.clear();
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    for (NodeId in : nodes_[i].inputs) {
      if (in == kInput) input_consumers_.push_back(i);
    }
  }
  CGX_CHECK(!input_consumers_.empty()) << "no node consumes the graph input";
  finalized_nodes_ = nodes_.size();
}

const tensor::Tensor& Graph::forward_input(Node& n) {
  const auto resolve = [&](NodeId id) -> const tensor::Tensor& {
    return id == kInput ? *x_ : *nodes_[id].out;
  };
  if (n.inputs.size() == 1) return resolve(n.inputs[0]);
  // Fan-in join: the node sees the SUM of its inputs, accumulated in
  // declaration order into a buffer held across steps.
  n.sum_in.copy_from(resolve(n.inputs[0]));
  for (std::size_t i = 1; i < n.inputs.size(); ++i) {
    const tensor::Tensor& t = resolve(n.inputs[i]);
    CGX_CHECK_EQ(t.numel(), n.sum_in.numel())
        << "fan-in inputs must agree in size";
    tensor::add_inplace(n.sum_in.data(), t.data());
  }
  return n.sum_in;
}

const tensor::Tensor& Graph::forward(const tensor::Tensor& x, bool train) {
  ensure_finalized();
  x_ = &x;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    Node& n = nodes_[i];
    n.out = &n.module->forward(forward_input(n), train);
  }
  return *nodes_[sink_].out;
}

const tensor::Tensor& Graph::consumer_grad(NodeId i) {
  Node& n = nodes_[i];
  if (n.consumers.size() == 1) return *nodes_[n.consumers[0]].d_in;
  // Fixed ascending-consumer-order accumulation: the determinism contract.
  // Every consumer's op is a dependency of this node's op, so all d_in
  // values are final here no matter how the pool interleaved them.
  n.sum_grad.copy_from(*nodes_[n.consumers[0]].d_in);
  for (std::size_t c = 1; c < n.consumers.size(); ++c) {
    const tensor::Tensor& g = *nodes_[n.consumers[c]].d_in;
    CGX_CHECK_EQ(g.numel(), n.sum_grad.numel())
        << "consumer gradients must agree in size";
    tensor::add_inplace(n.sum_grad.data(), g.data());
  }
  return n.sum_grad;
}

void Graph::node_backward(NodeId i) {
  Node& n = nodes_[i];
  const tensor::Tensor& g = i == sink_ ? *grad_out_ : consumer_grad(i);
  // The gradient-ready hook fires inside, once the node's parameter
  // gradients are final, so streaming consumers (AsyncGradientEngine
  // hooks) ship them while other branches still run.
  n.d_in = &n.module->backward_notify(g);
}

void Graph::input_grad_backward() {
  if (input_consumers_.size() == 1) {
    input_grad_ = nodes_[input_consumers_[0]].d_in;
    return;
  }
  input_grad_sum_.copy_from(*nodes_[input_consumers_[0]].d_in);
  for (std::size_t c = 1; c < input_consumers_.size(); ++c) {
    const tensor::Tensor& g = *nodes_[input_consumers_[c]].d_in;
    CGX_CHECK_EQ(g.numel(), input_grad_sum_.numel());
    tensor::add_inplace(input_grad_sum_.data(), g.data());
  }
  input_grad_ = &input_grad_sum_;
}

void Graph::record_backward() {
  // One op per node, reading the consumers' gradient variables and writing
  // the node's own — the RAW edges the DepEngine derives are exactly the
  // transposed forward DAG. Ops are pushed in reverse node order so every
  // read's writer already exists; op ids are therefore stable across
  // replays (determinism contract).
  dag_.clear();
  node_grad_var_.resize(nodes_.size());
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    node_grad_var_[i] = dag_.new_var();
  }
  const core::DepEngine::VarId input_var = dag_.new_var();
  std::vector<core::DepEngine::VarId> reads;
  for (NodeId i = nodes_.size(); i-- > 0;) {
    reads.clear();
    for (NodeId c : nodes_[i].consumers) reads.push_back(node_grad_var_[c]);
    const core::DepEngine::VarId write = node_grad_var_[i];
    dag_.push([this, i] { node_backward(i); }, reads,
              std::span<const core::DepEngine::VarId>(&write, 1));
  }
  reads.clear();
  for (NodeId c : input_consumers_) reads.push_back(node_grad_var_[c]);
  dag_.push([this] { input_grad_backward(); }, reads,
            std::span<const core::DepEngine::VarId>(&input_var, 1));
  recorded_nodes_ = nodes_.size();
}

const tensor::Tensor& Graph::backward(const tensor::Tensor& grad_out) {
  ensure_finalized();
  grad_out_ = &grad_out;
  // Re-recorded lazily if nodes were added since. The serial schedule runs
  // the ops in push order, i.e. reverse insertion order: consumers have
  // larger ids by construction, so every op is ready at its turn.
  if (recorded_nodes_ != nodes_.size()) record_backward();
  dag_.run();
  return *input_grad_;
}

void Graph::collect_params(const std::string& prefix,
                           std::vector<Param*>& out) {
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].module->frozen()) continue;
    nodes_[i].module->collect_params(
        prefix + std::to_string(i) + "." + nodes_[i].module->kind() + ".",
        out);
  }
}

const tensor::Tensor& Graph::grad_input() const {
  CGX_CHECK(input_grad_ != nullptr) << "backward has not run";
  return *input_grad_;
}

}  // namespace cgx::nn
