// Sequential container and parameter/layout utilities.
#pragma once

#include <memory>

#include "nn/module.h"
#include "tensor/layer_layout.h"

namespace cgx::nn {

class Sequential final : public Module {
 public:
  Sequential() = default;

  // Takes ownership; returns *this for chaining.
  Sequential& add(std::unique_ptr<Module> module);

  template <typename M, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<M>(std::forward<Args>(args)...));
  }

  const tensor::Tensor& forward(const tensor::Tensor& x, bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_out) override;
  void collect_params(const std::string& prefix,
                      std::vector<Param*>& out) override;
  std::string kind() const override { return "sequential"; }

  std::size_t size() const { return modules_.size(); }
  Module& module(std::size_t i) { return *modules_.at(i); }

 private:
  std::vector<std::unique_ptr<Module>> modules_;
};

// All parameters of a model, in gradient-layout order (model order: the
// order collect_params visits them, which matches definition order).
std::vector<Param*> parameters(Module& model);

// LayerLayout over a parameter list — the registration step of the paper's
// Listing 1 (`register_model([(name, numel) ...])`).
tensor::LayerLayout build_layout(const std::vector<Param*>& params);

// Fused-gradient plumbing between Params and the engine's flat buffer.
void gather_grads(const std::vector<Param*>& params,
                  const tensor::LayerLayout& layout, std::span<float> fused);
void scatter_grads(std::span<const float> fused,
                   const tensor::LayerLayout& layout,
                   const std::vector<Param*>& params);

// Copies parameter VALUES between replicas so every worker starts
// identical (broadcast-from-rank-0 in real frameworks).
void copy_param_values(const std::vector<Param*>& src,
                       const std::vector<Param*>& dst);

}  // namespace cgx::nn
