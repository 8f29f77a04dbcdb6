// Neural-network module interface.
//
// The nn substrate exists so the accuracy-recovery experiments (paper
// Table 3, Fig. 4) run against *real* training: real forward/backward, real
// optimizers, with the CGX engine sitting in the gradient path exactly
// where Horovod/DDP would put it. The design is a classic define-by-layer
// autodiff: each module caches what its backward needs during forward, and
// backward() consumes the output gradient, accumulates parameter gradients,
// and returns the input gradient.
//
// Conventions:
//  * Tensors carry the batch in dim 0. Layers that operate pointwise or
//    per-row (Linear, LayerNorm, activations) treat the input as
//    [numel/features, features].
//  * backward() must be called exactly once after each forward(), with a
//    gradient shaped like the forward output.
//  * Parameter gradients ACCUMULATE; the optimizer zeroes them after each
//    step (this mirrors the framework behaviour compression hooks rely on).
//  * Buffer ownership: forward() and backward() return a reference to a
//    tensor the module owns. It stays valid and unchanged until the
//    module's next forward() or backward() call, and no longer — a caller
//    that needs it later copies it (tensor::Tensor::copy_from). Modules
//    keep these buffers, and everything they cache for backward, across
//    steps: tensor::Tensor::reset/copy_from reshape them in place and their
//    storage only grows, so once warm a step allocates nothing
//    (tests/nn/nn_alloc_test.cpp). A reset buffer holds stale values; only
//    buffers a kernel accumulates into (the col2im and MaxPool scatters,
//    Embedding's all-zero input gradient) are zero-filled, every other one
//    is fully overwritten.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace cgx::nn {

struct Param {
  std::string name;
  tensor::Tensor value;
  tensor::Tensor grad;

  Param(std::string n, tensor::Shape shape)
      : name(std::move(n)), value(shape), grad(std::move(shape)) {}
};

class Module {
 public:
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  Module() = default;

  // Computes the output for `x`. `train` toggles dropout-style behaviour.
  virtual const tensor::Tensor& forward(const tensor::Tensor& x,
                                        bool train) = 0;

  // Consumes dL/d(output), accumulates dL/d(params), returns dL/d(input).
  virtual const tensor::Tensor& backward(const tensor::Tensor& grad_out) = 0;

  // Appends pointers to this module's parameters (stable order). `prefix`
  // namespaces the names, e.g. "block0.attn.".
  virtual void collect_params(const std::string& prefix,
                              std::vector<Param*>& out) {
    (void)prefix;
    (void)out;
  }

  virtual std::string kind() const = 0;

  // ---- Freezing ----
  // A frozen module's parameters drop out of the containers'
  // collect_params (and therefore out of parameters()/build_layout(), so
  // its gradients are neither communicated nor stepped) — the
  // requires_grad=False analogue. Backward still flows THROUGH the module
  // so upstream layers keep training; streaming trainers must also skip
  // installing gradient-ready hooks on frozen children (nn/train.cpp
  // does), or the layout offsets would drift from the parameter list.
  void set_frozen(bool frozen) { frozen_ = frozen; }
  bool frozen() const { return frozen_; }

  // ---- Gradient-ready hook (streaming engines) ----
  // The hook fires once per backward, as soon as the module's parameter
  // gradients are final for the step — before its input gradient, so an
  // overlapped communication engine (core::AsyncGradientEngine) can ship a
  // layer's buckets while the layer itself is still differentiating its
  // input. A parameterised layer calls params_ready() at that point.
  // Containers run each child through backward_notify(), which fires the
  // hook after backward() returns if the child did not fire it itself, so
  // parameterless and composite modules (whose parameter gradients are
  // final only once their last child is done) fire at the end. Sequential
  // walks children in reverse, so hooks observe layers in gradient-
  // production order.
  using GradReadyHook = std::function<void(Module&)>;
  void set_grad_ready_hook(GradReadyHook hook) {
    grad_ready_hook_ = std::move(hook);
  }
  void clear_grad_ready_hook() { grad_ready_hook_ = nullptr; }

  // backward(), then the hook unless the module fired it already: the one
  // place the firing rule lives. Containers call this for their children.
  const tensor::Tensor& backward_notify(const tensor::Tensor& grad_out) {
    fired_ = false;
    const tensor::Tensor& grad_in = backward(grad_out);
    if (!fired_) params_ready();
    return grad_in;
  }

 protected:
  // Called by a layer's backward() once its parameter gradients are final
  // and before it computes its input gradient.
  void params_ready() {
    fired_ = true;
    if (grad_ready_hook_) grad_ready_hook_(*this);
  }

 private:
  GradReadyHook grad_ready_hook_;
  bool frozen_ = false;
  bool fired_ = false;  // params_ready() ran in this backward_notify()
};

// Zeroes all parameter gradients.
void zero_grads(const std::vector<Param*>& params);

// Total parameter count.
std::size_t param_count(const std::vector<Param*>& params);

}  // namespace cgx::nn
