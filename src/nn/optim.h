// Optimizers and learning-rate schedules.
//
// Training-recipe faithfulness matters for the accuracy experiments: the
// paper's Goal 2 is recovering accuracy under STANDARD (uncompressed)
// hyper-parameters, so the optimizers implement exactly the textbook
// updates frameworks use. Gradient clipping is global-norm based and must
// see the fully synchronized gradient (Technical Issue 3) — the trainer
// applies it after the engine's allreduce.
//
// Both updates are elementwise, so a step may split its elements over the
// executor bound to the calling thread (util::thread_executor; an
// AsyncGradientEngine binds its rank's executor in begin_step, so the idle
// comm thread takes part of the step). Every element is updated once by the
// same kernel whatever the split, so the result is bit-identical to the
// serial step; without a live binding, or for small models, the step runs
// serially on the caller.
#pragma once

#include <functional>
#include <vector>

#include "nn/module.h"

namespace cgx::nn {

// step -> learning rate.
using LrSchedule = std::function<double(std::size_t)>;

LrSchedule constant_lr(double lr);
LrSchedule cosine_lr(double peak, std::size_t warmup_steps,
                     std::size_t total_steps, double floor = 0.0);
LrSchedule step_decay_lr(double lr, std::size_t every, double factor);

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  // Applies one update from the params' current gradients, then zeroes
  // them.
  virtual void step() = 0;
  // True when the update depends on state carried across steps (moments,
  // velocity), which a replica must receive to rejoin in lockstep.
  virtual bool stateful() const = 0;
  std::size_t steps_taken() const { return steps_; }

 protected:
  std::size_t steps_ = 0;
};

class Sgd final : public Optimizer {
 public:
  Sgd(std::vector<Param*> params, LrSchedule lr, double momentum = 0.0,
      double weight_decay = 0.0);
  void step() override;
  bool stateful() const override { return momentum_ != 0.0; }

 private:
  std::vector<Param*> params_;
  LrSchedule lr_;
  double momentum_;
  double weight_decay_;
  std::vector<std::vector<float>> velocity_;
  std::vector<std::size_t> offsets_;  // element prefix sums, params + 1
};

class Adam final : public Optimizer {
 public:
  Adam(std::vector<Param*> params, LrSchedule lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8, double weight_decay = 0.0);
  void step() override;
  bool stateful() const override { return true; }

 private:
  std::vector<Param*> params_;
  LrSchedule lr_;
  double beta1_, beta2_, eps_, weight_decay_;
  std::vector<std::vector<float>> m_, v_;
  std::vector<std::size_t> offsets_;  // element prefix sums, params + 1
};

// Scales all gradients so the GLOBAL norm is at most max_norm; returns the
// pre-clip norm. Must run on the synchronized gradient (Technical Issue 3).
double clip_global_norm(const std::vector<Param*>& params, double max_norm);

}  // namespace cgx::nn
