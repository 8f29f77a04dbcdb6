#include "nn/optim.h"

#include <algorithm>
#include <cmath>

#include "nn/element_split.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/simd.h"

namespace cgx::nn {

namespace {

std::vector<std::size_t> element_offsets(const std::vector<Param*>& params) {
  std::vector<std::size_t> offsets(params.size() + 1, 0);
  for (std::size_t i = 0; i < params.size(); ++i) {
    offsets[i + 1] = offsets[i] + params[i]->value.numel();
  }
  return offsets;
}

}  // namespace

LrSchedule constant_lr(double lr) {
  return [lr](std::size_t) { return lr; };
}

LrSchedule cosine_lr(double peak, std::size_t warmup_steps,
                     std::size_t total_steps, double floor) {
  CGX_CHECK_GT(total_steps, warmup_steps);
  return [=](std::size_t step) {
    if (step < warmup_steps) {
      return peak * static_cast<double>(step + 1) /
             static_cast<double>(warmup_steps);
    }
    const double progress =
        static_cast<double>(step - warmup_steps) /
        static_cast<double>(total_steps - warmup_steps);
    const double clamped = std::min(progress, 1.0);
    return floor + (peak - floor) * 0.5 *
                       (1.0 + std::cos(3.14159265358979323846 * clamped));
  };
}

LrSchedule step_decay_lr(double lr, std::size_t every, double factor) {
  CGX_CHECK_GT(every, 0u);
  return [=](std::size_t step) {
    return lr * std::pow(factor, static_cast<double>(step / every));
  };
}

Sgd::Sgd(std::vector<Param*> params, LrSchedule lr, double momentum,
         double weight_decay)
    : params_(std::move(params)),
      lr_(std::move(lr)),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  velocity_.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    velocity_[i].assign(params_[i]->value.numel(), 0.0f);
  }
  offsets_ = element_offsets(params_);
}

// Each gradient element is zeroed in the pass that applies it.
void Sgd::step() {
  const auto lr = static_cast<float>(lr_(steps_));
  const auto wd = static_cast<float>(weight_decay_);
  const auto mu = static_cast<float>(momentum_);
  const bool momentum = momentum_ != 0.0;
  const auto update = [&](std::size_t i, std::size_t begin, std::size_t end) {
    float* value = params_[i]->value.data().data();
    float* grad = params_[i]->grad.data().data();
    float* vel = velocity_[i].data();
    if (momentum) {
      for (std::size_t j = begin; j < end; ++j) {
        vel[j] = mu * vel[j] + (grad[j] + wd * value[j]);
        value[j] -= lr * vel[j];
        grad[j] = 0.0f;
      }
    } else {
      for (std::size_t j = begin; j < end; ++j) {
        value[j] -= lr * (grad[j] + wd * value[j]);
        grad[j] = 0.0f;
      }
    }
  };
  detail::for_each_element_range(
      params_.size(), [&](std::size_t i) { return offsets_[i]; }, update);
  ++steps_;
}

Adam::Adam(std::vector<Param*> params, LrSchedule lr, double beta1,
           double beta2, double eps, double weight_decay)
    : params_(std::move(params)),
      lr_(std::move(lr)),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    m_[i].assign(params_[i]->value.numel(), 0.0f);
    v_[i].assign(params_[i]->value.numel(), 0.0f);
  }
  offsets_ = element_offsets(params_);
}

void Adam::step() {
  const double t = static_cast<double>(steps_ + 1);
  util::simd::AdamCoeffs coeffs;
  coeffs.weight_decay = static_cast<float>(weight_decay_);
  coeffs.beta1 = static_cast<float>(beta1_);
  coeffs.one_minus_beta1 = static_cast<float>(1.0 - beta1_);
  coeffs.beta2 = static_cast<float>(beta2_);
  coeffs.one_minus_beta2 = static_cast<float>(1.0 - beta2_);
  coeffs.bias1 = 1.0 - std::pow(beta1_, t);
  coeffs.bias2 = 1.0 - std::pow(beta2_, t);
  coeffs.lr = lr_(steps_);
  coeffs.eps = eps_;
  // The kernel zeroes each gradient as it reads it.
  const auto update = [&](std::size_t i, std::size_t begin, std::size_t end) {
    const std::size_t count = end - begin;
    util::simd::adam_update(
        coeffs, params_[i]->value.data().subspan(begin, count),
        params_[i]->grad.data().subspan(begin, count),
        std::span<float>(m_[i]).subspan(begin, count),
        std::span<float>(v_[i]).subspan(begin, count));
  };
  detail::for_each_element_range(
      params_.size(), [&](std::size_t i) { return offsets_[i]; }, update);
  ++steps_;
}

double clip_global_norm(const std::vector<Param*>& params, double max_norm) {
  CGX_CHECK_GT(max_norm, 0.0);
  double sq = 0.0;
  for (const Param* p : params) sq += tensor::squared_norm(p->grad.data());
  const double norm = std::sqrt(sq);
  if (norm > max_norm) {
    const auto scale = static_cast<float>(max_norm / (norm + 1e-12));
    for (Param* p : params) tensor::scale(p->grad.data(), scale);
  }
  return norm;
}

}  // namespace cgx::nn
