#include "nn/sequential.h"

#include "nn/element_split.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace cgx::nn {

Sequential& Sequential::add(std::unique_ptr<Module> module) {
  CGX_CHECK(module != nullptr);
  modules_.push_back(std::move(module));
  return *this;
}

const tensor::Tensor& Sequential::forward(const tensor::Tensor& x,
                                          bool train) {
  CGX_CHECK(!modules_.empty());
  const tensor::Tensor* cur = &x;
  for (auto& m : modules_) cur = &m->forward(*cur, train);
  return *cur;
}

const tensor::Tensor& Sequential::backward(const tensor::Tensor& grad_out) {
  CGX_CHECK(!modules_.empty());
  const tensor::Tensor* cur = &grad_out;
  for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) {
    cur = &(*it)->backward_notify(*cur);
  }
  return *cur;
}

void Sequential::collect_params(const std::string& prefix,
                                std::vector<Param*>& out) {
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    if (modules_[i]->frozen()) continue;
    modules_[i]->collect_params(
        prefix + std::to_string(i) + "." + modules_[i]->kind() + ".", out);
  }
}

std::vector<Param*> parameters(Module& model) {
  std::vector<Param*> params;
  model.collect_params("", params);
  return params;
}

tensor::LayerLayout build_layout(const std::vector<Param*>& params) {
  tensor::LayerLayout layout;
  for (const Param* p : params) {
    layout.add_layer(p->name, p->value.shape());
  }
  return layout;
}

void gather_grads(const std::vector<Param*>& params,
                  const tensor::LayerLayout& layout, std::span<float> fused) {
  CGX_CHECK_EQ(params.size(), layout.layer_count());
  CGX_CHECK_EQ(fused.size(), layout.total_numel());
  for (std::size_t i = 0; i < params.size(); ++i) {
    tensor::copy(params[i]->grad.data(), layout.slice(fused, i));
  }
}

void scatter_grads(std::span<const float> fused,
                   const tensor::LayerLayout& layout,
                   const std::vector<Param*>& params) {
  CGX_CHECK_EQ(params.size(), layout.layer_count());
  const auto offset = [&](std::size_t i) {
    return i < params.size() ? layout.layer(i).offset : layout.total_numel();
  };
  const auto copy = [&](std::size_t i, std::size_t begin, std::size_t end) {
    tensor::copy(layout.slice(fused, i).subspan(begin, end - begin),
                 params[i]->grad.data().subspan(begin, end - begin));
  };
  detail::for_each_element_range(params.size(), offset, copy);
}

void copy_param_values(const std::vector<Param*>& src,
                       const std::vector<Param*>& dst) {
  CGX_CHECK_EQ(src.size(), dst.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    CGX_CHECK_EQ(src[i]->value.numel(), dst[i]->value.numel());
    tensor::copy(src[i]->value.data(), dst[i]->value.data());
  }
}

}  // namespace cgx::nn
