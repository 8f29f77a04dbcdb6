#include "tensor/tensor.h"

#include <algorithm>
#include <sstream>

namespace cgx::tensor {

std::size_t shape_numel(const Shape& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return shape.empty() ? 0 : n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) out << ", ";
    out << shape[i];
  }
  out << "]";
  return out.str();
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  data_.assign(shape_numel(shape_), 0.0f);
}

Tensor::Tensor(Shape shape, float fill) : shape_(std::move(shape)) {
  data_.assign(shape_numel(shape_), fill);
}

Tensor Tensor::clone() const {
  Tensor copy;
  copy.copy_from(*this);
  return copy;
}

void Tensor::reset(std::span<const std::size_t> dims,
                   std::initializer_list<std::size_t> more) {
  // reset(shape()) and reset(first dims of shape(), {...}) pass a prefix of
  // shape_ itself; it is already in place.
  if (dims.data() == shape_.data()) {
    shape_.resize(dims.size());
  } else {
    shape_.assign(dims.begin(), dims.end());
  }
  shape_.insert(shape_.end(), more);
  // clear() first so growth does not copy the stale contents over.
  data_.clear();
  data_.resize(shape_numel(shape_));
}

void Tensor::copy_from(const Tensor& src) {
  if (this == &src) return;
  reset(src.shape_);
  std::copy(src.data_.begin(), src.data_.end(), data_.begin());
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Tensor::reshape(Shape new_shape) {
  CGX_CHECK_EQ(shape_numel(new_shape), data_.size());
  shape_ = std::move(new_shape);
}

void Tensor::fill_uniform(util::Rng& rng, float lo, float hi) {
  CGX_CHECK_LE(lo, hi);
  for (auto& v : data_) v = lo + (hi - lo) * rng.next_float();
}

void Tensor::fill_gaussian(util::Rng& rng, float mean, float stddev) {
  for (auto& v : data_) {
    v = mean + stddev * static_cast<float>(rng.next_gaussian());
  }
}

}  // namespace cgx::tensor
