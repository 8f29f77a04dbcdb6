// Dense float tensors.
//
// The library needs exactly what a gradient-communication framework touches:
// contiguous float storage with a shape, cheap views (std::span), and flat
// indexing. We deliberately do NOT build strided views, broadcasting, or
// expression templates — layers in src/nn operate on contiguous buffers and
// the communication stack only ever sees flat spans.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "util/arena.h"
#include "util/check.h"
#include "util/rng.h"

namespace cgx::tensor {

using Shape = std::vector<std::size_t>;

std::size_t shape_numel(const Shape& shape);
std::string shape_to_string(const Shape& shape);

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape);
  Tensor(Shape shape, float fill);

  // Value semantics; copies are explicit via clone() to avoid accidental
  // deep copies of multi-MB gradient buffers in hot paths.
  Tensor(const Tensor&) = delete;
  Tensor& operator=(const Tensor&) = delete;
  Tensor(Tensor&&) = default;
  Tensor& operator=(Tensor&&) = default;

  Tensor clone() const;

  // ---- Grow-only reuse ----
  // A tensor held across steps (a layer's output or gradient buffer) is
  // re-shaped in place: storage and the shape vector only ever grow, so
  // once both reached their high-water size these calls allocate nothing.
  // The dims arrive as a span or a braced list rather than a Shape,
  // because building a Shape (a std::vector) is itself a heap allocation.
  //
  // reset: shape = dims ++ more; element values are unspecified (stale), so
  // the caller must overwrite every element. reset_zero: the same, then
  // zero-filled — for kernels that accumulate into the buffer.
  void reset(std::span<const std::size_t> dims,
             std::initializer_list<std::size_t> more = {});
  void reset(std::initializer_list<std::size_t> dims) {
    reset(std::span<const std::size_t>(dims.begin(), dims.size()));
  }
  void reset_zero(std::span<const std::size_t> dims,
                  std::initializer_list<std::size_t> more = {}) {
    reset(dims, more);
    zero();
  }
  void reset_zero(std::initializer_list<std::size_t> dims) {
    reset(dims);
    zero();
  }
  // Takes src's shape and values into the held storage.
  void copy_from(const Tensor& src);

  const Shape& shape() const { return shape_; }
  std::size_t numel() const { return data_.size(); }
  std::size_t dim(std::size_t i) const {
    CGX_DCHECK(i < shape_.size());
    return shape_[i];
  }
  std::size_t rank() const { return shape_.size(); }

  std::span<float> data() { return data_.span(); }
  std::span<const float> data() const { return data_.span(); }

  float& at(std::size_t i) {
    CGX_DCHECK(i < data_.size());
    return data_[i];
  }
  float at(std::size_t i) const {
    CGX_DCHECK(i < data_.size());
    return data_[i];
  }

  // Row-major 2D access; tensor must be rank 2.
  float& at(std::size_t r, std::size_t c) {
    CGX_DCHECK(shape_.size() == 2);
    CGX_DCHECK(r < shape_[0] && c < shape_[1]);
    return data_[r * shape_[1] + c];
  }
  float at(std::size_t r, std::size_t c) const {
    CGX_DCHECK(shape_.size() == 2);
    CGX_DCHECK(r < shape_[0] && c < shape_[1]);
    return data_[r * shape_[1] + c];
  }

  void fill(float v);
  void zero() { fill(0.0f); }

  // Reinterprets the element layout under a new shape with equal numel.
  void reshape(Shape new_shape);

  // Element init helpers used by nn layers.
  void fill_uniform(util::Rng& rng, float lo, float hi);
  void fill_gaussian(util::Rng& rng, float mean, float stddev);

 private:
  Shape shape_;
  // Arena-aware storage: a tensor built on a thread with a bound ScopedArena
  // (a rank's engine thread) carves 64-byte-aligned, NUMA-local memory from
  // that rank's arena; elsewhere it falls back to an aligned heap block.
  util::ArenaBuffer<float> data_;
};

}  // namespace cgx::tensor
