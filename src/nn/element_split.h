// Elementwise passes over many tensors, split over the calling thread's
// executor.
//
// The optimizers and scatter_grads touch every element of every parameter
// once, independently. When the calling thread is bound to an executor
// (util::thread_executor — an AsyncGradientEngine binds its rank's executor
// to the training thread in begin_step) and there are at least two pieces
// of work, the concatenated element range is cut into fixed kPiece-element
// items that the executor's threads claim. Each element is still handled
// once by the same per-element code, so the result does not depend on the
// split, the thread count or which thread ran which item.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>

#include "util/threadpool.h"

namespace cgx::nn::detail {

// Elements per executor item: Adam streams four floats per element, so an
// item moves 512 KiB, far above the cost of claiming it.
constexpr std::size_t kPiece = std::size_t{1} << 15;

// Calls fn(range, begin, end) over elements [begin, end) of every range in
// [0, count), where range i spans [offset(i), offset(i + 1)) of the
// concatenation (offset(count) is the total). Without a split each range is
// one call with [0, size).
template <typename OffsetFn, typename Fn>
void for_each_element_range(std::size_t count, const OffsetFn& offset,
                            const Fn& fn) {
  const std::size_t total = offset(count);
  std::shared_ptr<util::ThreadPool> executor;
  if (total >= 2 * kPiece) executor = util::thread_executor();
  if (executor == nullptr) {
    for (std::size_t i = 0; i < count; ++i) {
      fn(i, std::size_t{0}, offset(i + 1) - offset(i));
    }
    return;
  }
  executor->parallel_for((total + kPiece - 1) / kPiece, [&](std::size_t p) {
    const std::size_t lo = p * kPiece;
    const std::size_t hi = std::min(total, lo + kPiece);
    // The first range ending past lo, then every range starting before hi.
    std::size_t first = 0, last = count;
    while (first < last) {
      const std::size_t mid = first + (last - first) / 2;
      if (offset(mid + 1) <= lo) {
        first = mid + 1;
      } else {
        last = mid;
      }
    }
    for (std::size_t i = first; i < count && offset(i) < hi; ++i) {
      const std::size_t base = offset(i);
      const std::size_t b = std::max(lo, base) - base;
      const std::size_t e = std::min(hi, offset(i + 1)) - base;
      if (b < e) fn(i, b, e);
    }
  });
}

}  // namespace cgx::nn::detail
