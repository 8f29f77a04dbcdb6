// Flat vector/matrix kernels shared by the nn layers and the compressors.
//
// All functions take std::span so they run on tensor storage, gradient
// buffers inside the communication engine, and raw compressor scratch alike.
#pragma once

#include <cstddef>
#include <span>

namespace cgx::tensor {

// y += alpha * x
void axpy(float alpha, std::span<const float> x, std::span<float> y);
// x *= alpha
void scale(std::span<float> x, float alpha);
// <x, y>
double dot(std::span<const float> x, std::span<const float> y);
// ||x||_2
double l2_norm(std::span<const float> x);
// ||x||_2^2 (avoids the sqrt in hot error-accounting paths)
double squared_norm(std::span<const float> x);
// max_i |x_i|
float linf_norm(std::span<const float> x);
// sum_i x_i
double sum(std::span<const float> x);
// out = a - b (sizes must match)
void sub(std::span<const float> a, std::span<const float> b,
         std::span<float> out);
// accumulate: dst += src
void add_inplace(std::span<float> dst, std::span<const float> src);
// fused double accumulate: dst += a, then dst += b — bit-identical to two
// add_inplace calls, one pass over dst
void add_inplace2(std::span<float> dst, std::span<const float> a,
                  std::span<const float> b);
// elementwise copy
void copy(std::span<const float> src, std::span<float> dst);

// C[m x n] = A[m x k] * B[k x n], row-major. Blocked for cache friendliness;
// this is the workhorse of Linear/Attention layers and PowerSGD iterations.
// The three GEMMs split their row blocks over the calling thread's executor
// (util::thread_executor) when one is bound. Results are bit-identical with
// any executor and with none: each output element's k-accumulation order is
// fixed by the tiling, and row blocks are disjoint.
void matmul(std::span<const float> a, std::span<const float> b,
            std::span<float> c, std::size_t m, std::size_t k, std::size_t n);

// How matmul_at_b and matmul_a_bt write C. kAccumulate adds each output's
// product, formed from +0 in the overwrite form's order and rounded to
// float, into the value already there: c + (float)sum. Per element that is
// exactly "compute into scratch, then add_inplace", without the scratch or
// its two extra passes (the weight-gradient accumulate of Linear/Conv2d).
enum class Store { kOverwrite, kAccumulate };

// C[m x n] = A^T[k x m]^T * B... specifically: C = A^T * B where A is
// [k x m] row-major. Used by Linear backward (grad_w += x^T * grad_y).
// kAccumulate sums each 16-row x kNB block of C over all of k in a
// per-thread stack tile, then adds the tile into C once.
void matmul_at_b(std::span<const float> a, std::span<const float> b,
                 std::span<float> c, std::size_t k, std::size_t m,
                 std::size_t n, Store store = Store::kOverwrite);

// C[m x k] = A[m x n] * B^T where B is [k x n] row-major. Used by Linear
// backward (grad_x = grad_y * w^T when w is [k x n]) and Conv2d's dW.
void matmul_a_bt(std::span<const float> a, std::span<const float> b,
                 std::span<float> c, std::size_t m, std::size_t n,
                 std::size_t k, Store store = Store::kOverwrite);

}  // namespace cgx::tensor
