// Compute-kernel microbenchmarks: in-process A/B of the SIMD dispatch
// levels (scalar vs SSE2 vs AVX2) for the tiled GEMM, the A·Bᵀ dot tile,
// the im2col convolution, ReLU backward, the Adam update, a whole
// single-thread VGG-mini training step, the quantizers, and the fused
// error-feedback sweep.
//
// Writes results/BENCH_compute.json: a provenance block (commit, host,
// nproc, SIMD level, build type) and one row per (kernel, level) with
// throughput and speedup_vs_scalar, so the perf acceptance gate (matmul
// 2048^2 >= 3x, 4-bit quantize >= 2x on AVX2 hardware) reads machine
// numbers instead of eyeballs. `--smoke` shrinks the problem sizes for the
// CI smoke lane; `--no_json` skips the file for interactive runs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench/common.h"
#include "core/error_feedback.h"
#include "core/qsgd.h"
#include "models/small_models.h"
#include "nn/conv.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/threadpool.h"

namespace {

using namespace cgx;
namespace simd = util::simd;

std::vector<float> make_input(std::size_t n, std::uint64_t seed = 1) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.next_gaussian());
  return v;
}

// Rate of fn(): `units` of work per call (GB, GFLOP, ... in the unit the
// row reports), measured over ~0.3 s of calls after one warm-up call.
// `setup` runs before every call, outside the timed region, to restore
// inputs that fn consumes.
template <typename Fn, typename Setup>
double measure_rate(double units, Fn&& fn, Setup&& setup) {
  using clock = std::chrono::steady_clock;
  auto seconds = [](auto d) {
    return std::chrono::duration<double>(d).count();
  };
  setup();
  fn();
  std::size_t iters = 0;
  double timed = 0.0;
  const auto start = clock::now();
  do {
    setup();
    const auto t0 = clock::now();
    fn();
    timed += seconds(clock::now() - t0);
    ++iters;
  } while (seconds(clock::now() - start) < 0.3);
  return units * static_cast<double>(iters) / timed;
}

std::vector<simd::Level> levels_to_run() {
  std::vector<simd::Level> out;
  for (int l = 0; l <= static_cast<int>(simd::max_supported_level()); ++l) {
    out.push_back(static_cast<simd::Level>(l));
  }
  return out;
}

struct Row {
  std::string kernel;
  const char* level;
  const char* unit;
  double rate;
  double speedup;
};

// Runs fn at every reachable dispatch level and appends one row per level
// with the speedup relative to the scalar (level 0) measurement. `setup`
// is measure_rate's untimed per-call input restore.
template <typename Fn, typename Setup = void (*)()>
void sweep_levels(std::vector<Row>& rows, const std::string& kernel,
                  const char* unit, double units, Fn&& fn,
                  Setup&& setup = [] {}) {
  const simd::Level prev = simd::active_level();
  double scalar_rate = 0.0;
  for (simd::Level l : levels_to_run()) {
    simd::set_level(l);
    const double rate = measure_rate(units, fn, setup);
    if (l == simd::Level::kScalar) scalar_rate = rate;
    rows.push_back({kernel, simd::level_name(l), unit, rate,
                    scalar_rate > 0 ? rate / scalar_rate : 0.0});
    std::printf("%-24s %-6s %10.3f %s (%.2fx vs scalar)\n", kernel.c_str(),
                simd::level_name(l), rate, unit, rows.back().speedup);
  }
  simd::set_level(prev);
}

void run_suite(bool smoke, bool json) {
  std::vector<Row> rows;

  // ---- tiled GEMM (single-threaded: isolates the kernel, not the pool) --
  const std::size_t dim = smoke ? 256 : 2048;
  {
    const auto a = make_input(dim * dim, 2);
    const auto b = make_input(dim * dim, 3);
    std::vector<float> c(dim * dim);
    const double gflop = 2.0 * dim * dim * dim / 1e9;
    sweep_levels(rows, "matmul_" + std::to_string(dim), "GFLOP/s", gflop,
                 [&] {
                   tensor::matmul(a, b, c, dim, dim, dim);
                   benchmark::DoNotOptimize(c.data());
                 });
  }

  // ---- A·Bᵀ dot tile on the VGG-mini conv2 dW shape (single-threaded):
  // go_n[16 x 32*32] * col[16*3*3 x 32*32]^T ----
  {
    const std::size_t m = 16, n = smoke ? 256 : 1024, k = 144;
    const auto a = make_input(m * n, 11);
    const auto b = make_input(k * n, 12);
    std::vector<float> c(m * k);
    sweep_levels(rows, "matmul_a_bt_conv_dw", "GFLOP/s",
                 2.0 * m * n * k / 1e9,
                 [&] {
                   tensor::matmul_a_bt(a, b, c, m, n, k);
                   benchmark::DoNotOptimize(c.data());
                 });
    // The same product as one reduce_dot per output at each level: the
    // loop the tile replaced, so each level's tile has its own baseline.
    sweep_levels(rows, "matmul_a_bt_conv_dw_per_output", "GFLOP/s",
                 2.0 * m * n * k / 1e9, [&] {
                   for (std::size_t i = 0; i < m; ++i) {
                     for (std::size_t j = 0; j < k; ++j) {
                       c[i * k + j] = static_cast<float>(simd::reduce_dot(
                           std::span<const float>(a).subspan(i * n, n),
                           std::span<const float>(b).subspan(j * n, n)));
                     }
                   }
                   benchmark::DoNotOptimize(c.data());
                 });
  }

  // ---- conv2d forward + backward (im2col + GEMM path) ----
  {
    const std::size_t bsz = smoke ? 1 : 4, ch = 16, hw = smoke ? 16 : 32,
                      oc = 32, k = 3;
    tensor::Tensor x(tensor::Shape{bsz, ch, hw, hw});
    {
      util::Rng rng(4);
      for (auto& v : x.data()) v = static_cast<float>(rng.next_gaussian());
    }
    util::Rng wrng(5);
    nn::Conv2d conv(ch, oc, k, 1, 1, wrng);
    const tensor::Tensor& out0 = conv.forward(x, true);
    tensor::Tensor go(out0.shape());
    {
      util::Rng rng(6);
      for (auto& v : go.data()) v = static_cast<float>(rng.next_gaussian());
    }
    const double fwd_gflop =
        2.0 * bsz * oc * hw * hw * ch * k * k / 1e9;  // stride 1, same pad
    sweep_levels(rows, "conv_fwd", "GFLOP/s", fwd_gflop, [&] {
      benchmark::DoNotOptimize(conv.forward(x, true).data().data());
    });
    sweep_levels(rows, "conv_bwd", "GFLOP/s", 2.0 * fwd_gflop, [&] {
      benchmark::DoNotOptimize(conv.backward(go).data().data());
    });
  }

  // ---- ReLU backward on VGG-mini's first activation, [8, 16, 32, 32],
  // half the inputs negative: the branch-free select the layer runs, and
  // the conditional store it replaced (which mispredicts on about half
  // the elements). Neither goes through the dispatch table, so every
  // level should measure the same. ----
  {
    const std::size_t n = smoke ? (1 << 14) : 8 * 16 * 32 * 32;
    tensor::Tensor x(tensor::Shape{n});
    tensor::Tensor go(tensor::Shape{n});
    {
      util::Rng rng(15);
      for (auto& v : x.data()) v = static_cast<float>(rng.next_gaussian());
      for (auto& v : go.data()) v = static_cast<float>(rng.next_gaussian());
    }
    nn::ReLU relu;
    relu.forward(x, true);
    sweep_levels(rows, "relu_backward", "Gelem/s", n / 1e9, [&] {
      benchmark::DoNotOptimize(relu.backward(go).data().data());
    });
    std::vector<float> gi(n);
    sweep_levels(rows, "relu_backward_branch", "Gelem/s", n / 1e9, [&] {
      const auto xs = x.data();
      std::copy(go.data().begin(), go.data().end(), gi.begin());
      // A conditional store: the compiler may not invent the stores a
      // select would need, so this stays a compare-and-jump.
      for (std::size_t i = 0; i < n; ++i) {
        if (xs[i] <= 0.0f) gi[i] = 0.0f;
      }
      benchmark::DoNotOptimize(gi.data());
    });
  }

  // ---- one single-thread VGG-mini training step (batch 8, 32x32x3):
  // forward, softmax cross-entropy, backward, SGD with momentum — the
  // cnn_sync workload's compute without the allreduce ----
  {
    const std::size_t bsz = smoke ? 2 : 8;
    util::Rng rng(16);
    auto model = models::make_vgg_mini(3, 32, 10, rng);
    nn::Sgd sgd(nn::parameters(*model), nn::constant_lr(0.02), 0.9);
    tensor::Tensor x(tensor::Shape{bsz, 3, 32, 32});
    for (auto& v : x.data()) v = static_cast<float>(rng.next_gaussian());
    std::vector<int> targets(bsz);
    for (int& t : targets) t = static_cast<int>(rng.next_below(10));
    tensor::Tensor grad;
    sweep_levels(rows, "vgg_mini_step", "steps/s", 1.0, [&] {
      const tensor::Tensor& out = model->forward(x, true);
      nn::softmax_xent(out, targets, 10, grad);
      model->backward(grad);
      sgd.step();
    });
  }

  // ---- raw quantize kernels (pre-drawn uniforms; the simd layer itself,
  // with the scalar RNG and norm passes of the full pipeline excluded) ----
  const std::size_t numel = smoke ? (1 << 16) : (1 << 20);
  const auto grad = make_input(numel, 7);
  {
    std::vector<float> u(numel);
    util::Rng rng(10);
    rng.fill_floats(u);
    const float inv_norm =
        1.0f / simd::reduce_max_abs(grad);
    std::vector<std::uint32_t> sym(numel);
    for (unsigned bits : {2u, 4u, 8u}) {
      if (smoke && bits != 4) continue;
      const std::uint32_t sign_bit = 1u << (bits - 1);
      sweep_levels(rows, "qsgd_kernel_" + std::to_string(bits) + "bit",
                   "GB/s", numel * 4 / 1e9, [&] {
                     simd::qsgd_quantize(grad.data(), u.data(), numel,
                                         inv_norm, sign_bit - 1, sign_bit,
                                         sym.data());
                     benchmark::DoNotOptimize(sym.data());
                   });
    }
    if (!smoke) {
      sweep_levels(rows, "nuq_kernel_4bit", "GB/s", numel * 4 / 1e9, [&] {
                     simd::nuq_quantize(grad.data(), u.data(), numel,
                                        inv_norm, 4, sym.data());
                     benchmark::DoNotOptimize(sym.data());
                   });
    }
  }

  // ---- Adam update kernel over one flat parameter: the per-parameter
  // pass of nn::Adam::step, which also zeroes the gradient it reads. Each
  // call gets a fresh gradient, restored outside the timed region ----
  {
    auto w = make_input(numel, 13);
    const auto g0 = make_input(numel, 14);
    std::vector<float> g(numel), m(numel, 0.0f), v(numel, 0.0f);
    simd::AdamCoeffs c;
    c.weight_decay = 0.0f;
    c.beta1 = 0.9f;
    c.one_minus_beta1 = static_cast<float>(1.0 - 0.9);
    c.beta2 = 0.999f;
    c.one_minus_beta2 = static_cast<float>(1.0 - 0.999);
    c.bias1 = 1.0 - 0.9;
    c.bias2 = 1.0 - 0.999;
    c.lr = 1e-3;
    c.eps = 1e-8;
    sweep_levels(
        rows, "adam_update", "Gelem/s", numel / 1e9,
        [&] {
          simd::adam_update(c, w, g, m, v);
          benchmark::DoNotOptimize(w.data());
        },
        [&] { std::copy(g0.begin(), g0.end(), g.begin()); });
  }

  // ---- quantizers (full compress pipeline incl. RNG, norms, pack) ----
  for (unsigned bits : {2u, 4u, 8u}) {
    if (smoke && bits != 4) continue;
    core::QsgdCompressor compressor(bits, 512);
    std::vector<std::byte> payload(compressor.compressed_size(numel));
    std::vector<float> decoded(numel);
    util::Rng rng(8);
    sweep_levels(rows, "qsgd_quantize_" + std::to_string(bits) + "bit",
                 "GB/s", numel * 4 / 1e9, [&] {
                   benchmark::DoNotOptimize(
                       compressor.compress(grad, payload, rng));
                 });
    const std::size_t written = compressor.compress(grad, payload, rng);
    sweep_levels(rows, "qsgd_dequantize_" + std::to_string(bits) + "bit",
                 "GB/s", numel * 4 / 1e9, [&] {
                   compressor.decompress({payload.data(), written}, decoded);
                   benchmark::DoNotOptimize(decoded.data());
                 });
  }

  // ---- fused error-feedback sweep (decay+accumulate, residual update) ----
  {
    core::ErrorFeedback ef(std::make_unique<core::QsgdCompressor>(4, 512),
                           0.9f);
    std::vector<std::byte> payload(ef.compressed_size(numel));
    util::Rng rng(9);
    sweep_levels(rows, "error_feedback_step", "GB/s", numel * 4 / 1e9, [&] {
                   benchmark::DoNotOptimize(
                       ef.compress(grad, payload, rng));
                 });
  }

  if (!json) return;
  std::ofstream out(bench::results_path("BENCH_compute.json"));
  out << "{\"provenance\": " << bench::provenance_json()
      << ",\n \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  {\"kernel\": \"%s\", \"level\": \"%s\", "
                  "\"unit\": \"%s\", \"rate\": %.3f, "
                  "\"speedup_vs_scalar\": %.3f}%s",
                  rows[i].kernel.c_str(), rows[i].level, rows[i].unit,
                  rows[i].rate, rows[i].speedup,
                  i + 1 < rows.size() ? "," : "");
    out << line << "\n";
  }
  out << "]}\n";
  std::printf("wrote results/BENCH_compute.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool json = true;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--no_json") json = false;
    if (arg == "--smoke") smoke = true;
  }
  run_suite(smoke, json);
  return 0;
}
