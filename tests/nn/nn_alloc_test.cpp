// Zero-steady-state-allocation harness for the nn training step
// (`ctest -L alloc`, own binary: one operator-new override per binary).
//
// After warm-up, a full step — forward, loss, backward and Optimizer::step —
// must make zero heap allocations: every layer writes into buffers it holds
// across steps (tensor::Tensor::reset/copy_from), the loss writes into the
// caller's gradient tensor, and the optimizer updates in place. Unlike the
// engine harnesses, this one also counts the aligned operator new that
// tensor storage comes from, so a layer that rebuilds a tensor every step
// is caught even though its Shape vector might be reused.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "models/small_models.h"
#include "nn/optim.h"
#include "nn/train.h"
#include "util/threadpool.h"

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};

void count() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

void* operator new(std::size_t size) {
  count();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

void* operator new(std::size_t size, std::align_val_t align) {
  count();
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((size ? size : 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace cgx::nn {
namespace {

tensor::Tensor gaussian(tensor::Shape shape, util::Rng& rng) {
  tensor::Tensor x(std::move(shape));
  for (float& v : x.data()) v = static_cast<float>(rng.next_gaussian());
  return x;
}

Batch classification(tensor::Tensor input, std::size_t rows,
                     std::size_t classes, util::Rng& rng) {
  Batch b;
  b.input = std::move(input);
  b.targets.resize(rows);
  for (int& t : b.targets) t = static_cast<int>(rng.next_below(classes));
  return b;
}

// Runs `warmup` steps, then counts allocations over `measured` more. The
// caller-held grad_out and the prebuilt batch are exactly what the
// trainers hold across steps.
std::size_t steady_state_allocs(Module& model, const Batch& batch,
                                std::size_t classes) {
  std::vector<Param*> params = parameters(model);
  Adam adam(params, constant_lr(1e-3));
  const LossFn loss = make_xent_loss(classes);
  tensor::Tensor grad_out;
  const auto step = [&] {
    const tensor::Tensor& out = model.forward(batch.input, /*train=*/true);
    loss(out, batch, grad_out);
    model.backward(grad_out);
    adam.step();
  };
  for (int i = 0; i < 2; ++i) step();
  g_allocs.store(0);
  g_counting.store(true);
  for (int i = 0; i < 3; ++i) step();
  g_counting.store(false);
  return g_allocs.load();
}

TEST(NnStepAlloc, VggMiniStepAllocationFree) {
  util::Rng rng(1);
  auto model = models::make_vgg_mini(3, 32, 10, rng);
  const Batch batch =
      classification(gaussian({8, 3, 32, 32}, rng), 8, 10, rng);
  EXPECT_EQ(steady_state_allocs(*model, batch, 10), 0u);
}

TEST(NnStepAlloc, MlpStepAllocationFree) {
  util::Rng rng(2);
  auto model = models::make_mlp(64, 128, 10, rng);
  const Batch batch = classification(gaussian({8, 64}, rng), 8, 10, rng);
  EXPECT_EQ(steady_state_allocs(*model, batch, 10), 0u);
}

TEST(NnStepAlloc, TinyTransformerLmStepAllocationFree) {
  constexpr std::size_t kVocab = 64, kSeq = 16;
  util::Rng rng(3);
  models::TinyTransformerLM model(kVocab, 32, 4, 2, kSeq, rng);
  tensor::Tensor tokens(tensor::Shape{4, kSeq});
  for (float& v : tokens.data()) v = static_cast<float>(rng.next_below(kVocab));
  const Batch batch = classification(std::move(tokens), 4 * kSeq, kVocab, rng);
  EXPECT_EQ(steady_state_allocs(model, batch, kVocab), 0u);
}

TEST(NnStepAlloc, TwoTowerGraphStepAllocationFree) {
  util::Rng rng(4);
  auto model = models::make_two_tower(48, 64, 6, rng);
  const Batch batch = classification(gaussian({8, 48}, rng), 8, 6, rng);
  EXPECT_EQ(steady_state_allocs(*model, batch, 6), 0u);
}

// With a pool bound to the thread, the Graph's backward replays its
// recorded DepEngine graph as one job on it; the replay, the fan-in join
// and the multi-consumer gradient sums must not allocate either.
TEST(NnStepAlloc, TwoTowerGraphExecutorStepAllocationFree) {
  util::Rng rng(5);
  auto model = models::make_two_tower(48, 64, 6, rng);
  const auto pool = std::make_shared<util::ThreadPool>(2);
  util::bind_thread_executor(pool);
  const Batch batch = classification(gaussian({8, 48}, rng), 8, 6, rng);
  EXPECT_EQ(steady_state_allocs(*model, batch, 6), 0u);
  util::bind_thread_executor({});
}

// The rank executor's shape under a streaming engine: a caller-runs
// executor with one worker of its own (compute_threads = 1), helped by one
// outside thread that reads the doorbell, joins split jobs and parks, as a
// comm thread does. The DAG job (its ready array, published bound and
// doorbell rings) and the GEMM and Adam jobs of the same step must not
// allocate on any of these threads.
TEST(NnStepAlloc, TwoTowerGraphDagJobWithHelperStepAllocationFree) {
  util::Rng rng(7);
  auto model = models::make_two_tower(48, 64, 6, rng);
  const auto executor =
      std::make_shared<util::ThreadPool>(util::ThreadPool::CallerRuns{2});
  executor->add_workers(1);
  std::atomic<bool> stop{false};
  std::thread helper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint32_t seen = executor->doorbell();
      if (stop.load(std::memory_order_acquire)) break;
      if (!executor->help(util::ThreadPool::Jobs::kSplitOnly)) {
        executor->wait_doorbell(seen);
      }
    }
  });
  util::bind_thread_executor(executor);
  // 128 rows: two row blocks per forward GEMM of the towers.
  const Batch batch = classification(gaussian({128, 48}, rng), 128, 6, rng);
  EXPECT_EQ(steady_state_allocs(*model, batch, 6), 0u);
  util::bind_thread_executor({});
  stop.store(true, std::memory_order_release);
  executor->ring();
  helper.join();
}

// With a pool bound to the thread every GEMM of more than one row block
// runs through ThreadPool::parallel_for; its job slot and FunctionRef
// callable must not allocate per call or per item.
TEST(NnStepAlloc, PooledGemmStepAllocationFree) {
  util::Rng rng(6);
  auto model = models::make_mlp(64, 128, 10, rng);
  const auto pool = std::make_shared<util::ThreadPool>(2);
  util::bind_thread_executor(pool);
  // 256 rows: four row blocks per forward GEMM.
  const Batch batch = classification(gaussian({256, 64}, rng), 256, 10, rng);
  EXPECT_EQ(steady_state_allocs(*model, batch, 10), 0u);
  util::bind_thread_executor({});
}

}  // namespace
}  // namespace cgx::nn
