// Optimizer steps split over the calling thread's executor (nn/optim.h,
// nn/element_split.h): bit-identical to the serial step at every SIMD
// level, with or without a helper, and serial again once the engine that
// bound the executor is gone. In the tsan-labelled test_concurrency binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "comm/transports.h"
#include "comm/world.h"
#include "core/async_engine.h"
#include "nn/optim.h"
#include "simd_levels.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/threadpool.h"

namespace cgx::nn {
namespace {

// Sizes that cross the 32 Ki-element pieces inside and across params,
// including an empty param and one that ends exactly on a piece.
const std::vector<std::size_t> kSizes = {70001, 3, 0, 32768 - 3, 100000, 5};

struct Replica {
  std::vector<std::unique_ptr<Param>> owned;
  std::vector<Param*> params;
};

Replica make_replica(std::uint64_t seed) {
  Replica r;
  util::Rng rng(seed);
  for (std::size_t i = 0; i < kSizes.size(); ++i) {
    r.owned.push_back(std::make_unique<Param>(
        "p" + std::to_string(i), tensor::Shape{kSizes[i]}));
    for (float& v : r.owned.back()->value.data()) {
      v = static_cast<float>(rng.next_gaussian());
    }
    r.params.push_back(r.owned.back().get());
  }
  return r;
}

void fill_grads(Replica& r, std::uint64_t seed) {
  util::Rng rng(seed);
  for (Param* p : r.params) {
    for (float& g : p->grad.data()) g = static_cast<float>(rng.next_gaussian());
  }
}

bool same_bits(std::span<const float> x, std::span<const float> y) {
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size_bytes()) == 0);
}

bool same_bits(const Replica& a, const Replica& b) {
  for (std::size_t i = 0; i < a.params.size(); ++i) {
    if (!same_bits(a.params[i]->value.data(), b.params[i]->value.data()) ||
        !same_bits(a.params[i]->grad.data(), b.params[i]->grad.data())) {
      return false;
    }
  }
  return true;
}

using Factory = std::unique_ptr<Optimizer> (*)(std::vector<Param*>);

std::unique_ptr<Optimizer> adam(std::vector<Param*> p) {
  return std::make_unique<Adam>(std::move(p), constant_lr(1e-3), 0.9, 0.999,
                                1e-8, 0.01);
}
std::unique_ptr<Optimizer> sgd_momentum(std::vector<Param*> p) {
  return std::make_unique<Sgd>(std::move(p), constant_lr(0.05), 0.9, 1e-4);
}
std::unique_ptr<Optimizer> sgd_plain(std::vector<Param*> p) {
  return std::make_unique<Sgd>(std::move(p), constant_lr(0.05));
}

// Three steps on `r`, with grads refilled from fixed seeds each step.
void train(Replica& r, Optimizer& opt) {
  for (int step = 0; step < 3; ++step) {
    fill_grads(r, 500 + static_cast<std::uint64_t>(step));
    opt.step();
  }
}

TEST(OptimizerSplit, HelpedExecutorMatchesSerialAtEveryLevel) {
  for (Factory make : {&adam, &sgd_momentum, &sgd_plain}) {
    for (util::simd::Level lvl : test::simd_levels()) {
      test::ScopedLevel pin(lvl);
      util::bind_thread_executor({});
      Replica serial = make_replica(11);
      train(serial, *make(serial.params));

      for (std::size_t helpers : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
        auto executor = std::make_shared<util::ThreadPool>(
            util::ThreadPool::CallerRuns{helpers + 1});
        std::atomic<bool> stop{false};
        std::vector<std::thread> threads;
        for (std::size_t h = 0; h < helpers; ++h) {
          threads.emplace_back([&] {
            while (!stop.load(std::memory_order_acquire)) {
              const std::uint32_t seen = executor->doorbell();
              if (stop.load(std::memory_order_acquire)) break;
              if (!executor->help()) executor->wait_doorbell(seen);
            }
          });
        }
        util::bind_thread_executor(executor);
        Replica split = make_replica(11);
        train(split, *make(split.params));
        stop.store(true, std::memory_order_release);
        executor->ring();
        for (auto& t : threads) t.join();
        util::bind_thread_executor({});
        EXPECT_TRUE(same_bits(serial, split))
            << "level " << util::simd::level_name(lvl) << ", " << helpers
            << " helpers";
      }
    }
  }
}

TEST(OptimizerSplit, StepAfterTheBindingEngineIsDestroyedRunsSerially) {
  constexpr int kWorld = 2;
  tensor::LayerLayout layout;
  layout.add_layer("big.weight", tensor::Shape{256, 640});
  layout.add_layer("big.bias", tensor::Shape{640});
  auto engine = std::make_unique<core::AsyncGradientEngine>(
      std::make_unique<core::CgxEngine>(
          layout, core::CompressionConfig::cgx_default(), kWorld));

  std::vector<std::uint8_t> matched(kWorld, 0);
  std::vector<std::uint8_t> unbound(kWorld, 0);
  comm::ShmTransport transport(kWorld);
  comm::run_world(transport, [&](comm::Comm& comm) {
    const int rank = comm.rank();
    util::Rng rng(31 + static_cast<std::uint64_t>(rank));
    std::vector<float> grad(layout.total_numel(), 0.5f);
    engine->begin_step(comm, grad, rng);  // binds the rank's executor here
    for (std::size_t l = layout.layer_count(); l-- > 0;) {
      engine->notify_layer_ready(rank, l);
    }
    engine->wait_all(rank);
    comm.barrier();
    if (rank == 0) engine.reset();  // comm threads joined, executors gone
    comm.barrier();
    unbound[static_cast<std::size_t>(rank)] =
        util::thread_executor() == nullptr ? 1 : 0;
    Replica after = make_replica(17);
    train(after, *adam(after.params));
    util::bind_thread_executor({});
    Replica serial = make_replica(17);
    train(serial, *adam(serial.params));
    matched[static_cast<std::size_t>(rank)] = same_bits(after, serial) ? 1 : 0;
  });
  for (int r = 0; r < kWorld; ++r) {
    EXPECT_EQ(unbound[static_cast<std::size_t>(r)], 1) << "rank " << r;
    EXPECT_EQ(matched[static_cast<std::size_t>(r)], 1) << "rank " << r;
  }
}

}  // namespace
}  // namespace cgx::nn
