// Microbenchmarks: real wall-clock of the in-process collectives across
// backends, schemes, world sizes and payload sizes (these move real bytes
// between device threads; simulated-time benches price them separately).
//
// Besides the google-benchmark suite, the custom main() below sweeps
// backend × scheme × message size at world 8 — including a bench-local
// resurrection of the old deque-of-vectors transport as the baseline — and
// writes results/BENCH_collectives.json with steady-state allocation counts
// alongside throughput, so the ring-transport perf gate has machine-readable
// before/after numbers.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <new>
#include <cstring>
#include <string_view>
#include <tuple>

#include "bench/common.h"
#include "comm/collectives.h"
#include "comm/transports.h"
#include "core/compressed_allreduce.h"
#include "core/compression_config.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

// ------------------------------------------------- steady-state alloc gauge
// Binary-wide gated allocation counter, same harness as the `alloc` label
// test: counts every operator new while the gate is open. GCC cannot see
// that the replaced operator new below is malloc-backed and flags the free
// in delete as mismatched; it is not.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using namespace cgx;

// --------------------------------------------------------- deque baseline
// Faithful re-creation of the pre-ring transport this PR replaced: a global
// std::map of deque-of-vectors channels behind one mutex, one heap-allocated
// vector copy on send and another copy-out on recv, capacity bypassed when
// the queue is empty. Lives only in this bench so the JSON can report an
// honest same-run before/after.
class DequeTransport final : public comm::Transport {
 public:
  explicit DequeTransport(int world_size,
                          std::size_t capacity_bytes = 64ull << 20)
      : Transport(world_size), capacity_(capacity_bytes) {
    profile_.name = "deque-baseline";
    profile_.per_message_overhead_us = 0.3;
    profile_.single_node_only = true;
  }

  void send(int src, int dst, std::span<const std::byte> data,
            int tag) override {
    std::vector<std::byte> staged(data.begin(), data.end());
    Queue& q = channel(src, dst, tag);
    std::unique_lock<std::mutex> lock(q.m);
    q.space_cv.wait(lock, [&] {
      return q.items.empty() || q.bytes + staged.size() <= capacity_;
    });
    q.bytes += staged.size();
    q.items.push_back(std::move(staged));
    q.data_cv.notify_one();
    recorder().record(src, dst, data.size());
  }

  void recv(int dst, int src, std::span<std::byte> data, int tag) override {
    Queue& q = channel(src, dst, tag);
    std::vector<std::byte> msg;
    {
      std::unique_lock<std::mutex> lock(q.m);
      q.data_cv.wait(lock, [&] { return !q.items.empty(); });
      msg = std::move(q.items.front());
      q.items.pop_front();
      q.bytes -= msg.size();
      q.space_cv.notify_all();
    }
    std::copy(msg.begin(), msg.end(), data.begin());
  }

  const comm::TransportProfile& profile() const override { return profile_; }

 private:
  struct Queue {
    std::mutex m;
    std::condition_variable data_cv;
    std::condition_variable space_cv;
    std::deque<std::vector<std::byte>> items;
    std::size_t bytes = 0;
  };

  Queue& channel(int src, int dst, int tag) {
    std::lock_guard<std::mutex> lock(map_mutex_);
    auto& slot = queues_[std::make_tuple(src, dst, tag)];
    if (!slot) slot = std::make_unique<Queue>();
    return *slot;
  }

  const std::size_t capacity_;
  comm::TransportProfile profile_;
  std::mutex map_mutex_;
  std::map<std::tuple<int, int, int>, std::unique_ptr<Queue>> queues_;
};

// ----------------------------------------------- seed-replica collectives
// Verbatim transcriptions of the pre-PR allreduce implementations: each
// chunk crosses as one whole message, contributions are received in fixed
// rank order into scratch and folded immediately. The "deque-baseline"
// sweep rows run these over DequeTransport, so the JSON compares the full
// before (old transport + old collectives) against the full after.

void baseline_allreduce_sra(comm::Comm& comm, std::span<float> data,
                            std::span<float> scratch) {
  constexpr int kScatterTag = 110;
  constexpr int kGatherTag = 111;
  const int n = comm.size();
  const int r = comm.rank();
  if (n == 1 || data.empty()) return;
  for (int p = 0; p < n; ++p) {
    if (p == r) continue;
    const auto [first, last] = comm::chunk_range(data.size(), n, p);
    comm.send_floats(p, data.subspan(first, last - first), kScatterTag);
  }
  const auto [mine_first, mine_last] = comm::chunk_range(data.size(), n, r);
  std::span<float> mine = data.subspan(mine_first, mine_last - mine_first);
  const std::span<float> incoming = scratch.first(mine.size());
  for (int p = 0; p < n; ++p) {
    if (p == r) continue;
    comm.recv_floats(p, incoming, kScatterTag);
    tensor::add_inplace(mine, incoming);
  }
  for (int p = 0; p < n; ++p) {
    if (p == r) continue;
    comm.send_floats(p, mine, kGatherTag);
  }
  for (int p = 0; p < n; ++p) {
    if (p == r) continue;
    const auto [first, last] = comm::chunk_range(data.size(), n, p);
    comm.recv_floats(p, data.subspan(first, last - first), kGatherTag);
  }
}

void baseline_allreduce_ring(comm::Comm& comm, std::span<float> data,
                             std::span<float> scratch) {
  constexpr int kReduceTag = 120;
  constexpr int kGatherTag = 121;
  const int n = comm.size();
  const int r = comm.rank();
  if (n == 1 || data.empty()) return;
  const int right = (r + 1) % n;
  const int left = (r - 1 + n) % n;
  for (int s = 0; s < n - 1; ++s) {
    const int send_idx = (r - s + n) % n;
    const int recv_idx = (r - s - 1 + n) % n;
    const auto [sf, sl] = comm::chunk_range(data.size(), n, send_idx);
    comm.send_floats(right, data.subspan(sf, sl - sf), kReduceTag);
    const auto [rf, rl] = comm::chunk_range(data.size(), n, recv_idx);
    const std::span<float> incoming = scratch.first(rl - rf);
    comm.recv_floats(left, incoming, kReduceTag);
    tensor::add_inplace(data.subspan(rf, rl - rf), incoming);
  }
  for (int s = 0; s < n - 1; ++s) {
    const int send_idx = (r + 1 - s + n) % n;
    const int recv_idx = (r - s + n) % n;
    const auto [sf, sl] = comm::chunk_range(data.size(), n, send_idx);
    comm.send_floats(right, data.subspan(sf, sl - sf), kGatherTag);
    const auto [rf, rl] = comm::chunk_range(data.size(), n, recv_idx);
    comm.recv_floats(left, data.subspan(rf, rl - rf), kGatherTag);
  }
}

// ------------------------------------------------------- gbench suite

void BM_Allreduce(benchmark::State& state) {
  const int world = static_cast<int>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto scheme = static_cast<comm::ReductionScheme>(state.range(2));
  state.SetLabel(comm::reduction_scheme_name(scheme));
  for (auto _ : state) {
    comm::ShmTransport transport(world);
    comm::run_world(transport, [&](comm::Comm& comm) {
      std::vector<float> data(n, static_cast<float>(comm.rank()));
      comm::allreduce(comm, data, scheme);
      benchmark::DoNotOptimize(data.data());
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          world * static_cast<std::int64_t>(n) * 4);
}

void BM_CompressedAllreduce(benchmark::State& state) {
  const int world = static_cast<int>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  core::LayerCompression cfg;  // QSGD 4/128
  std::vector<std::vector<std::unique_ptr<core::Compressor>>> per_rank(
      static_cast<std::size_t>(world));
  for (auto& chunks : per_rank) {
    for (int c = 0; c < world; ++c) {
      chunks.push_back(core::make_compressor(cfg, 0));
    }
  }
  for (auto _ : state) {
    comm::ShmTransport transport(world);
    comm::run_world(transport, [&](comm::Comm& comm) {
      std::vector<float> data(n, static_cast<float>(comm.rank()) * 0.1f);
      util::Rng rng(static_cast<std::uint64_t>(comm.rank()) + 1);
      std::vector<core::Compressor*> chunks;
      for (auto& c : per_rank[static_cast<std::size_t>(comm.rank())]) {
        chunks.push_back(c.get());
      }
      core::compressed_allreduce(
          comm, data, chunks, rng,
          comm::ReductionScheme::ScatterReduceAllgather);
      benchmark::DoNotOptimize(data.data());
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          world * static_cast<std::int64_t>(n) * 4);
}

void BM_P2pTransports(benchmark::State& state) {
  const auto backend = static_cast<comm::Backend>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  state.SetLabel(comm::backend_name(backend));
  std::vector<std::byte> payload(n);
  for (auto _ : state) {
    auto transport = comm::make_transport(backend, 2);
    comm::run_world(*transport, [&](comm::Comm& comm) {
      if (comm.rank() == 0) {
        comm.send(1, payload, 1);
      } else {
        std::vector<std::byte> got(n);
        comm.recv(0, got, 1);
        benchmark::DoNotOptimize(got.data());
      }
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

// ---------------------------------------------------------------- JSON gate

struct SweepPoint {
  double gbps = 0.0;
  std::size_t steady_allocs = 0;
};

// Single-thread memcpy bandwidth at `bytes` (counting bytes read + written),
// cached per size: the memory roofline the allreduce numbers are reported
// against. An in-process world moves every byte through shared memory, so
// "achieved % of roofline" says how much of the copy machine the collective
// schedule actually keeps busy — bench_micro_memory has the full sweep.
double memcpy_roofline_gbps(std::size_t bytes) {
  static std::map<std::size_t, double> cache;
  const auto it = cache.find(bytes);
  if (it != cache.end()) return it->second;
  std::vector<std::byte> src(bytes, std::byte{1});
  std::vector<std::byte> dst(bytes);
  std::memcpy(dst.data(), src.data(), bytes);  // warm
  int reps = 4;
  double elapsed = 0.0;
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) std::memcpy(dst.data(), src.data(), bytes);
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
    if (elapsed >= 0.05 || reps >= 1 << 18) break;
    reps *= 4;
  }
  benchmark::DoNotOptimize(dst.data());
  const double gbps =
      static_cast<double>(2 * bytes) * reps / elapsed / 1e9;
  cache[bytes] = gbps;
  return gbps;
}

// Steady-state allreduce throughput on a persistent transport: threads and
// all rank-local buffers live across iterations (the training-loop shape),
// so the measured window is pure transport + reduction work. The allocation
// gauge counts every heap allocation process-wide during the timed window.
SweepPoint measure_allreduce(comm::Transport& transport, std::size_t numel,
                             comm::ReductionScheme scheme,
                             bool seed_collectives = false) {
  using clock = std::chrono::steady_clock;
  const int world = transport.world_size();
  SweepPoint point;
  clock::time_point t0;
  comm::run_world(transport, [&](comm::Comm& comm) {
    std::vector<float> data(numel, 1.0f / static_cast<float>(comm.rank() + 1));
    std::vector<float> scratch(numel);
    const auto step = [&] {
      if (seed_collectives) {
        if (scheme == comm::ReductionScheme::Ring) {
          baseline_allreduce_ring(comm, data, scratch);
        } else {
          baseline_allreduce_sra(comm, data, scratch);
        }
      } else {
        comm::allreduce(comm, data, scheme, scratch);
      }
    };

    step();
    step();  // warm-up: channels created, ring slabs at final size
    // Calibrate a common iteration count: rank 0 times one iteration and
    // broadcasts the verdict so every rank runs the same loop.
    comm.barrier();
    const auto c0 = clock::now();
    step();
    comm.barrier();
    std::vector<float> iters_f(1);
    if (comm.rank() == 0) {
      const double est =
          std::chrono::duration<double>(clock::now() - c0).count();
      const double target_s = 0.4;
      double it = target_s / std::max(est, 1e-6);
      if (it < 3.0) it = 3.0;
      if (it > 200.0) it = 200.0;
      iters_f[0] = static_cast<float>(static_cast<int>(it));
    }
    comm::broadcast(comm, iters_f, 0);
    const int iters = static_cast<int>(iters_f[0]);

    // Extra warm-up at loop cadence: back-to-back iterations reach deeper
    // in-flight queue depths than the isolated steps above, so let the ring
    // slabs finish any growth before the counted window opens.
    for (int i = 0; i < std::max(2, iters / 5); ++i) step();

    comm.barrier();
    if (comm.rank() == 0) {
      g_allocs.store(0);
      g_count_allocs.store(true);
      t0 = clock::now();
    }
    comm.barrier();
    for (int i = 0; i < iters; ++i) step();
    comm.barrier();
    if (comm.rank() == 0) {
      const double elapsed =
          std::chrono::duration<double>(clock::now() - t0).count();
      g_count_allocs.store(false);
      point.steady_allocs = g_allocs.load();
      point.gbps = static_cast<double>(world) *
                   static_cast<double>(numel) * 4.0 *
                   static_cast<double>(iters) / elapsed / 1e9;
    }
    benchmark::DoNotOptimize(data.data());
  });
  return point;
}

void write_collectives_json(bool smoke) {
  constexpr int kWorld = 8;
  // Smoke mode (tools/run_checks.sh bench-smoke): one tiny configuration,
  // just enough to prove the sweep + JSON writer still run end to end.
  std::vector<std::pair<const char*, comm::ReductionScheme>> kSchemes = {
      {"SRA", comm::ReductionScheme::ScatterReduceAllgather},
      {"Ring", comm::ReductionScheme::Ring},
  };
  std::vector<std::size_t> kNumels = {1u << 16, 1u << 18, 1u << 20};
  std::vector<const char*> kBackends = {"shm", "mpi", "nccl",
                                        "deque-baseline"};
  if (smoke) {
    kSchemes.resize(1);
    kNumels = {1u << 16};
    kBackends = {"shm"};
  }

  std::ofstream out(bench::results_path("BENCH_collectives.json"));
  out << "[\n";
  bool first = true;
  for (const char* backend : kBackends) {
    for (const auto& [scheme_name, scheme] : kSchemes) {
      for (std::size_t numel : kNumels) {
        std::unique_ptr<comm::Transport> transport;
        bool seed_collectives = false;
        if (std::string_view(backend) == "shm") {
          transport = std::make_unique<comm::ShmTransport>(kWorld);
        } else if (std::string_view(backend) == "mpi") {
          transport = std::make_unique<comm::MpiTransport>(kWorld);
        } else if (std::string_view(backend) == "nccl") {
          transport = std::make_unique<comm::NcclTransport>(kWorld);
        } else {
          // The "before" rows: old transport AND old collectives.
          transport = std::make_unique<DequeTransport>(kWorld);
          seed_collectives = true;
        }
        const SweepPoint p =
            measure_allreduce(*transport, numel, scheme, seed_collectives);
        const double roofline = memcpy_roofline_gbps(numel * 4);
        const double roofline_pct =
            roofline > 0.0 ? 100.0 * p.gbps / roofline : 0.0;
        if (!first) out << ",\n";
        first = false;
        char line[320];
        std::snprintf(line, sizeof(line),
                      "  {\"backend\": \"%s\", \"scheme\": \"%s\", "
                      "\"world\": %d, \"numel\": %zu, \"mib\": %.2f, "
                      "\"gbps\": %.3f, \"steady_allocs\": %zu, "
                      "\"roofline_gbps\": %.3f, \"roofline_pct\": %.1f}",
                      backend, scheme_name, kWorld, numel,
                      static_cast<double>(numel) * 4.0 / (1 << 20), p.gbps,
                      p.steady_allocs, roofline, roofline_pct);
        out << line;
        std::printf(
            "%-14s %-4s numel=%-8zu %7.3f GB/s  steady_allocs=%-4zu "
            "%5.1f%% of %.1f GB/s roofline\n",
            backend, scheme_name, numel, p.gbps, p.steady_allocs,
            roofline_pct, roofline);
      }
    }
  }
  out << "\n]\n";
  std::printf("wrote results/BENCH_collectives.json\n");
}

}  // namespace

BENCHMARK(BM_Allreduce)
    ->ArgsProduct(
        {{2, 4, 8},
         {1 << 16, 1 << 20},
         {static_cast<long>(
              cgx::comm::ReductionScheme::ScatterReduceAllgather),
          static_cast<long>(cgx::comm::ReductionScheme::Ring),
          static_cast<long>(cgx::comm::ReductionScheme::Tree)}});

BENCHMARK(BM_CompressedAllreduce)
    ->ArgsProduct({{4, 8}, {1 << 16, 1 << 20}});

BENCHMARK(BM_P2pTransports)
    ->ArgsProduct({{static_cast<long>(cgx::comm::Backend::Shm),
                    static_cast<long>(cgx::comm::Backend::Mpi),
                    static_cast<long>(cgx::comm::Backend::Nccl)},
                   {1 << 20}});

// Custom main: the usual google-benchmark CLI, then the JSON perf gate
// (skipped with --no_json for quick interactive runs).
int main(int argc, char** argv) {
  bool json = true;
  bool smoke = false;
  for (int i = 1; i < argc;) {
    const std::string_view arg(argv[i]);
    if (arg == "--no_json" || arg == "--smoke") {
      if (arg == "--no_json") json = false;
      if (arg == "--smoke") smoke = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
    } else {
      ++i;
    }
  }
  if (!smoke) {  // smoke skips the microbench suite, keeps the JSON gate
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  if (json) write_collectives_json(smoke);
  return 0;
}
