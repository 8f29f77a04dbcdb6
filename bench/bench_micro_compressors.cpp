// Microbenchmarks: compression/decompression throughput of every operator
// (Appendix A context: quantization must run at line rate — well above the
// interconnect bandwidth it is saving).
//
// Besides the google-benchmark suite, the custom main() below measures the
// QSGD fused path directly and writes results/BENCH_compressors.json —
// {"provenance": {...}, "rows": [...]}, the provenance block from
// bench/common.h — so the perf acceptance gate has machine-readable
// numbers tied to the machine and build that produced them.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "bench/common.h"
#include "core/compression_config.h"
#include "core/qsgd.h"
#include "util/bitio.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace {

using namespace cgx;

std::vector<float> make_input(std::size_t n) {
  util::Rng rng(1);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.next_gaussian());
  return v;
}

void run_compress(benchmark::State& state, core::Compressor& compressor) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = make_input(n);
  std::vector<std::byte> payload(compressor.compressed_size(n));
  util::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compressor.compress(input, payload, rng));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 4);
}

void run_decompress(benchmark::State& state, core::Compressor& compressor) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = make_input(n);
  std::vector<std::byte> payload(compressor.compressed_size(n));
  util::Rng rng(2);
  const std::size_t written = compressor.compress(input, payload, rng);
  std::vector<float> out(n);
  for (auto _ : state) {
    compressor.decompress({payload.data(), written}, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 4);
}

core::LayerCompression config_for(core::Method method) {
  core::LayerCompression cfg;
  cfg.method = method;
  cfg.rank = 4;
  cfg.topk_ratio = 0.01;
  cfg.fake_ratio = 8.0;
  return cfg;
}

void BM_Compress(benchmark::State& state) {
  const auto method = static_cast<core::Method>(state.range(1));
  auto compressor = core::make_compressor(config_for(method), 256);
  state.SetLabel(core::method_name(method));
  run_compress(state, *compressor);
}

void BM_Decompress(benchmark::State& state) {
  const auto method = static_cast<core::Method>(state.range(1));
  auto compressor = core::make_compressor(config_for(method), 256);
  state.SetLabel(core::method_name(method));
  run_decompress(state, *compressor);
}

void BM_QsgdBitsSweep(benchmark::State& state) {
  core::QsgdCompressor compressor(
      static_cast<unsigned>(state.range(1)), 128);
  run_compress(state, compressor);
}

void BM_QsgdThreaded(benchmark::State& state) {
  static util::ThreadPool pool;  // shared across iterations of the sweep
  core::QsgdCompressor compressor(static_cast<unsigned>(state.range(1)),
                                  512);
  compressor.enable_threading(&pool, /*min_numel=*/1);
  run_compress(state, compressor);
}

// Raw bit-packing throughput (bytes = symbol array size, i.e. 4n).
void BM_PackSymbols(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto bits = static_cast<unsigned>(state.range(1));
  util::Rng rng(3);
  std::vector<std::uint32_t> symbols(n);
  for (auto& s : symbols) {
    s = static_cast<std::uint32_t>(rng.next_below(1ull << bits));
  }
  std::vector<std::byte> packed(util::packed_size_bytes(n, bits));
  for (auto _ : state) {
    util::pack_symbols(symbols, bits, packed);
    benchmark::DoNotOptimize(packed.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 4);
}

void BM_UnpackSymbols(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto bits = static_cast<unsigned>(state.range(1));
  util::Rng rng(3);
  std::vector<std::uint32_t> symbols(n);
  for (auto& s : symbols) {
    s = static_cast<std::uint32_t>(rng.next_below(1ull << bits));
  }
  std::vector<std::byte> packed(util::packed_size_bytes(n, bits));
  util::pack_symbols(symbols, bits, packed);
  for (auto _ : state) {
    util::unpack_symbols(packed, bits, symbols);
    benchmark::DoNotOptimize(symbols.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 4);
}

// ---------------------------------------------------------------- JSON gate

// Wall-clock GB/s of fn() processing `bytes` per call (~0.3 s per point).
template <typename Fn>
double measure_gbps(std::size_t bytes, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warm up caches and workspace
  std::size_t iters = 0;
  const auto start = clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < 0.3);
  return static_cast<double>(bytes) * static_cast<double>(iters) /
         elapsed / 1e9;
}

void write_compressor_json(bool smoke) {
  const std::size_t kNumel = smoke ? (1 << 18) : (1 << 20);
  constexpr std::size_t kBucket = 512;
  const auto input = make_input(kNumel);
  util::ThreadPool pool;

  std::ofstream out(bench::results_path("BENCH_compressors.json"));
  out << "{\"provenance\": " << bench::provenance_json()
      << ",\n \"rows\": [\n";
  bool first = true;
  // On a single-core box the pool collapses to one worker; skip the
  // would-be duplicate threads=1 row.
  std::vector<std::size_t> thread_counts = {1};
  if (pool.size() > 1) thread_counts.push_back(pool.size());
  std::vector<unsigned> bit_grid = {2u, 4u, 8u};
  if (smoke) bit_grid = {4u};  // one tiny config for bench-smoke
  for (unsigned bits : bit_grid) {
    for (std::size_t threads : thread_counts) {
      core::QsgdCompressor compressor(bits, kBucket);
      if (threads > 1) compressor.enable_threading(&pool, 1);
      std::vector<std::byte> payload(compressor.compressed_size(kNumel));
      util::Rng rng(2);
      const double compress_gbps = measure_gbps(kNumel * 4, [&] {
        benchmark::DoNotOptimize(compressor.compress(input, payload, rng));
      });
      std::vector<float> decoded(kNumel);
      const double decompress_gbps = measure_gbps(kNumel * 4, [&] {
        compressor.decompress(payload, decoded);
        benchmark::DoNotOptimize(decoded.data());
      });
      if (!first) out << ",\n";
      first = false;
      char line[256];
      std::snprintf(line, sizeof(line),
                    "  {\"method\": \"qsgd\", \"bits\": %u, "
                    "\"bucket_size\": %zu, \"threads\": %zu, "
                    "\"compress_gbps\": %.3f, \"decompress_gbps\": %.3f}",
                    bits, kBucket, threads, compress_gbps, decompress_gbps);
      out << line;
      std::printf("qsgd bits=%u threads=%zu compress %.3f GB/s "
                  "decompress %.3f GB/s\n",
                  bits, threads, compress_gbps, decompress_gbps);
    }
  }
  out << "\n]}\n";
  std::printf("wrote results/BENCH_compressors.json\n");
}

}  // namespace

BENCHMARK(BM_Compress)
    ->ArgsProduct({{1 << 16, 1 << 20},
                   {static_cast<long>(cgx::core::Method::Qsgd),
                    static_cast<long>(cgx::core::Method::Nuq),
                    static_cast<long>(cgx::core::Method::TernGrad),
                    static_cast<long>(cgx::core::Method::OneBit),
                    static_cast<long>(cgx::core::Method::TopK),
                    static_cast<long>(cgx::core::Method::PowerSgd),
                    static_cast<long>(cgx::core::Method::Fp16),
                    static_cast<long>(cgx::core::Method::Fake)}});

BENCHMARK(BM_Decompress)
    ->ArgsProduct({{1 << 20},
                   {static_cast<long>(cgx::core::Method::Qsgd),
                    static_cast<long>(cgx::core::Method::Nuq),
                    static_cast<long>(cgx::core::Method::TernGrad),
                    static_cast<long>(cgx::core::Method::TopK),
                    static_cast<long>(cgx::core::Method::PowerSgd)}});

BENCHMARK(BM_QsgdBitsSweep)
    ->ArgsProduct({{1 << 20}, {2, 3, 4, 6, 8}});

BENCHMARK(BM_QsgdThreaded)
    ->ArgsProduct({{1 << 20}, {2, 4, 8}});

BENCHMARK(BM_PackSymbols)
    ->ArgsProduct({{1 << 20}, {2, 3, 4, 8, 16}});

BENCHMARK(BM_UnpackSymbols)
    ->ArgsProduct({{1 << 20}, {2, 3, 4, 8, 16}});

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
  if (json) write_compressor_json(smoke);
  return 0;
}
