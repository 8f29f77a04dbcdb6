// Memory-subsystem microbench: the memcpy roofline the collectives are
// measured against, plus the copy-engine kernels that move collective bytes.
//
// Emits results/BENCH_memory.json with, per size:
//  * memcpy_gbps        — std::memcpy, the machine roofline for that size;
//  * copy_gbps          — util::simd::copy_bytes (the counting memcpy);
//  * copy_add_gbps      — util::simd::copy_add (the fused-receive reduce);
// and one trailer object with the copy-engine counters (bytes routed
// through the dispatcher during the run) and the arena/NUMA configuration,
// so a regression in dispatch coverage is visible as counters that stop
// tracking the measured traffic. The rows sit under a provenance block
// (bench/common.h): {"provenance": {...}, "rows": [...]}.
//
// Sizes run from 64 KiB to 64 MiB. GB/s counts bytes READ + bytes WRITTEN
// (2x for copies, 3x for copy_add: two loads and a store per element), the
// convention memory benches use so numbers compare against STREAM.
//
// --smoke: one small size, few reps — run_checks.sh wiring proof only.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/common.h"
#include "util/arena.h"
#include "util/numa.h"
#include "util/simd.h"

namespace {

using clock_type = std::chrono::steady_clock;

struct Row {
  std::size_t bytes = 0;
  double memcpy_gbps = 0.0;
  double copy_gbps = 0.0;
  double copy_add_gbps = 0.0;
};

// Times `fn` (which moves `moved_bytes` per call) over enough repetitions
// to fill ~80ms, returns GB/s. One untimed call warms the buffers.
template <class Fn>
double measure_gbps(std::size_t moved_bytes, int min_reps, Fn&& fn) {
  fn();
  int reps = min_reps;
  double elapsed = 0.0;
  for (;;) {
    const auto t0 = clock_type::now();
    for (int i = 0; i < reps; ++i) fn();
    elapsed = std::chrono::duration<double>(clock_type::now() - t0).count();
    if (elapsed >= 0.08 || reps >= 1 << 20) break;
    reps *= 4;
  }
  return static_cast<double>(moved_bytes) * reps / elapsed / 1e9;
}

Row measure_size(std::size_t n, int min_reps) {
  Row row;
  row.bytes = n;
  const std::size_t nfloat = n / sizeof(float);
  // Arena-backed buffers: the bench measures the same storage the
  // collectives use (64-byte aligned, first-touched on this thread).
  cgx::util::Arena arena(std::max<std::size_t>(n * 4, 1u << 20));
  std::span<float> src = arena.make_span<float>(nfloat);
  std::span<float> dst = arena.make_span<float>(nfloat);
  cgx::util::numa::first_touch(std::as_writable_bytes(src));
  cgx::util::numa::first_touch(std::as_writable_bytes(dst));
  for (std::size_t i = 0; i < nfloat; ++i) src[i] = static_cast<float>(i & 7);

  row.memcpy_gbps = measure_gbps(2 * n, min_reps, [&] {
    std::memcpy(dst.data(), src.data(), n);
  });
  row.copy_gbps = measure_gbps(2 * n, min_reps, [&] {
    cgx::util::simd::copy_bytes(dst.data(), src.data(), n);
  });
  row.copy_add_gbps = measure_gbps(3 * n, min_reps, [&] {
    cgx::util::simd::copy_add(dst, src);
  });
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") smoke = true;
  }

  std::vector<std::size_t> sizes = {64u << 10, 256u << 10, 1u << 20,
                                    4u << 20, 16u << 20, 64u << 20};
  int min_reps = 4;
  if (smoke) {
    sizes = {256u << 10};
    min_reps = 2;
  }

  cgx::util::simd::reset_copy_engine_stats();
  std::vector<Row> rows;
  rows.reserve(sizes.size());
  std::printf("%s\n", cgx::util::numa::topology_summary().c_str());
  std::printf("simd level: %s\n",
              cgx::util::simd::level_name(cgx::util::simd::active_level()));
  std::printf("%10s  %12s  %12s  %12s\n", "bytes", "memcpy GB/s",
              "copy GB/s", "copy_add GB/s");
  for (std::size_t n : sizes) {
    const Row row = measure_size(n, min_reps);
    std::printf("%10zu  %12.2f  %12.2f  %12.2f\n", row.bytes,
                row.memcpy_gbps, row.copy_gbps, row.copy_add_gbps);
    rows.push_back(row);
  }

  // Per-NUMA-node bandwidth: pin to each node in turn and measure one
  // representative size there (local bandwidth; cross-node traffic is the
  // delta between nodes). Degenerates to one unpinned row on single-node
  // machines or under CGX_NUMA=off.
  struct NodeRow {
    int node = -1;
    bool pinned = false;
    double memcpy_gbps = 0.0;
  };
  std::vector<NodeRow> node_rows;
  const std::size_t node_probe = smoke ? (256u << 10) : (4u << 20);
  for (int node = 0; node < cgx::util::numa::node_count(); ++node) {
    NodeRow row;
    row.node = node;
    row.pinned = cgx::util::numa::pin_current_thread_to_node(node);
    row.memcpy_gbps = measure_size(node_probe, min_reps).memcpy_gbps;
    std::printf("node %d%s  memcpy %.2f GB/s @ %zu bytes\n", node,
                row.pinned ? "" : " (unpinned)", row.memcpy_gbps,
                node_probe);
    node_rows.push_back(row);
  }

  const cgx::util::simd::CopyStats stats =
      cgx::util::simd::copy_engine_stats();

  std::ofstream out(cgx::bench::results_path("BENCH_memory.json"));
  out << "{\"provenance\": " << cgx::bench::provenance_json()
      << ",\n \"rows\": [\n";
  for (const Row& row : rows) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  {\"bytes\": %zu, \"memcpy_gbps\": %.2f, "
                  "\"copy_gbps\": %.2f, \"copy_add_gbps\": %.2f},\n",
                  row.bytes, row.memcpy_gbps, row.copy_gbps,
                  row.copy_add_gbps);
    out << line;
  }
  for (const NodeRow& row : node_rows) {
    char line[192];
    std::snprintf(line, sizeof(line),
                  "  {\"node\": %d, \"pinned\": %s, \"bytes\": %zu, "
                  "\"memcpy_gbps\": %.2f},\n",
                  row.node, row.pinned ? "true" : "false", node_probe,
                  row.memcpy_gbps);
    out << line;
  }
  char trailer[512];
  std::snprintf(
      trailer, sizeof(trailer),
      "  {\"simd_level\": \"%s\", "
      "\"numa_nodes\": %d, \"numa_enabled\": %s, "
      "\"huge_pages\": %s, "
      "\"engine_copied_bytes\": %llu, \"engine_copy_add_bytes\": %llu, "
      "\"engine_calls\": %llu}\n",
      cgx::util::simd::level_name(cgx::util::simd::active_level()),
      cgx::util::numa::node_count(),
      cgx::util::numa::enabled() ? "true" : "false",
      cgx::util::Arena::huge_pages_enabled() ? "true" : "false",
      static_cast<unsigned long long>(stats.copied_bytes),
      static_cast<unsigned long long>(stats.copy_add_bytes),
      static_cast<unsigned long long>(stats.calls));
  out << trailer << "]}\n";
  std::printf("wrote results/BENCH_memory.json\n");
  return 0;
}
