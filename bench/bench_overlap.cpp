// Measured overlap win of the streaming engine (ISSUE 4 tentpole bench).
//
// Sweeps fusion-bucket size x world size over the REAL AsyncGradientEngine
// (ShmTransport, comm threads, 4-bit SRA) with sleep-modelled backward
// compute shaped like BERT-base's calibrated profile at a 1:1 compute:comm
// ratio — the paper's 8-GPU consumer-box regime. For each point it times
// the synchronous comparator (identical collectives, run inline at bucket
// submission) against the overlapped mode and reports the step-throughput
// speedup plus the StepReport phase breakdown.
//
// Writes results/BENCH_overlap.json. Target: >= 1.3x at world 8 with the
// default 256 KiB buckets. `--smoke` runs one tiny configuration (used by
// tools/run_checks.sh bench-smoke).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/overlap_common.h"
#include "util/table.h"

using namespace cgx;

namespace {

struct SweepPoint {
  int world;
  std::size_t bucket_kib;
  bench::OverlapRunResult r;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const models::PaperModel model = models::bert_base();
  const simgpu::GpuKind gpu = simgpu::GpuKind::RTX3090;

  std::vector<std::pair<int, std::size_t>> grid;  // (world, bucket KiB)
  if (smoke) {
    grid = {{2, 256}};
  } else {
    for (int world : {2, 4, 8}) grid.push_back({world, 256});
    for (std::size_t kib : {std::size_t{64}, std::size_t{1024},
                            std::size_t{4096}}) {
      grid.push_back({8, kib});
    }
  }

  util::Table table("Streamed overlap vs synchronous (" + model.name +
                    " profile, 4-bit SRA, measured)");
  table.set_header({"world", "bucket", "subs", "sync ms", "overlap ms",
                    "speedup", "hidden comm"});

  std::vector<SweepPoint> points;
  for (const auto& [world, kib] : grid) {
    bench::OverlapRunConfig cfg;
    cfg.world = world;
    cfg.bucket_bytes = kib << 10;
    if (smoke) {
      cfg.param_scale = 512.0;
      cfg.calib_steps = 2;
      cfg.timed_steps = 2;
    }
    const bench::OverlapRunResult r = bench::measure_overlap(model, gpu, cfg);
    points.push_back({world, kib, r});
    table.add_row({std::to_string(world), std::to_string(kib) + " KiB",
                   std::to_string(r.buckets),
                   util::Table::num(1e3 * r.step_s_sync, 2),
                   util::Table::num(1e3 * r.step_s_overlap, 2),
                   util::Table::num(r.speedup(), 2) + "x",
                   util::Table::num(r.hidden_pct(), 0) + "%"});
  }
  table.print();

  std::ofstream out(bench::results_path("BENCH_overlap.json"));
  out << "[\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "  {\"model\": \"%s\", \"world\": %d, \"bucket_kib\": %zu, "
        "\"submissions\": %zu, \"step_ms_sync\": %.3f, "
        "\"step_ms_overlap\": %.3f, \"speedup\": %.3f, "
        "\"compute_ms\": %.3f, \"compress_ms\": %.3f, \"comm_ms\": %.3f, "
        "\"exposed_comm_ms\": %.3f, \"hidden_pct\": %.1f}%s",
        model.name.c_str(), p.world, p.bucket_kib, p.r.buckets,
        1e3 * p.r.step_s_sync, 1e3 * p.r.step_s_overlap, p.r.speedup(),
        1e3 * p.r.compute_s, 1e3 * p.r.compress_s, 1e3 * p.r.comm_s,
        1e3 * p.r.exposed_s, p.r.hidden_pct(),
        i + 1 < points.size() ? ",\n" : "\n");
    out << line;
  }
  out << "]\n";
  std::printf("wrote results/BENCH_overlap.json\n");

  if (!smoke) {
    for (const auto& p : points) {
      if (p.world == 8 && p.bucket_kib == 256) {
        std::printf("world 8 / 256 KiB buckets: %.2fx (target >= 1.30x) %s\n",
                    p.r.speedup(),
                    p.r.speedup() >= 1.3 ? "PASS" : "MISS");
      }
    }
  }
  return 0;
}
