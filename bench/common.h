// Shared plumbing for the table/figure-regenerating benches.
//
// Each bench binary regenerates one of the paper's tables or figures: it
// prints the same rows/series the paper reports and, for figures, dumps the
// series as CSV under results/ (results_path below). Absolute numbers
// come from the calibrated performance model (DESIGN.md §1); what must
// match the paper is the SHAPE — who wins, by what factor, where the
// crossovers sit.
#pragma once

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>

#include "comm/transports.h"
#include "core/engine.h"
#include "core/frontend.h"
#include "models/paper_profiles.h"
#include "simgpu/machines.h"
#include "util/csv.h"
#include "util/simd.h"
#include "util/table.h"

namespace cgx::bench {

// Where every bench writes an output file: results/<name> under the
// working directory, created if missing. Run the benches from the
// repository root and they regenerate the committed results/ files.
inline std::string results_path(std::string_view name) {
  std::filesystem::create_directories("results");
  return "results/" + std::string(name);
}

// The working directory's commit, suffixed "-dirty" when the tree has
// uncommitted changes, or "unknown" outside a checkout.
inline std::string git_commit() {
  std::string out;
  if (FILE* p = popen("git describe --always --dirty --abbrev=40 2>/dev/null",
                      "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), p) != nullptr) out += buf;
    pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

// The build type comes from bench/CMakeLists.txt; the examples and tools
// that include this header write no results files.
#ifndef CGX_BENCH_BUILD_TYPE
#define CGX_BENCH_BUILD_TYPE "unknown"
#endif

// The CPU's "model name" from /proc/cpuinfo, or "unknown". Quotes and
// backslashes are dropped so the name can sit in a JSON string.
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    std::string name = line.substr(line.find(':') + 1);
    std::erase_if(name, [](char c) { return c == '"' || c == '\\'; });
    name.erase(0, name.find_first_not_of(' '));
    return name;
  }
  return "unknown";
}

// CPU 0's unified cache of `level` in KiB, from sysfs; 0 when unknown.
inline long cache_kib(int level) {
  for (int i = 0;; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream level_file(dir + "level");
    if (!level_file) return 0;
    int l = 0;
    std::string type;
    std::ifstream(dir + "type") >> type;
    if (!(level_file >> l) || l != level || type == "Instruction") continue;
    long size = 0;
    char unit = 'K';
    std::ifstream(dir + "size") >> size >> unit;
    return unit == 'M' ? size * 1024 : size;
  }
}

// Where a results/BENCH_*.json's numbers came from — commit, host, CPU
// model and L2/L3 sizes, core count, best SIMD level, build type, compiler
// — as one JSON object, so a change of machine or build cannot pass for a
// speed-up (two VMs can share a host name and a core count).
inline std::string provenance_json() {
  char host[256] = {};
  gethostname(host, sizeof(host) - 1);
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"git_commit\": \"%s\", \"host\": \"%s\", "
                "\"cpu_model\": \"%s\", \"l2_kib\": %ld, \"l3_kib\": %ld, "
                "\"nproc\": %ld, \"simd\": \"%s\", "
                "\"build_type\": \"%s\", \"compiler\": \"%s\"}",
                git_commit().c_str(), host, cpu_model().c_str(), cache_kib(2),
                cache_kib(3), sysconf(_SC_NPROCESSORS_ONLN),
                util::simd::level_name(util::simd::max_supported_level()),
                CGX_BENCH_BUILD_TYPE, __VERSION__);
  return buf;
}

enum class EngineKind { Baseline, Qnccl, Cgx, Ideal };

inline const char* engine_kind_name(EngineKind k) {
  switch (k) {
    case EngineKind::Baseline:
      return "NCCL";
    case EngineKind::Qnccl:
      return "QNCCL";
    case EngineKind::Cgx:
      return "CGX";
    case EngineKind::Ideal:
      return "ideal";
  }
  return "?";
}

inline std::unique_ptr<core::GradientEngine> make_engine(
    EngineKind kind, const models::PaperModel& model, int world) {
  switch (kind) {
    case EngineKind::Baseline:
      return std::make_unique<core::BaselineEngine>(model.layout, world,
                                                    model.fp16_wire);
    case EngineKind::Qnccl:
      return std::make_unique<core::QncclEngine>(model.layout, 4, 128,
                                                 world);
    case EngineKind::Cgx: {
      core::CompressionConfig config = core::CompressionConfig::cgx_default();
      // §6.2: bucket 1024 for CNNs, 128 for Transformers.
      if (model.name == "ResNet50" || model.name == "VGG16") {
        core::LayerCompression cfg = config.default_compression();
        cfg.bucket_size = 1024;
        config.set_default(cfg);
      }
      return std::make_unique<core::CgxEngine>(model.layout, config, world);
    }
    case EngineKind::Ideal:
      return nullptr;  // handled by callers (linear scaling)
  }
  return nullptr;
}

// Backend profile a given engine kind rides on: the baselines use NCCL,
// CGX uses its SHM backend (§6.2 chose SHM for all performance runs).
inline comm::TransportProfile profile_for(EngineKind kind, int world) {
  if (kind == EngineKind::Cgx) return comm::ShmTransport(world).profile();
  return comm::NcclTransport(world).profile();
}

// Simulated throughput of (model, machine, engine kind); Ideal = linear
// scaling of the single-GPU rate.
inline double throughput_of(const models::PaperModel& model,
                            const simgpu::Machine& machine, EngineKind kind,
                            bool fp32 = false) {
  const int world = machine.topology.num_devices();
  if (kind == EngineKind::Ideal || world == 1) {
    return world * model.single_gpu_items_per_s(machine.gpu, fp32);
  }
  auto engine = make_engine(kind, model, world);
  return models::simulated_throughput(model, machine, *engine,
                                      profile_for(kind, world), fp32);
}

}  // namespace cgx::bench
