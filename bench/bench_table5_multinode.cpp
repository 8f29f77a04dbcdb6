// Table 5: multi-node training — 4 Genesis nodes x 4 RTX3090 (10 GBps
// intra-node, 5 GBps inter-node), NCCL baseline vs CGX.
//
// Paper claim: with 16 GPUs behind slow NICs the uncompressed baseline
// collapses; CGX recovers up to an order of magnitude of throughput.
//
// Two CGX columns. "CGX (flat)" is the paper's Genesis configuration —
// compressed SRA across all 16 devices — and carries the headline speedup.
// "CGX (two-level)" drives the REAL hierarchical path: a CgxEngine with
// node_of set routes compressed layers through the two-level schedule
// (intra-node fold, leader-level compressed SRA with re-compression,
// broadcast), and its comm_plan prices that schedule on this cluster's
// topology. On Genesis the contended PCIe fabric is WEAKER than the NICs,
// so flat stays ahead and the mode is opt-in; the regime where two-level
// wins (fast intra fabric behind slow NICs) is swept by bench_multinode
// into results/BENCH_multinode.json. Rows go to
// results/table5_multinode.{csv,json}.
#include <filesystem>
#include <fstream>

#include "bench/common.h"

using namespace cgx;
using bench::EngineKind;

namespace {

// The CGX engine exactly as make_engine() builds it, plus the two-level
// placement matching the simulated cluster (4 nodes x 4 devices).
std::unique_ptr<core::CgxEngine> make_hierarchical_cgx(
    const models::PaperModel& model, int nodes, int per_node) {
  core::CompressionConfig config = core::CompressionConfig::cgx_default();
  if (model.name == "ResNet50" || model.name == "VGG16") {
    core::LayerCompression cfg = config.default_compression();
    cfg.bucket_size = 1024;
    config.set_default(cfg);
  }
  core::EngineOptions options;
  for (int r = 0; r < nodes * per_node; ++r) {
    options.node_of.push_back(r / per_node);
  }
  return std::make_unique<core::CgxEngine>(model.layout, config,
                                           nodes * per_node, options);
}

}  // namespace

int main() {
  constexpr int kNodes = 4;
  constexpr int kPerNode = 4;
  const auto cluster = simgpu::make_genesis_cluster(kNodes);
  util::Table table(
      "Table 5 - items/s on 4 nodes x 4x RTX3090 (5 GBps NICs)");
  table.set_header({"model", "Baseline (NCCL)", "CGX (flat)",
                    "CGX (two-level)", "speedup", "% of linear"});
  util::CsvWriter csv(bench::results_path("table5_multinode.csv"),
                      {"model", "engine", "items_per_s"});
  std::ofstream json(bench::results_path("table5_multinode.json"));
  json << "[\n";
  for (const auto& model : models::all_paper_models()) {
    const double base =
        bench::throughput_of(model, cluster, EngineKind::Baseline);
    const double cgx = bench::throughput_of(model, cluster, EngineKind::Cgx);
    const auto hier_engine = make_hierarchical_cgx(model, kNodes, kPerNode);
    const double hier = models::simulated_throughput(
        model, cluster, *hier_engine,
        bench::profile_for(EngineKind::Cgx, kNodes * kPerNode));
    const double ideal =
        kNodes * kPerNode * model.single_gpu_items_per_s(cluster.gpu);
    table.add_row({model.name, util::Table::compact(base),
                   util::Table::compact(cgx), util::Table::compact(hier),
                   util::Table::num(cgx / base, 1) + "x",
                   util::Table::num(100.0 * cgx / ideal, 0) + "%"});
    csv.add_row({model.name, "NCCL", util::Table::num(base, 1)});
    csv.add_row({model.name, "CGX", util::Table::num(cgx, 1)});
    csv.add_row({model.name, "CGX-2level", util::Table::num(hier, 1)});
    char line[448];
    std::snprintf(line, sizeof(line),
                  "  {\"model\": \"%s\", \"nodes\": %d, \"gpus_per_node\": "
                  "%d, \"nccl_items_per_s\": %.1f, \"cgx_items_per_s\": "
                  "%.1f, \"cgx_two_level_items_per_s\": %.1f, "
                  "\"speedup\": %.2f, \"pct_of_linear\": %.1f},\n",
                  model.name.c_str(), kNodes, kPerNode, base, cgx, hier,
                  cgx / base, 100.0 * cgx / ideal);
    json << line;
  }
  json << "  {\"cluster\": \"genesis\", \"nic_gbps\": 40, \"note\": "
          "\"two-level column drives CgxEngine+node_of; on genesis the "
          "PCIe intra fabric is weaker than the NICs so flat SRA leads - "
          "see BENCH_multinode.json for the crossover regime\"}\n]\n";
  table.print();
  std::cout << "\nShape check: CGX speedups grow with model size; the paper\n"
            << "reports 2.7x (TXL) up to ~8x (BERT/ViT) in this setting.\n"
            << "Two-level trails flat here (PCIe intra < NIC); it takes the\n"
            << "lead on NVLink-class nodes - see bench_multinode.\n"
            << "wrote results/table5_multinode.{csv,json}\n";
  return 0;
}
