// Ablation: flat vs hierarchical (two-level) communication across the
// intra/inter bandwidth ratio (paper §4 heterogeneous backends; future-work
// hybrid synchronization).
//
// The two-level schedule trades full-precision intra-node hops for
// compressed-only NIC traffic. This sweep finds the crossover: it wins
// once the intra fabric is a few times faster than the NICs (NVLink-class
// nodes) and loses on weak contended fabrics (Genesis-class PCIe).
#include "bench/common.h"

using namespace cgx;

int main() {
  tensor::LayerLayout layout;
  layout.add_layer("embed.weight", tensor::Shape{100000, 128});  // 12.8M
  for (int b = 0; b < 8; ++b) {
    layout.add_layer("block" + std::to_string(b) + ".w",
                     tensor::Shape{1024, 1024});
  }

  util::Table table(
      "Ablation - flat vs hierarchical allreduce, 4 nodes x 4 GPUs, "
      "5 GBps NICs");
  table.set_header({"intra fabric GBps", "flat SRA (ms)",
                    "hierarchical (ms)", "winner"});
  util::CsvWriter csv(bench::results_path("ablation_hierarchical.csv"),
                      {"intra_gbps", "flat_ms", "hier_ms"});
  for (double intra_gbps : {3.3, 10.0, 25.0, 50.0, 100.0, 160.0}) {
    const auto topology = simgpu::make_multinode_topology(
        "sweep", 4, 4, /*intra_link_gbps=*/intra_gbps,
        /*intra_fabric_gbps=*/intra_gbps, /*intra_latency_us=*/4.0,
        /*nic_gbps=*/5.0, /*inter_latency_us=*/30.0);
    comm::ShmTransport shm(16);
    const simgpu::CostModel cost(topology, shm.profile());

    core::EngineOptions flat;
    core::CgxEngine flat_engine(layout, core::CompressionConfig::cgx_default(),
                                16, flat);
    core::EngineOptions two_level;
    for (int r = 0; r < 16; ++r) two_level.node_of.push_back(r / 4);
    core::CgxEngine h_engine(layout, core::CompressionConfig::cgx_default(),
                             16, two_level);

    auto total = [&](core::CgxEngine& engine) {
      const auto plan = engine.comm_plan(cost, 200.0);
      double t = plan.fused_packet_s;
      for (double s : plan.per_layer_s) t += s;
      return 1e3 * t;
    };
    const double flat_ms = total(flat_engine);
    const double hier_ms = total(h_engine);
    table.add_row({util::Table::num(intra_gbps, 1),
                   util::Table::num(flat_ms, 1),
                   util::Table::num(hier_ms, 1),
                   hier_ms < flat_ms ? "hierarchical" : "flat"});
    csv.add_row({util::Table::num(intra_gbps, 1),
                 util::Table::num(flat_ms, 2),
                 util::Table::num(hier_ms, 2)});
  }
  table.print();
  std::cout << "\nShape check: flat wins on weak fabrics; hierarchical wins\n"
            << "once intra-node bandwidth is several times the NIC rate.\n";
  return 0;
}
