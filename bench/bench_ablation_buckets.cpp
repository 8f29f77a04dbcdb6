// Ablation: quantization bucket size (paper §4 "Quantization").
//
// "Larger buckets lead to faster and higher compression, but higher
// per-element error" — the reason CGX defaults to 128 for Transformers and
// tolerates 1024 for CNNs. This bench measures, on a fixed gradient
// snapshot, the wire size and actual quantization error per bucket size,
// plus the no-bucketing extreme that breaks GRACE (§6.2).
#include <cmath>

#include "bench/common.h"
#include "core/qsgd.h"
#include "tensor/tensor_ops.h"

using namespace cgx;

int main() {
  constexpr std::size_t kN = 1 << 20;
  util::Rng rng(1);
  std::vector<float> grad(kN);
  // Heavy-tailed-ish gradient: mixture of small dense noise and a few
  // large coordinates, the regime where bucketing matters most.
  for (std::size_t i = 0; i < kN; ++i) {
    grad[i] = static_cast<float>(rng.next_gaussian()) * 0.01f;
    if (rng.next_below(1000) == 0) {
      grad[i] += static_cast<float>(rng.next_gaussian());
    }
  }
  const double signal = tensor::l2_norm(grad);

  util::Table table("Ablation - QSGD bucket size (4 bits, 1M elements)");
  table.set_header({"bucket", "wire bytes", "ratio vs fp32",
                    "rel. L2 error", "norm overhead %"});
  util::CsvWriter csv(bench::results_path("ablation_buckets.csv"),
                      {"bucket", "wire_bytes", "rel_error"});
  for (std::size_t bucket :
       {std::size_t{32}, std::size_t{128}, std::size_t{512},
        std::size_t{1024}, std::size_t{8192}, kN}) {
    core::QsgdCompressor compressor(4, bucket);
    std::vector<std::byte> payload(compressor.compressed_size(kN));
    std::vector<float> restored(kN);
    double err_sq = 0.0;
    constexpr int kReps = 5;
    for (int rep = 0; rep < kReps; ++rep) {
      compressor.compress(grad, payload, rng);
      compressor.decompress(payload, restored);
      for (std::size_t i = 0; i < kN; ++i) {
        const double d = double(restored[i]) - grad[i];
        err_sq += d * d;
      }
    }
    const double rel_err = std::sqrt(err_sq / kReps) / signal;
    const double wire = static_cast<double>(compressor.compressed_size(kN));
    const double norm_overhead =
        100.0 * 4.0 * std::ceil(double(kN) / bucket) / wire;
    table.add_row({bucket == kN ? "whole tensor" : std::to_string(bucket),
                   util::Table::compact(wire),
                   util::Table::num(4.0 * kN / wire, 2) + "x",
                   util::Table::num(rel_err, 3),
                   util::Table::num(norm_overhead, 1)});
    csv.add_row({std::to_string(bucket), util::Table::num(wire, 0),
                 util::Table::num(rel_err, 5)});
  }
  table.print();
  std::cout << "\nShape check: error grows with bucket size (catastrophic\n"
            << "without bucketing); payload overhead of the per-bucket\n"
            << "norms shrinks. 128 balances both — the paper's default.\n";
  return 0;
}
