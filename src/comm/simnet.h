// Simulated multi-node fabric: α-β link costs with per-NIC contention.
//
// SimNetTransport decorates a real in-process backend (typically
// ShmTransport): every byte still moves for real through the inner
// transport, but each operation is *charged* to a util::VirtualClock using
// an α-β cost model chosen by the link type the topology assigns to the
// (src, dst) pair:
//
//   inter-node   cost = inter_alpha + bytes * 8 / inter_gbps
//                The serialization term also accumulates on the sender
//                node's NIC-tx floor and the receiver node's NIC-rx floor,
//                so CONCURRENT FLOWS THROUGH ONE NIC SHARE ITS BANDWIDTH:
//                the modelled epoch cannot be shorter than any NIC's total
//                busy time (VirtualClock::elapsed_ns takes the max).
//   intra-node   cost = intra_alpha + bytes * 8 / intra_gbps, and the
//                serialization term accumulates on the node's shared
//                memory-fabric floor (fabric_gbps aggregate per node).
//
// Accounting discipline (why results are deterministic): a send ADDS its
// serialization cost to the sender's causal clock and pushes an arrival
// stamp (sender-now + α) into a per-(src, dst, tag) FIFO; the receive that
// consumes the matching message pops the stamp and MAX-MERGES it into the
// receiver's clock. Adds and maxes commute, so thread scheduling and
// any-source arrival order cannot change the final numbers — benches over
// this fabric are bit-reproducible (see util/virtual_clock.h).
//
// Peer-direct exchange is only offered between ranks on the same node: a
// simulated NIC cannot export device memory across nodes. The per-link
// supports_direct_exchange(a, b) query is the routing point; the global
// form goes false as soon as the topology has two nodes.
//
// Env knobs (SimNetParams::from_env, used by benches and tests):
//   CGX_TOPO    rank→node map, see comm/topology.h
//   CGX_SIMNET  comma list of key=value overriding SimNetParams fields,
//               e.g. "inter_gbps=50,inter_alpha_us=12.5,fabric_gbps=512"
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comm/topology.h"
#include "comm/transport.h"
#include "util/virtual_clock.h"

namespace cgx::comm {

struct SimNetParams {
  // 10 Gb/s-class datacenter Ethernet defaults; a 30 µs α covers the
  // kernel/NIC software path of an unoptimized stack.
  std::uint64_t inter_alpha_ns = 30'000;
  double inter_gbps = 10.0;
  // Intra-node SHM hop: PR 6 measured ~8.4 GB/s end-to-end allreduce, so a
  // single peer-direct link models at NVLink-ish 96 Gb/s with a small α.
  std::uint64_t intra_alpha_ns = 2'000;
  double intra_gbps = 96.0;
  // Aggregate per-node memory fabric shared by all intra-node flows.
  double fabric_gbps = 768.0;

  // Parse CGX_SIMNET ("key=value,..."; keys: inter_alpha_us, inter_gbps,
  // intra_alpha_us, intra_gbps, fabric_gbps) over these defaults.
  static SimNetParams from_env();
  static SimNetParams parse(const std::string& spec);
};

class SimNetTransport final : public Transport {
 public:
  // `inner` must outlive the decorator. If `clock` is null the transport
  // owns a private VirtualClock sized to the topology.
  SimNetTransport(Transport& inner, Topology topology, SimNetParams params,
                  util::VirtualClock* clock = nullptr);

  void send(int src, int dst, std::span<const std::byte> data,
            int tag) override;
  void recv(int dst, int src, std::span<std::byte> data, int tag) override;
  bool supports_recv_add() const override;
  void recv_add(int dst, int src, std::span<float> data, int tag) override;

  bool supports_direct_exchange() const override;
  bool supports_direct_exchange(int a, int b) const override;
  void direct_post(int src, int dst, std::span<const float> data,
                   int tag) override;
  void direct_pull(int dst, int src, std::span<float> data, bool add,
                   int tag) override;
  void direct_pull2(int dst, int src1, int src2, std::span<float> data,
                    int tag) override;
  void direct_wait(int src, int dst, int tag) override;

  int select_source(int dst, std::span<const int> candidates,
                    int tag) override;
  const TransportProfile& profile() const override { return profile_; }

  TrafficRecorder& recorder() override { return inner_.recorder(); }
  const TrafficRecorder& recorder() const override {
    return inner_.recorder();
  }
  HealthMonitor& health() override { return inner_.health(); }
  const HealthMonitor& health() const override { return inner_.health(); }

  void set_policy(const CommPolicy& policy) override;
  void set_fault_injector(FaultInjector* injector) override;
  void reset_inbound(int rank) override;
  void set_epoch(std::uint64_t epoch) override { inner_.set_epoch(epoch); }
  std::uint64_t epoch() const override { return inner_.epoch(); }
  std::uint64_t stale_frames_discarded() const override {
    return inner_.stale_frames_discarded();
  }

  util::VirtualClock& clock() { return *clock_; }
  const util::VirtualClock& clock() const { return *clock_; }
  const Topology& topology() const { return topo_; }
  const SimNetParams& params() const { return params_; }
  Transport& inner() { return inner_; }

  // Modelled wire time of one message, by link type (exposed for tests and
  // for analytic cross-checks in benches).
  std::uint64_t cost_ns(int src, int dst, std::size_t bytes) const;

 private:
  // Grow-only per-tag arrival-stamp FIFO: push on send, pop on the recv
  // that consumed the matching inner message. Ring storage doubles in
  // place when full and never shrinks, so steady state allocates nothing.
  struct TagFifo {
    int tag = -1;
    std::vector<std::uint64_t> ring;
    std::size_t head = 0;
    std::size_t count = 0;
  };
  struct PairState {
    std::mutex mu;
    std::vector<TagFifo> fifos;  // few live tags per pair: linear scan
  };

  PairState& pair(int src, int dst) {
    return pairs_[static_cast<std::size_t>(src) *
                      static_cast<std::size_t>(topo_.world_size()) +
                  static_cast<std::size_t>(dst)];
  }
  std::uint64_t serialization_ns(int src, int dst, std::size_t bytes) const;
  // Charges the sender's clock + the link's shared floors and enqueues the
  // arrival stamp. Must run BEFORE the inner operation so the matching
  // consume always finds its stamp.
  void charge_send(int src, int dst, std::size_t bytes, int tag);
  // Pops the stamp (if present) and max-merges it into dst's clock.
  void charge_consume(int dst, int src, int tag);

  Transport& inner_;
  Topology topo_;
  SimNetParams params_;
  std::uint64_t inter_ps_per_byte_;
  std::uint64_t intra_ps_per_byte_;
  std::uint64_t fabric_ps_per_byte_;
  std::unique_ptr<util::VirtualClock> owned_clock_;
  util::VirtualClock* clock_;
  std::vector<PairState> pairs_;  // world², row-major by src
  TransportProfile profile_;
};

}  // namespace cgx::comm
