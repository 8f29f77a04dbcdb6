// Simulated fabric tests: topology parsing, α-β cost accounting, NIC
// contention floors, deterministic virtual time, and per-link peer-direct
// gating (comm/topology.h, comm/simnet.h, util/virtual_clock.h).
#include "comm/simnet.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "comm/transports.h"
#include "comm/world.h"

namespace cgx::comm {
namespace {

// ---------------------------------------------------------------- Topology

TEST(Topology, GroupedBlockPlacement) {
  const Topology topo = Topology::grouped(8, 4);
  EXPECT_EQ(topo.world_size(), 8);
  EXPECT_EQ(topo.num_nodes(), 2);
  EXPECT_FALSE(topo.is_single_node());
  EXPECT_EQ(topo.node_of(3), 0);
  EXPECT_EQ(topo.node_of(4), 1);
  EXPECT_TRUE(topo.same_node(4, 7));
  EXPECT_FALSE(topo.same_node(3, 4));
  EXPECT_EQ(topo.leader(6), 4);
  EXPECT_TRUE(topo.is_leader(4));
  EXPECT_FALSE(topo.is_leader(5));
  EXPECT_EQ(topo.leaders(), (std::vector<int>{0, 4}));
}

TEST(Topology, ParseGroupedAndExplicitSpecs) {
  const Topology grid = Topology::parse("4x2", 8);
  EXPECT_EQ(grid.num_nodes(), 4);
  EXPECT_EQ(grid.node_of(5), 2);
  EXPECT_EQ(grid.leader(5), 4);

  const Topology list = Topology::parse("0,0,1,1", 4);
  EXPECT_EQ(list.num_nodes(), 2);
  EXPECT_EQ(list.leader(3), 2);

  const Topology flat = Topology::parse("", 4);
  EXPECT_TRUE(flat.is_single_node());
  EXPECT_EQ(flat.leader(3), 0);
}

TEST(Topology, NonContiguousNodeIdsReindexDensely) {
  const Topology topo(std::vector<int>{7, 7, 3, 3, 9, 9});
  EXPECT_EQ(topo.num_nodes(), 3);
  // Raw ids preserved; dense indices follow first appearance.
  EXPECT_EQ(topo.node_of(2), 3);
  EXPECT_EQ(topo.node_index(0), 0);
  EXPECT_EQ(topo.node_index(2), 1);
  EXPECT_EQ(topo.node_index(5), 2);
  EXPECT_EQ(topo.leaders(), (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(topo.leader(5), 4);
  EXPECT_TRUE(topo.same_node(4, 5));
  EXPECT_FALSE(topo.same_node(1, 2));
}

TEST(Topology, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(Topology::parse("4x3", 8), std::invalid_argument);
  EXPECT_THROW(Topology::parse("0,0,1", 4), std::invalid_argument);
  EXPECT_THROW(Topology::parse("abc", 4), std::invalid_argument);
  EXPECT_THROW(Topology::parse("2x", 4), std::invalid_argument);
}

TEST(Topology, FromEnvReadsCgxTopo) {
  ::setenv("CGX_TOPO", "2x2", 1);
  const Topology topo = Topology::from_env(4);
  EXPECT_EQ(topo.num_nodes(), 2);
  EXPECT_EQ(topo.leader(3), 2);
  ::unsetenv("CGX_TOPO");
  EXPECT_TRUE(Topology::from_env(4).is_single_node());
}

// ------------------------------------------------------------ SimNetParams

TEST(SimNetParams, ParseOverridesDefaults) {
  const SimNetParams p =
      SimNetParams::parse("inter_gbps=50,inter_alpha_us=12.5,fabric_gbps=512");
  EXPECT_EQ(p.inter_gbps, 50.0);
  EXPECT_EQ(p.inter_alpha_ns, 12'500u);
  EXPECT_EQ(p.fabric_gbps, 512.0);
  // Untouched keys keep their defaults.
  EXPECT_EQ(p.intra_alpha_ns, SimNetParams{}.intra_alpha_ns);
  EXPECT_THROW(SimNetParams::parse("warp_factor=9"), std::invalid_argument);
  EXPECT_THROW(SimNetParams::parse("inter_gbps"), std::invalid_argument);
}

TEST(SimNetParams, FromEnvReadsCgxSimnet) {
  ::setenv("CGX_SIMNET", "inter_alpha_ns=100,intra_gbps=48", 1);
  const SimNetParams p = SimNetParams::from_env();
  EXPECT_EQ(p.inter_alpha_ns, 100u);
  EXPECT_EQ(p.intra_gbps, 48.0);
  ::unsetenv("CGX_SIMNET");
  EXPECT_EQ(SimNetParams::from_env().inter_alpha_ns,
            SimNetParams{}.inter_alpha_ns);
}

// ---------------------------------------------------------------- SimNet

TEST(SimNet, AlphaBetaAccountingForOneMessage) {
  // 1000 bytes at 10 Gb/s: 800 ps/byte -> 800 ns serialization; the stamp
  // adds the 30 us inter-node alpha. All integers, no float rounding.
  ShmTransport shm(2);
  SimNetTransport net(shm, Topology::grouped(2, 1), SimNetParams{});
  EXPECT_EQ(net.cost_ns(0, 1, 1000), 30'800u);

  std::vector<float> payload(250, 1.0f);  // 1000 bytes
  net.send(0, 1, std::as_bytes(std::span<const float>(payload)), /*tag=*/5);
  EXPECT_EQ(net.clock().rank_now_ns(0), 800u);  // sender pays only beta
  EXPECT_EQ(net.clock().nic_tx_busy_ns(0), 800u);
  EXPECT_EQ(net.clock().nic_rx_busy_ns(1), 800u);
  EXPECT_EQ(net.clock().rank_now_ns(1), 0u);  // nothing consumed yet

  std::vector<float> got(250);
  net.recv(1, 0, std::as_writable_bytes(std::span<float>(got)), /*tag=*/5);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(net.clock().rank_now_ns(1), 30'800u);  // merged arrival stamp
  EXPECT_EQ(net.clock().elapsed_ns(), 30'800u);

  // Intra-node hops use the fast-fabric parameters instead.
  SimNetTransport intra(shm, Topology::single_node(2), SimNetParams{});
  EXPECT_EQ(intra.cost_ns(0, 1, 1000), 2'083u);  // 2 us alpha + 83 ns beta
}

TEST(SimNet, ConcurrentFlowsShareOneNic) {
  // Two same-direction cross-node flows serialize through one NIC: the
  // epoch cannot beat the NIC's total busy time, even though each flow's
  // causal chain alone would finish sooner.
  constexpr std::size_t kFloats = 16'384;  // 64 KiB per flow
  constexpr std::uint64_t kSer = (65'536u * 800u + 500u) / 1000u;  // 52429
  ShmTransport shm(4);
  SimNetTransport net(shm, Topology::grouped(4, 2), SimNetParams{});
  run_world(net, [&](Comm& comm) {
    std::vector<float> buf(kFloats, static_cast<float>(comm.rank()));
    if (comm.rank() < 2) {
      comm.send_floats(comm.rank() + 2, buf, /*tag=*/7);
    } else {
      comm.recv_floats(comm.rank() - 2, buf, /*tag=*/7);
    }
  });
  EXPECT_EQ(net.clock().nic_tx_busy_ns(0), 2 * kSer);
  EXPECT_EQ(net.clock().nic_rx_busy_ns(1), 2 * kSer);
  // Per-flow causal time (ser + alpha) is well under the contention floor.
  EXPECT_EQ(net.clock().max_rank_now_ns(), kSer + 30'000u);
  EXPECT_EQ(net.clock().elapsed_ns(), 2 * kSer);
}

TEST(SimNet, VirtualTimeDeterministicAcrossRuns) {
  // A multi-threaded exchange pattern with any-source-ish interleaving
  // charges bit-identical virtual time on every run: adds and maxes
  // commute, so thread scheduling cannot leak into the model.
  constexpr int kWorld = 4;
  const auto run_once = [&](std::vector<std::uint64_t>* per_rank) {
    ShmTransport shm(kWorld);
    SimNetTransport net(shm, Topology::grouped(kWorld, 2), SimNetParams{});
    run_world(net, [&](Comm& comm) {
      std::vector<float> buf(512, 1.0f);
      for (int iter = 0; iter < 5; ++iter) {
        const int peer = comm.rank() ^ 1;        // intra-node partner
        const int far = (comm.rank() + 2) % 4;   // cross-node partner
        if (comm.rank() < peer) {
          comm.send_floats(peer, buf, /*tag=*/3);
          comm.recv_floats(peer, buf, /*tag=*/3);
        } else {
          comm.recv_floats(peer, buf, /*tag=*/3);
          comm.send_floats(peer, buf, /*tag=*/3);
        }
        if (comm.rank() < far) {
          comm.send_floats(far, buf, /*tag=*/4);
          comm.recv_floats(far, buf, /*tag=*/4);
        } else {
          comm.recv_floats(far, buf, /*tag=*/4);
          comm.send_floats(far, buf, /*tag=*/4);
        }
      }
    });
    for (int r = 0; r < kWorld; ++r) {
      per_rank->push_back(net.clock().rank_now_ns(r));
    }
    return net.clock().elapsed_ns();
  };

  std::vector<std::uint64_t> first_ranks, second_ranks;
  const std::uint64_t first = run_once(&first_ranks);
  const std::uint64_t second = run_once(&second_ranks);
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first_ranks, second_ranks);
}

TEST(SimNet, ClockResetZeroesTheEpoch) {
  ShmTransport shm(2);
  SimNetTransport net(shm, Topology::grouped(2, 1), SimNetParams{});
  std::vector<float> buf(64, 2.0f);
  net.send(0, 1, std::as_bytes(std::span<const float>(buf)), 1);
  net.recv(1, 0, std::as_writable_bytes(std::span<float>(buf)), 1);
  ASSERT_GT(net.clock().elapsed_ns(), 0u);
  net.clock().reset();
  EXPECT_EQ(net.clock().elapsed_ns(), 0u);
  EXPECT_EQ(net.clock().nic_tx_busy_ns(0), 0u);
  // The next message charges a fresh epoch as if it were the first.
  net.send(0, 1, std::as_bytes(std::span<const float>(buf)), 1);
  net.recv(1, 0, std::as_writable_bytes(std::span<float>(buf)), 1);
  EXPECT_EQ(net.clock().elapsed_ns(), net.cost_ns(0, 1, buf.size() * 4));
}

TEST(SimNet, PeerDirectGatedToSameNode) {
  ShmTransport shm(4);
  ASSERT_TRUE(shm.supports_direct_exchange());

  SimNetTransport multi(shm, Topology::grouped(4, 2), SimNetParams{});
  EXPECT_FALSE(multi.supports_direct_exchange());
  EXPECT_TRUE(multi.supports_direct_exchange(0, 1));
  EXPECT_TRUE(multi.supports_direct_exchange(2, 3));
  EXPECT_FALSE(multi.supports_direct_exchange(1, 2));
  EXPECT_FALSE(multi.supports_direct_exchange(0, 3));

  SimNetTransport single(shm, Topology::single_node(4), SimNetParams{});
  EXPECT_TRUE(single.supports_direct_exchange());
  EXPECT_TRUE(single.supports_direct_exchange(0, 3));
}

TEST(SimNet, DirectExchangeChargesTheIntraFabric) {
  ShmTransport shm(2);
  SimNetTransport net(shm, Topology::single_node(2), SimNetParams{});
  std::vector<float> posted(256, 3.0f), pulled(256);
  run_world(net, [&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.direct_post(1, posted, /*tag=*/6);
      comm.direct_wait(1, /*tag=*/6);
    } else {
      comm.direct_pull(0, pulled, /*add=*/false, /*tag=*/6);
    }
  });
  EXPECT_EQ(pulled, posted);
  // 1024 bytes over the 96 Gb/s intra link: beta on the sender, stamped
  // arrival (beta + 2 us alpha) on the puller, fabric floor charged.
  EXPECT_EQ(net.clock().rank_now_ns(0), 85u);
  EXPECT_EQ(net.clock().rank_now_ns(1), 2'085u);
  EXPECT_GT(net.clock().fabric_busy_ns(0), 0u);
}

TEST(SimNet, ResetInboundDropsPendingStamps) {
  ShmTransport shm(2);
  SimNetTransport net(shm, Topology::grouped(2, 1), SimNetParams{});
  std::vector<float> buf(64, 4.0f);
  // A message is dropped by recovery along with its stamp...
  net.send(0, 1, std::as_bytes(std::span<const float>(buf)), 9);
  net.reset_inbound(1);
  // ...so the retried message's stamp is the one the receiver merges
  // (sender causal time now covers both sends, stamp = 2*ser + alpha).
  net.send(0, 1, std::as_bytes(std::span<const float>(buf)), 9);
  net.recv(1, 0, std::as_writable_bytes(std::span<float>(buf)), 9);
  const std::uint64_t ser = net.cost_ns(0, 1, 256) - 30'000u;
  EXPECT_EQ(net.clock().rank_now_ns(0), 2 * ser);
  EXPECT_EQ(net.clock().rank_now_ns(1), 2 * ser + 30'000u);
}

}  // namespace
}  // namespace cgx::comm
