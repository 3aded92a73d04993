// Tests for the link-congestion model.
#include <gtest/gtest.h>

#include <vector>

#include "arch/configs.h"
#include "net/congestion.h"
#include "simmpi/world.h"

namespace ctesim::net {
namespace {

Network cte_network() {
  auto net = Network(arch::cte_arm().interconnect, 192);
  net.set_jitter(0.0);
  return net;
}

TEST(Route, FollowsDimensionOrder) {
  auto net = cte_network();
  CongestionModel model(net);
  const auto* torus = dynamic_cast<const TorusTopology*>(&net.topology());
  ASSERT_NE(torus, nullptr);
  for (int dst : {1, 5, 50, 191}) {
    const auto links = model.route(0, dst);
    EXPECT_EQ(static_cast<int>(links.size()), torus->hops(0, dst)) << dst;
    // The route starts at the source.
    EXPECT_EQ(links.front().node, 0);
  }
}

/// Reference walk over the torus' own coordinates()/node_at(): step one
/// coordinate at a time along the shorter wrap direction.
std::vector<LinkId> coordinate_route(const TorusTopology& torus, int src,
                                     int dst) {
  std::vector<LinkId> links;
  auto here = torus.coordinates(src);
  const auto there = torus.coordinates(dst);
  const auto& dims = torus.dims();
  for (std::size_t d = 0; d < dims.size(); ++d) {
    while (here[d] != there[d]) {
      const int n = dims[d];
      const int forward = (there[d] - here[d] + n) % n;
      const int dir = forward <= n - forward ? +1 : -1;
      links.push_back(LinkId{static_cast<std::int32_t>(torus.node_at(here)),
                             static_cast<std::int16_t>(d),
                             static_cast<std::int16_t>(dir)});
      here[d] = (here[d] + dir + n) % n;
    }
  }
  return links;
}

TEST(Route, MatchesCoordinateWalkOnEveryPair) {
  // CTE-Arm's TofuD shape, plus odd and even sizes with wrap ties.
  for (const std::vector<int>& dims : std::vector<std::vector<int>>{
           {4, 2, 2, 2, 3, 2}, {5, 3, 4}, {6}, {1, 7, 2}}) {
    arch::InterconnectSpec spec = arch::cte_arm().interconnect;
    spec.dims = dims;
    const TorusTopology torus(dims);
    Network net(spec, torus.num_nodes());
    CongestionModel model(net);
    for (int src = 0; src < torus.num_nodes(); ++src) {
      for (int dst = 0; dst < torus.num_nodes(); ++dst) {
        if (src == dst) continue;
        ASSERT_EQ(model.route(src, dst), coordinate_route(torus, src, dst))
            << torus.describe() << " " << src << " -> " << dst;
      }
    }
  }
}

TEST(Route, FatTreeUsesEndpointLinks) {
  Network net(arch::marenostrum4().interconnect, 192);
  CongestionModel model(net);
  const auto links = model.route(3, 77);
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0].node, 3);
  EXPECT_EQ(links[1].node, 77);
}

TEST(Congestion, SingleTransferMatchesContentionFreeModel) {
  auto net = cte_network();
  CongestionModel model(net);
  const std::uint64_t bytes = 1 << 20;
  const auto base = net.transfer(0, 1, bytes);
  const sim::Time arrival = model.transfer_at(0, 1, bytes, 0);
  EXPECT_GE(sim::to_seconds(arrival), base.time_s - 1e-12);
  EXPECT_LE(sim::to_seconds(arrival), base.time_s * 1.5);
  EXPECT_DOUBLE_EQ(model.total_queueing_seconds(), 0.0);
}

TEST(Congestion, SharedLinkSerializesTransfers) {
  auto net = cte_network();
  CongestionModel model(net);
  const std::uint64_t bytes = 8 << 20;
  // Two messages over the same first link at the same instant.
  const sim::Time first = model.transfer_at(0, 1, bytes, 0);
  const sim::Time second = model.transfer_at(0, 1, bytes, 0);
  EXPECT_GT(second, first);
  EXPECT_GT(model.total_queueing_seconds(), 0.0);
  // The second waits roughly one occupancy.
  const double occupancy = static_cast<double>(bytes) /
                           (net.spec().link_bw * net.spec().eff_bw_factor);
  EXPECT_NEAR(sim::to_seconds(second - first), occupancy, 0.25 * occupancy);
}

TEST(Congestion, DisjointRoutesDoNotInterfere) {
  auto net = cte_network();
  CongestionModel model(net);
  const std::uint64_t bytes = 8 << 20;
  const sim::Time a = model.transfer_at(0, 1, bytes, 0);
  model.reset();
  CongestionModel fresh(net);
  (void)fresh.transfer_at(100, 101, bytes, 0);  // elsewhere in the torus
  const sim::Time b = fresh.transfer_at(0, 1, bytes, 0);
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(fresh.total_queueing_seconds(), 0.0);
}

TEST(Congestion, ResetClearsState) {
  auto net = cte_network();
  CongestionModel model(net);
  (void)model.transfer_at(0, 1, 8 << 20, 0);
  (void)model.transfer_at(0, 1, 8 << 20, 0);
  EXPECT_GT(model.total_queueing_seconds(), 0.0);
  model.reset();
  EXPECT_DOUBLE_EQ(model.total_queueing_seconds(), 0.0);
}

TEST(Congestion, WorldOptionSlowsSharedLinkTraffic) {
  // Two concurrent X-dimension transfers whose dimension-order routes
  // share the link leaving x=1 (node stride along X is 192/4 = 48):
  //   node 0  -> node 96  uses (x=0,+1) then (x=1,+1)
  //   node 48 -> node 144 uses (x=1,+1) then (x=2,+1)
  auto run = [&](bool congestion) {
    mpi::WorldOptions options;
    options.machine = arch::cte_arm();
    options.network_jitter = 0.0;
    options.congestion = congestion;
    mpi::World world(std::move(options),
                     mpi::Placement::one_per_node_at(
                         arch::cte_arm().node, {0, 48, 96, 144}));
    const double t = world.run([](mpi::Rank& r) -> sim::Task<> {
      const std::uint64_t bytes = 32 << 20;
      if (r.id() == 0) {
        co_await r.send(2, bytes);
      } else if (r.id() == 1) {
        co_await r.send(3, bytes);
      } else {
        co_await r.recv(r.id() - 2);
      }
    });
    return std::make_pair(t, world.network_queueing_seconds());
  };
  const auto [t_free, q_free] = run(false);
  const auto [t_congested, q_congested] = run(true);
  EXPECT_GT(t_congested, 1.3 * t_free);
  EXPECT_GT(q_congested, 0.0);
  EXPECT_DOUBLE_EQ(q_free, 0.0);
}

TEST(Congestion, LightTrafficUnaffected) {
  auto run = [&](bool congestion) {
    mpi::WorldOptions options;
    options.machine = arch::cte_arm();
    options.network_jitter = 0.0;
    options.congestion = congestion;
    mpi::World world(std::move(options),
                     mpi::Placement::per_node(arch::cte_arm().node, 4));
    return world.run([](mpi::Rank& r) -> sim::Task<> {
      co_await r.allreduce(64);  // tiny, latency-bound
    });
  };
  EXPECT_NEAR(run(true), run(false), 0.15 * run(false));
}

}  // namespace
}  // namespace ctesim::net
