// Tests for the extended simulated-MPI features: groups/communicators,
// reduce-scatter, the ring-allreduce switch, and execution tracing.
#include <gtest/gtest.h>

#include "arch/configs.h"
#include "simmpi/world.h"

namespace ctesim::mpi {
namespace {

World make_world(int nodes, double network_jitter = 0.0) {
  WorldOptions options;
  options.machine = arch::cte_arm();
  options.network_jitter = network_jitter;
  return World(std::move(options),
               Placement::per_node(arch::cte_arm().node, nodes));
}

TEST(Group, WorldGroupCoversAllRanks) {
  auto world = make_world(5);
  const Group& g = world.world_group();
  EXPECT_EQ(g.size(), 5);
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(g.global(r), r);
    EXPECT_EQ(g.vrank_of(r), r);
  }
  EXPECT_EQ(g.context(), 0);
}

TEST(Group, CreateGroupMapsVranks) {
  auto world = make_world(8);
  const Group g = world.create_group({6, 2, 4});
  EXPECT_EQ(g.size(), 3);
  EXPECT_EQ(g.global(0), 6);
  EXPECT_EQ(g.vrank_of(4), 2);
  EXPECT_EQ(g.vrank_of(3), -1);
  EXPECT_FALSE(g.contains(0));
  EXPECT_GT(g.context(), 0);
}

TEST(Group, InOrderPrefixGroupFindsOnlyItsMembers) {
  // Members 0 .. size() - 1 in order: a vrank is the rank's id, and a
  // rank past the group, or no rank, has none.
  auto world = make_world(8);
  const Group g = world.create_group({0, 1, 2});
  EXPECT_EQ(g.vrank_of(2), 2);
  EXPECT_EQ(g.vrank_of(3), -1);
  EXPECT_EQ(g.vrank_of(-1), -1);
  EXPECT_FALSE(g.contains(7));
  EXPECT_EQ(world.world_group().vrank_of(7), 7);
  EXPECT_EQ(world.world_group().vrank_of(8), -1);
}

TEST(Group, RejectsDuplicatesAndOutOfRange) {
  auto world = make_world(4);
  EXPECT_THROW(world.create_group({0, 0}), ContractError);
  EXPECT_THROW(world.create_group({7}), ContractError);
}

TEST(GroupCollectives, SubgroupBarrierOnlyInvolvesMembers) {
  auto world = make_world(6);
  const Group evens = world.create_group({0, 2, 4});
  int completions = 0;
  world.run([&](Rank& r) -> sim::Task<> {
    if (evens.contains(r.id())) {
      co_await r.barrier(evens);
      ++completions;
    }
    co_return;  // odd ranks exit immediately; no deadlock
  });
  EXPECT_EQ(completions, 3);
}

TEST(GroupCollectives, ConcurrentDisjointGroupsDoNotInterfere) {
  auto world = make_world(8);
  const Group low = world.create_group({0, 1, 2, 3});
  const Group high = world.create_group({4, 5, 6, 7});
  int completions = 0;
  world.run([&](Rank& r) -> sim::Task<> {
    const Group& mine = r.id() < 4 ? low : high;
    co_await r.allreduce(mine, 64);
    co_await r.bcast(mine, 0, 1024);
    co_await r.allgather(mine, 128);
    co_await r.alltoall(mine, 32);
    ++completions;
  });
  EXPECT_EQ(completions, 8);
}

TEST(GroupCollectives, ReduceScatterCompletes) {
  for (int p : {2, 3, 4, 7, 8}) {
    auto world = make_world(p);
    int completions = 0;
    world.run([&](Rank& r) -> sim::Task<> {
      co_await r.reduce_scatter(1 << 16);
      ++completions;
    });
    EXPECT_EQ(completions, p) << p;
  }
}

TEST(RingAllreduce, LargePayloadsBeatRecursiveDoubling) {
  // For multi-megabyte payloads the ring (2(P-1) steps of bytes/P) must be
  // faster than recursive doubling (log P steps of full bytes).
  const std::uint64_t bytes = 8ull << 20;
  WorldOptions ring_opts;
  ring_opts.machine = arch::cte_arm();
  ring_opts.network_jitter = 0.0;
  World ring(std::move(ring_opts),
             Placement::per_node(arch::cte_arm().node, 16));
  const double t_ring = ring.run([&](Rank& r) -> sim::Task<> {
    co_await r.allreduce(bytes);
  });

  WorldOptions rd_opts;
  rd_opts.machine = arch::cte_arm();
  rd_opts.network_jitter = 0.0;
  rd_opts.allreduce_ring_threshold = ~0ull;  // force recursive doubling
  World rd(std::move(rd_opts),
           Placement::per_node(arch::cte_arm().node, 16));
  const double t_rd = rd.run([&](Rank& r) -> sim::Task<> {
    co_await r.allreduce(bytes);
  });
  EXPECT_LT(t_ring, t_rd);
}

TEST(Trace, RecordsComputeAndMessaging) {
  WorldOptions options;
  options.machine = arch::cte_arm();
  options.trace = true;
  World world(std::move(options),
              Placement::per_node(arch::cte_arm().node, 2));
  world.run([&](Rank& r) -> sim::Task<> {
    if (r.id() == 0) {
      co_await r.compute(roofline::KernelSig{.name = "work",
                                             .flops_per_elem = 2.0,
                                             .bytes_per_elem = 16.0},
                         1e6);
      co_await r.send(1, 1024);
    } else {
      co_await r.recv(0);
    }
  });
  ASSERT_NE(world.recorder(), nullptr);
  int computes = 0;
  int sends = 0;
  int recvs = 0;
  for (const auto& rec : world.recorder()->spans()) {
    EXPECT_GE(rec.end, rec.start);
    EXPECT_EQ(rec.track.kind, trace::TrackKind::kRank);
    if (rec.name == "compute") ++computes;
    if (rec.name == "send") ++sends;
    if (rec.name == "recv") ++recvs;
  }
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(sends, 1);
  EXPECT_EQ(recvs, 1);
}

TEST(World, RankExceptionPropagatesFromRun) {
  auto world = make_world(3);
  EXPECT_THROW(world.run([](Rank& r) -> sim::Task<> {
                 co_await r.compute_seconds(1e-6);
                 if (r.id() == 1) throw std::runtime_error("rank 1 died");
               }),
               std::runtime_error);
}

TEST(World, RunIsOneShot) {
  auto world = make_world(2);
  world.run([](Rank& r) -> sim::Task<> { co_await r.barrier(); });
  EXPECT_THROW(
      world.run([](Rank& r) -> sim::Task<> { co_await r.barrier(); }),
      ContractError);
}

TEST(Trace, DisabledByDefault) {
  auto world = make_world(2);
  world.run([&](Rank& r) -> sim::Task<> {
    co_await r.compute_seconds(1e-6);
  });
  EXPECT_EQ(world.recorder(), nullptr);
}

TEST(Trace, ExternalRecorderIsUsed) {
  trace::Recorder recorder;
  WorldOptions options;
  options.machine = arch::cte_arm();
  options.recorder = &recorder;
  World world(std::move(options),
              Placement::per_node(arch::cte_arm().node, 2));
  world.run([&](Rank& r) -> sim::Task<> {
    co_await r.compute_seconds(1e-6);
  });
  EXPECT_EQ(world.recorder(), &recorder);
  EXPECT_EQ(recorder.spans().size(), 2u);  // one compute span per rank
}

}  // namespace
}  // namespace ctesim::mpi
