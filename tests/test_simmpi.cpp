// Unit tests for the simulated MPI runtime: placement, point-to-point
// timing semantics, and the collective algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arch/configs.h"
#include "roofline/kernel_library.h"
#include "simmpi/world.h"
#include "util/assert.h"
#include "util/check.h"
#include "util/rng.h"

namespace ctesim::mpi {
namespace {

WorldOptions cte_options() {
  WorldOptions o;
  o.machine = arch::cte_arm();
  o.network_jitter = 0.0;  // exact timing checks below
  return o;
}

TEST(Placement, PerCoreFillsDomainsInOrder) {
  const auto node = arch::cte_arm().node;
  const auto p = Placement::per_core(node, 96);
  EXPECT_EQ(p.num_ranks(), 96);
  EXPECT_EQ(p.nodes_used(), 2);
  EXPECT_EQ(p.slot(0).node, 0);
  EXPECT_EQ(p.slot(0).domain, 0);
  EXPECT_EQ(p.slot(12).domain, 1);   // 13th core is on CMG 1
  EXPECT_EQ(p.slot(47).domain, 3);
  EXPECT_EQ(p.slot(48).node, 1);
  EXPECT_EQ(p.slot(48).domain, 0);
  EXPECT_EQ(p.slot(0).cores, 1);
}

TEST(Placement, PerNodeOwnsAllCores) {
  const auto node = arch::marenostrum4().node;
  const auto p = Placement::per_node(node, 4);
  EXPECT_EQ(p.num_ranks(), 4);
  EXPECT_EQ(p.slot(2).node, 2);
  EXPECT_EQ(p.slot(2).cores, 48);
}

TEST(Placement, HybridLayout) {
  const auto node = arch::cte_arm().node;
  const auto p = Placement::hybrid(node, 16, 8, 6);  // Gromacs layout
  EXPECT_EQ(p.nodes_used(), 2);
  EXPECT_EQ(p.slot(0).cores, 6);
  EXPECT_EQ(p.slot(1).domain, 0);  // cores 6..11 still CMG 0
  EXPECT_EQ(p.slot(2).domain, 1);  // cores 12..17 on CMG 1
}

TEST(Placement, NearSquareGridAndNeighbourOrder) {
  const Grid2d g = Grid2d::near_square(384);  // NEMO at 8 CTE-Arm nodes
  EXPECT_EQ(g.px, 16);
  EXPECT_EQ(g.py, 24);
  EXPECT_EQ(Grid2d::near_square(7).px, 1);  // a prime: one row
  // Exchange order -x, +x, -y, +y; edges drop their missing sides.
  EXPECT_EQ(g.neighbors(17), (std::vector<int>{16, 18, 1, 33}));
  EXPECT_EQ(g.neighbors(0), (std::vector<int>{1, 16}));
  // +-1, +-s, +-s*s for s = round(cbrt(64)) = 4, cut at max_count.
  EXPECT_EQ(cube_neighbors(21, 64, 6),
            (std::vector<int>{22, 20, 25, 17, 37, 5}));
  EXPECT_EQ(cube_neighbors(0, 64, 2), (std::vector<int>{1, 4}));
}

TEST(World, SendRecvAdvancesTimeByTransfer) {
  auto opts = cte_options();
  World world(std::move(opts), Placement::per_node(arch::cte_arm().node, 2));
  double recv_done = -1.0;
  world.run([&](Rank& r) -> sim::Task<> {
    if (r.id() == 0) {
      co_await r.send(1, 1024);
    } else {
      co_await r.recv(0);
      recv_done = r.now_s();
    }
  });
  // Transfer time = base latency + hops*per_hop + bytes/bw: strictly
  // positive and well below a millisecond for 1 KiB.
  EXPECT_GT(recv_done, 0.5e-6);
  EXPECT_LT(recv_done, 1e-4);
}

TEST(World, IntraNodeMessagesUseSharedMemory) {
  auto opts = cte_options();
  // Two ranks on the same node (2 ranks/node, 1 node used).
  World world(std::move(opts),
              Placement::fill_nodes(arch::cte_arm().node, 2, 2));
  double recv_done = -1.0;
  world.run([&](Rank& r) -> sim::Task<> {
    if (r.id() == 0) {
      co_await r.send(1, 1024);
    } else {
      co_await r.recv(0);
      recv_done = r.now_s();
    }
  });
  const auto& node = arch::cte_arm().node;
  const double expected = node.shm_latency + 1024.0 / node.shm_bw;
  EXPECT_NEAR(recv_done, expected, 1e-12);
}

TEST(World, RecvBlocksUntilMessageArrives) {
  auto opts = cte_options();
  World world(std::move(opts), Placement::per_node(arch::cte_arm().node, 2));
  double sent_at = -1.0;
  double recv_at = -1.0;
  world.run([&](Rank& r) -> sim::Task<> {
    if (r.id() == 0) {
      co_await r.compute_seconds(1.0);  // make the receiver wait
      sent_at = r.now_s();
      co_await r.send(1, 64);
    } else {
      co_await r.recv(0);
      recv_at = r.now_s();
    }
  });
  EXPECT_GE(recv_at, sent_at);
  EXPECT_NEAR(recv_at, 1.0, 1e-3);
}

TEST(World, MessagesMatchByTagInOrder) {
  auto opts = cte_options();
  World world(std::move(opts), Placement::per_node(arch::cte_arm().node, 2));
  std::vector<std::uint64_t> got;
  world.run([&](Rank& r) -> sim::Task<> {
    if (r.id() == 0) {
      co_await r.send(1, 100, /*tag=*/7);
      co_await r.send(1, 200, /*tag=*/9);
      co_await r.send(1, 300, /*tag=*/7);
    } else {
      got.push_back(co_await r.recv(0, 9));   // out-of-order tag pull
      got.push_back(co_await r.recv(0, 7));
      got.push_back(co_await r.recv(0, 7));
    }
  });
  EXPECT_EQ(got, (std::vector<std::uint64_t>{200, 100, 300}));
}

TEST(World, ManyMailboxesPerRankMatchSourceAndTag) {
  // Rank 0 gets 8 senders x 5 tags = 40 distinct (src, tag) mailboxes,
  // more than a mailbox's key array ever holds in the apps, and drains
  // them in the reverse of the order they were filled.
  constexpr int kSenders = 8;
  constexpr int kTags = 5;
  const auto payload = [](int src, int tag) {
    return static_cast<std::uint64_t>(1000 * src + 10 * tag + 1);
  };
  auto opts = cte_options();
  World world(std::move(opts),
              Placement::per_node(arch::cte_arm().node, kSenders + 1));
  std::vector<std::uint64_t> got;
  std::vector<std::uint64_t> want;
  world.run([&](Rank& r) -> sim::Task<> {
    if (r.id() == 0) {
      // Let every message land before the first receive.
      co_await r.compute_seconds(1.0);
      for (int src = kSenders; src >= 1; --src) {
        for (int tag = kTags - 1; tag >= 0; --tag) {
          got.push_back(co_await r.recv(src, tag));
          want.push_back(payload(src, tag));
        }
      }
    } else {
      // Sender s starts after sender s - 1 has finished: one global order.
      co_await r.compute_seconds(1e-3 * r.id());
      for (int tag = 0; tag < kTags; ++tag) {
        co_await r.send(0, payload(r.id(), tag), tag);
      }
    }
  });
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kSenders * kTags));
  EXPECT_EQ(got, want);
}

TEST(ChannelRobustness, InterleavedPushPopStaysFifoWithVaryingBacklog) {
  // One (source, tag) mailbox whose backlog swings between 0 and 87:
  // filling rounds alternate with longer draining ones, so the inline
  // slots and the spill fill, drain, reset and compact many times. Each
  // message's byte count is its sequence number. Rank 0 sends a round's
  // messages on tag 0, then a token on tag 1; rank 1 takes the token,
  // receives its share of the round and acknowledges on tag 2 before the
  // next round, so the mailbox holds exactly the backlog planned here.
  std::vector<std::pair<int, int>> rounds;  // (sends, receives)
  Rng rng(17);
  int backlog = 0;
  int max_backlog = 0;
  int drains = 0;
  for (int round = 0; round < 1000; ++round) {
    const bool filling = round % 40 < 16;
    const int sends = static_cast<int>(rng.uniform_int(0, filling ? 11 : 3));
    const int receives = std::min(
        backlog + sends,
        static_cast<int>(rng.uniform_int(0, filling ? 3 : 11)));
    backlog += sends - receives;
    max_backlog = std::max(max_backlog, backlog);
    if (receives > 0 && backlog == 0) ++drains;
    rounds.emplace_back(sends, receives);
  }
  ASSERT_GT(max_backlog, 32);
  ASSERT_GT(drains, 10);

  World world(cte_options(), Placement::per_node(arch::cte_arm().node, 2));
  std::vector<std::uint64_t> got;
  std::uint64_t sent = 0;
  world.run([&](Rank& r) -> sim::Task<> {
    for (const auto& [sends, receives] : rounds) {
      if (r.id() == 0) {
        for (int i = 0; i < sends; ++i) co_await r.send(1, ++sent);
        co_await r.send(1, 8, /*tag=*/1);
        co_await r.recv(1, /*tag=*/2);
      } else {
        co_await r.recv(0, /*tag=*/1);
        for (int i = 0; i < receives; ++i) got.push_back(co_await r.recv(0));
        co_await r.send(0, 8, /*tag=*/2);
      }
    }
    if (r.id() == 1) {
      for (int i = 0; i < backlog; ++i) got.push_back(co_await r.recv(0));
    }
  });
  ASSERT_EQ(got.size(), sent);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], i + 1) << "FIFO broken at receive " << i;
  }
}

#if CTESIM_CHECKS_ENABLED
TEST(World, SecondParkedReceiveOnAMailboxIsCaught) {
  // A rank has one P2P call in flight, so a mailbox has at most one parked
  // receive. A second coroutine on the same Rank breaks that: it parks on
  // the mailbox rank 0's own receive already waits on.
  World world(cte_options(), Placement::per_node(arch::cte_arm().node, 2));
  EXPECT_THROW(world.run([](Rank& r) -> sim::Task<> {
                 if (r.id() == 1) co_return;  // never sends
                 r.world().engine().spawn([](Rank& rank) -> sim::Task<> {
                   co_await rank.recv(1);
                 }(r));
                 co_await r.recv(1);
               }),
               ContractError);
}
#endif  // CTESIM_CHECKS_ENABLED

TEST(World, DeadlockIsReported) {
  auto opts = cte_options();
  World world(std::move(opts), Placement::per_node(arch::cte_arm().node, 2));
  EXPECT_THROW(world.run([&](Rank& r) -> sim::Task<> {
                 co_await r.recv(1 - r.id());  // both wait, nobody sends
               }),
               std::runtime_error);
}

TEST(World, FailureOfARankResumedByAHandOffIsRethrown) {
  // Rank 0 parks on its receive during the spawns, and the hand-off from
  // the run queue resumes it: its bad send throws there, after the
  // engine's last event.
  World world(cte_options(), Placement::per_node(arch::cte_arm().node, 2));
  EXPECT_THROW(world.run([](Rank& r) -> sim::Task<> {
                 if (r.id() == 0) {
                   co_await r.recv(1);
                   co_await r.send(99, 8);
                 } else {
                   co_await r.send(0, 8);
                 }
               }),
               ContractError);
  EXPECT_EQ(world.op_counts().handoffs, 1u);
  EXPECT_EQ(world.engine().events_processed(), 2u);
}

TEST(World, FailureOfARankWokenByACollectiveIsRethrown) {
  World world(cte_options(), Placement::per_node(arch::cte_arm().node, 3));
  EXPECT_THROW(world.run([](Rank& r) -> sim::Task<> {
                 co_await r.barrier();
                 if (r.id() == 1) co_await r.recv(-1);
               }),
               ContractError);
  EXPECT_EQ(world.op_counts().wakes, 3u);
  EXPECT_EQ(world.engine().events_processed(), 3u);
}

TEST(World, ReceiveLeftParkedAfterTheRunQueueDrainsIsADeadlock) {
  // Rank 0's first receive is handed its message from the run queue; its
  // second has no matching send, so it parks again and the queue drains.
  World world(cte_options(), Placement::per_node(arch::cte_arm().node, 2));
  try {
    world.run([](Rank& r) -> sim::Task<> {
      if (r.id() == 0) {
        co_await r.recv(1);
        co_await r.recv(1);
      } else {
        co_await r.send(0, 8);
      }
    });
    FAIL() << "a receive with no matching send must deadlock";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("simulation deadlocked (1 ranks"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(world.op_counts().handoffs, 1u);
}

// --- collectives --------------------------------------------------------

class CollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveTest, BarrierCompletesForAllRankCounts) {
  const int nranks = GetParam();
  auto opts = cte_options();
  World world(std::move(opts),
              Placement::per_node(arch::cte_arm().node, nranks));
  int completions = 0;
  world.run([&](Rank& r) -> sim::Task<> {
    co_await r.barrier();
    ++completions;
  });
  EXPECT_EQ(completions, nranks);
}

TEST_P(CollectiveTest, BarrierSynchronizesSkewedRanks) {
  const int nranks = GetParam();
  auto opts = cte_options();
  World world(std::move(opts),
              Placement::per_node(arch::cte_arm().node, nranks));
  std::vector<double> after(static_cast<std::size_t>(nranks));
  world.run([&](Rank& r) -> sim::Task<> {
    // Rank i works i milliseconds before the barrier.
    co_await r.compute_seconds(1e-3 * r.id());
    co_await r.barrier();
    after[static_cast<std::size_t>(r.id())] = r.now_s();
  });
  // No rank may leave the barrier before the slowest entered it.
  const double slowest_entry = 1e-3 * (nranks - 1);
  for (double t : after) EXPECT_GE(t, slowest_entry);
}

TEST_P(CollectiveTest, AllreduceCompletesAndScalesWithLogP) {
  const int nranks = GetParam();
  auto opts = cte_options();
  World world(std::move(opts),
              Placement::per_node(arch::cte_arm().node, nranks));
  double t = world.run([&](Rank& r) -> sim::Task<> {
    co_await r.allreduce(8);
  });
  if (nranks == 1) {
    EXPECT_EQ(t, 0.0);  // single rank: no communication at all
    return;
  }
  EXPECT_GT(t, 0.0);
  // Latency-dominated small allreduce: within a small factor of
  // ceil(log2 P) + 2 network latencies.
  const auto& ic = arch::cte_arm().interconnect;
  int stages = 0;
  while ((1 << stages) < nranks) ++stages;
  const double bound = (stages + 2) * (ic.base_latency_s * 4 + 2e-6);
  EXPECT_LT(t, bound + 1e-5);
}

TEST_P(CollectiveTest, BcastAllgatherAlltoallComplete) {
  const int nranks = GetParam();
  for (int variant = 0; variant < 3; ++variant) {
    auto opts = cte_options();
    World world(std::move(opts),
                Placement::per_node(arch::cte_arm().node, nranks));
    int completions = 0;
    world.run([&](Rank& r) -> sim::Task<> {
      switch (variant) {
        case 0:
          co_await r.bcast(0, 4096);
          break;
        case 1:
          co_await r.allgather(512);
          break;
        default:
          co_await r.alltoall(256);
          break;
      }
      ++completions;
    });
    EXPECT_EQ(completions, nranks) << "variant " << variant;
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 12, 16, 31, 48));

TEST(World, ComputeJitterOnlySlowsDown) {
  for (int trial = 0; trial < 3; ++trial) {
    WorldOptions opts;
    opts.machine = arch::cte_arm();
    opts.compute_jitter = 0.05;
    opts.seed = 1000 + static_cast<std::uint64_t>(trial);
    World world(std::move(opts),
                Placement::per_node(arch::cte_arm().node, 2));
    const double t = world.run([&](Rank& r) -> sim::Task<> {
      co_await r.compute_seconds(0.0);  // jitter applies to model compute
      co_await r.compute(roofline::KernelSig{.name = "x",
                                             .flops_per_elem = 2.0,
                                             .bytes_per_elem = 16.0},
                         1e6);
    });
    EXPECT_GT(t, 0.0);
  }
}

TEST(World, DeterministicAcrossRuns) {
  auto run_once = [] {
    WorldOptions opts;
    opts.machine = arch::cte_arm();
    opts.compute_jitter = 0.02;
    World world(std::move(opts),
                Placement::per_node(arch::cte_arm().node, 8));
    return world.run([&](Rank& r) -> sim::Task<> {
      co_await r.compute(roofline::kernels::stream_triad(), 1e6 * (r.id() + 1));
      co_await r.allreduce(64);
      co_await r.alltoall(1024);
    });
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace ctesim::mpi
