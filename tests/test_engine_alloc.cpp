// Allocation accounting for the DES hot path. This binary replaces the
// global operator new/delete with counting versions, which makes the
// acceptance criterion of the engine rebuild directly testable: a
// steady-state schedule→dispatch cycle (closures within the InlineFunction
// SBO bound) and a steady-state spawn→resume→destroy cycle (frames within
// the pool's bucket range) perform ZERO heap allocations.
//
// Also home of the placement allocation check: one contiguous placement
// makes a fixed number of heap allocations, not one or more per seed.
//
// And of the incremental-reaping regression test: 100k short
// processes through one engine must keep the tracked-process table O(live),
// not O(ever spawned).
//
// And of the simulated-MPI checks: a mailbox owns no heap memory until a
// third message queues in it, a World's message traffic allocates per
// mailbox, not per message, and a congested transfer allocates only for
// links it has never seen.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "arch/configs.h"
#include "core/engine.h"
#include "core/frame_pool.h"
#include "core/task.h"
#include "net/congestion.h"
#include "net/network.h"
#include "net/topology.h"
#include "sched/allocator.h"
#include "simmpi/world.h"
#include "util/inline_function.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Counting global allocator. Defined once for this whole test binary; every
// path to the heap — std::function-style spills, vector growth, coroutine
// frames that miss the pool — lands here and is counted.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ctesim::sim {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(EngineAlloc, SteadyStateScheduleDispatchIsAllocationFree) {
  Engine engine;
  std::uint64_t acc = 0;
  constexpr int kBatch = 256;

  // Warm-up: sizes the event-queue array once. Steady state starts after.
  for (int i = 0; i < kBatch; ++i) {
    engine.schedule_in(i, [&acc] { ++acc; });
  }
  engine.run();

  const auto spills_before =
      util::inline_function_spill_count().load(std::memory_order_relaxed);
  const auto before = allocations();
  for (int round = 0; round < 16; ++round) {
    for (int i = 0; i < kBatch; ++i) {
      engine.schedule_in(i + 1, [&acc] { ++acc; });
    }
    engine.run();
  }
  const auto after = allocations();
  const auto spills_after =
      util::inline_function_spill_count().load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "schedule→dispatch allocated on the steady-state hot path";
  EXPECT_EQ(spills_after, spills_before)
      << "a small closure spilled the InlineFunction SBO";
  EXPECT_EQ(acc, static_cast<std::uint64_t>(kBatch) * 17);
}

Task<> short_process(Engine& engine, std::uint64_t* acc) {
  co_await engine.delay(1);
  ++*acc;
}

TEST(EngineAlloc, SteadyStateSpawnResumeIsAllocationFree) {
  Engine engine;
  std::uint64_t acc = 0;
  constexpr int kProcs = 64;

  // Warm-up: fills the frame pool's free lists and sizes the process table
  // and event queue. Two rounds, because a round's finished frames are only
  // swept back to the pool when the *next* round crosses the reap
  // threshold — steady state begins at round three.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kProcs; ++i) {
      engine.spawn(short_process(engine, &acc));
    }
    engine.run();
  }

  const auto before = allocations();
  for (int round = 0; round < 16; ++round) {
    for (int i = 0; i < kProcs; ++i) {
      engine.spawn(short_process(engine, &acc));
    }
    engine.run();
  }
  const auto after = allocations();

  EXPECT_EQ(after - before, 0u)
      << "spawn→resume→destroy allocated on the steady-state hot path";
  EXPECT_EQ(acc, static_cast<std::uint64_t>(kProcs) * 18);
}

TEST(EngineAlloc, FramePoolRecyclesAcrossEngines) {
  std::uint64_t acc = 0;
  {
    Engine engine;
    for (int i = 0; i < 32; ++i) engine.spawn(short_process(engine, &acc));
    engine.run();
  }
  const auto warm = frame_pool::stats();
  {
    Engine engine;
    for (int i = 0; i < 32; ++i) engine.spawn(short_process(engine, &acc));
    engine.run();
  }
  const auto reused = frame_pool::stats();
  EXPECT_GT(reused.pool_hits, warm.pool_hits)
      << "second wave of identical frames should come from the free lists";
  EXPECT_EQ(reused.pool_misses, warm.pool_misses)
      << "second wave should not have needed any fresh blocks";
  EXPECT_EQ(reused.live, warm.live)
      << "all frames must be returned once their engine is gone";
}

Task<> spawner(Engine& engine, int total, std::uint64_t* acc,
               std::size_t* max_tracked) {
  for (int i = 0; i < total; ++i) {
    engine.spawn(short_process(engine, acc));
    if (engine.tracked_processes() > *max_tracked) {
      *max_tracked = engine.tracked_processes();
    }
    co_await engine.delay(1);
  }
}

TEST(EngineAlloc, HundredThousandShortProcessesStayBounded) {
  // Regression test for the pre-reaping behaviour, where processes_ (and
  // with it unfinished_processes()/check_failures()) grew O(all ever
  // spawned) — a real leak for the long-running server. With incremental
  // reaping the table tracks the live population only.
  Engine engine;
  std::uint64_t acc = 0;
  std::size_t max_tracked = 0;
  constexpr int kTotal = 100000;
  engine.spawn(spawner(engine, kTotal, &acc, &max_tracked));
  engine.run();
  EXPECT_EQ(acc, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(engine.unfinished_processes(), 0u);
  // ~2 processes are ever live at once; the reap threshold floor is 64, so
  // anything near kTotal means reaping broke. 256 leaves generous slack.
  EXPECT_LT(max_tracked, 256u);
  EXPECT_LT(engine.tracked_processes(), 256u);
  EXPECT_GE(engine.events_processed(), static_cast<std::uint64_t>(kTotal));
}

TEST(EngineAlloc, ContiguousPlacementAllocatesOnlyItsResult) {
  // Half-busy 192-node CTE-Arm torus: ~96 free seeds, each grown into a
  // ball and scored. The BFS and the score run on the allocator's own
  // scratch, so the only allocation is the returned node list.
  const net::TorusTopology torus({4, 2, 2, 2, 3, 2});
  sched::Allocator alloc(torus);
  std::vector<int> busy;
  for (int node = 0; node < torus.num_nodes(); node += 2) {
    busy.push_back(node);
  }
  alloc.occupy(busy);
  for (const int count : {1, 7, 24}) {
    const auto before = allocations();
    const auto nodes = alloc.allocate(count, sched::Policy::kContiguous);
    const auto after = allocations();
    ASSERT_EQ(nodes.size(), static_cast<std::size_t>(count));
    EXPECT_EQ(after - before, 1u) << count << "-node placement";
    const auto hops_before = allocations();
    const double mean = alloc.mean_pairwise_hops(nodes);
    const auto hops_after = allocations();
    EXPECT_EQ(hops_after, hops_before) << "mean_pairwise_hops allocated";
    EXPECT_GE(mean, count > 1 ? 1.0 : 0.0);
    alloc.release(nodes);
  }
}

TEST(EngineAlloc, CongestedTransferOverKnownLinksAllocatesNothing) {
  // Once a route's links have entries in the busy map, a congested
  // transfer over them walks the route in place.
  net::Network network(arch::cte_arm().interconnect, 192);
  net::CongestionModel model(network);
  model.transfer_at(0, 191, 4096, 0);
  const auto before = allocations();
  for (int i = 1; i <= 16; ++i) {
    model.transfer_at(0, 191, 4096, Time{i} * 1000000);
  }
  EXPECT_EQ(allocations() - before, 0u);
}

/// Heap allocations of one whole 2-rank World (set-up, run, tear-down).
/// For `steps` steps, rank 0 sends `depth` messages on each of tags 0 to
/// `tags` - 1 and a token on tag `tags`; rank 1 takes the token, receives
/// `depth` messages from each tag and acknowledges on tag `tags` + 1
/// before the next step. Rank 0 sends `kept` more messages on tag 0
/// first, which rank 1 receives only after the last step. So a data
/// mailbox holds `depth` messages at its deepest (tag 0: `kept` + `depth`)
/// and tag 0 never holds fewer than `kept`.
std::uint64_t mailbox_world_allocations(int tags, int depth, int steps,
                                        int kept = 0) {
  const auto before = allocations();
  {
    mpi::WorldOptions options;
    options.machine = arch::cte_arm();
    mpi::World world(std::move(options),
                     mpi::Placement::per_node(arch::cte_arm().node, 2));
    world.run([=](mpi::Rank& rank) -> Task<> {
      if (rank.id() == 0) {
        for (int i = 0; i < kept; ++i) co_await rank.send(1, 8);
        for (int s = 0; s < steps; ++s) {
          for (int tag = 0; tag < tags; ++tag) {
            for (int i = 0; i < depth; ++i) co_await rank.send(1, 8, tag);
          }
          co_await rank.send(1, 8, tags);
          co_await rank.recv(1, tags + 1);
        }
      } else {
        for (int s = 0; s < steps; ++s) {
          co_await rank.recv(0, tags);
          for (int tag = 0; tag < tags; ++tag) {
            for (int i = 0; i < depth; ++i) co_await rank.recv(0, tag);
          }
          co_await rank.send(0, 8, tags + 1);
        }
        for (int i = 0; i < kept; ++i) co_await rank.recv(0);
      }
    });
  }
  return allocations() - before;
}

TEST(EngineAlloc, EmptyChannelAllocatesNothing) {
  // 32 more mailboxes, each filled with one message and drained, cost only
  // one doubling of rank 1's key array and one of the World's mailbox
  // arena: a mailbox itself owns no heap memory.
  mailbox_world_allocations(32, 1, 1);  // warm up the frame pool
  const std::uint64_t few = mailbox_world_allocations(32, 1, 1);
  const std::uint64_t many = mailbox_world_allocations(64, 1, 1);
  ASSERT_GE(many, few);
  EXPECT_LE(many - few, 2u);
}

TEST(EngineAlloc, ShallowChannelKeepsItsValuesInline) {
  // A backlog of two stays in a mailbox's inline slots; the third message
  // spills.
  mailbox_world_allocations(4, 1, 20);  // warm up the frame pool
  const std::uint64_t one = mailbox_world_allocations(4, 1, 20);
  const std::uint64_t two = mailbox_world_allocations(4, 2, 20);
  const std::uint64_t three = mailbox_world_allocations(4, 3, 20);
  EXPECT_EQ(two, one) << "a second queued message allocated";
  EXPECT_GT(three, two) << "a third queued message did not spill";
}

TEST(EngineAlloc, UndrainedChannelReusesItsStorage) {
  // Five messages stay queued throughout, so the spill never drains and
  // never resets; compaction alone must keep it inside the storage it
  // already has.
  mailbox_world_allocations(1, 1, 10, 5);  // warm up the frame pool
  const std::uint64_t short_run = mailbox_world_allocations(1, 1, 10, 5);
  const std::uint64_t long_run = mailbox_world_allocations(1, 1, 1000, 5);
  EXPECT_EQ(long_run, short_run);
}

/// Heap allocations of one whole 384-rank World (set-up, run, tear-down)
/// doing `steps` rounds of ring exchange + allreduce(8).
std::uint64_t ring_world_allocations(int steps) {
  const auto before = allocations();
  {
    mpi::WorldOptions options;
    options.machine = arch::cte_arm();
    auto placement = mpi::Placement::per_core(options.machine.node, 384);
    mpi::World world(std::move(options), std::move(placement));
    world.run([steps](mpi::Rank& rank) -> Task<> {
      const int n = rank.size();
      const std::vector<int> ring{(rank.id() + n - 1) % n,
                                  (rank.id() + 1) % n};
      for (int s = 0; s < steps; ++s) {
        co_await rank.exchange(ring, 4096, /*tag=*/1);
        co_await rank.allreduce(8);
      }
    });
  }
  return allocations() - before;
}

TEST(EngineAlloc, WorldMessagesDoNotAllocatePerStep) {
  // Every mailbox exists after the first step; later steps reuse the
  // mailboxes' storage. Warm up the coroutine frame pool first.
  ring_world_allocations(10);
  const std::uint64_t short_run = ring_world_allocations(10);
  const std::uint64_t long_run = ring_world_allocations(40);
  ASSERT_GE(long_run, short_run);
  EXPECT_LT(long_run - short_run, 384u)
      << "30 more steps cost " << (long_run - short_run)
      << " allocations: at least one per rank";
}

}  // namespace
}  // namespace ctesim::sim
