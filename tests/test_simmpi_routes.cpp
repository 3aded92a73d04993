// Resolved exchange routes, memoized deliveries and resolved collective
// schedules (docs/ENGINE.md sections 7 to 9). A World memoizes a
// delivery's offsets from its send time only without congestion and
// without receive-degradation windows; a factor-1.0 window changes no
// transfer's numbers but turns the memo off, so a World with one is the
// computed reference. An exchange with no
// neighbours sends nothing and costs no event, but takes a route entry:
// two of them with fresh tags evict both of a rank's cached routes, so
// the exchange after them resolves everything from scratch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "arch/configs.h"
#include "roofline/kernel_library.h"
#include "simmpi/world.h"
#include "util/check.h"

namespace ctesim::mpi {
namespace {

/// What a run must reproduce: every rank span, each rank's exit time, the
/// makespan and the engine's event count.
struct Outcome {
  using Key = std::tuple<int, std::string, std::string, sim::Time, sim::Time,
                         std::uint64_t, int>;
  std::vector<Key> spans;  ///< sorted: a multiset
  std::vector<sim::Time> ends;  ///< by rank
  double makespan = 0.0;
  std::uint64_t events = 0;
  World::OpCounts counts;
};

enum class Mode {
  kMemo,      ///< as the library runs by default
  kComputed,  ///< a factor-1.0 window: every delivery evaluated
};

/// A rank body over the groups the run created (see run).
using GroupBody =
    std::function<sim::Task<>(Rank&, const std::vector<Group>& groups)>;

sim::Task<> stamped(const GroupBody& body, const std::vector<Group>& groups,
                    Rank& r, std::vector<sim::Time>& ends) {
  co_await body(r, groups);
  ends[static_cast<std::size_t>(r.id())] = r.now();
}

/// Runs `body` once, on a group per entry of `members` (global ranks),
/// created in order. Untraced, the outcome has no spans.
Outcome run(WorldOptions options, const Placement& placement, Mode mode,
            bool trace, const std::vector<std::vector<int>>& members,
            const GroupBody& body) {
  options.trace = trace;
  World world(std::move(options), placement);
  if (mode == Mode::kComputed) world.network().set_recv_degradation(0, 1.0);
  std::vector<Group> groups;
  for (const std::vector<int>& m : members) {
    groups.push_back(world.create_group(m));
  }
  Outcome out;
  out.ends.assign(static_cast<std::size_t>(world.num_ranks()), -1);
  out.makespan = world.run(
      [&](Rank& r) { return stamped(body, groups, r, out.ends); });
  out.events = world.engine().events_processed();
  out.counts = world.op_counts();
  if (!trace) return out;
  for (const trace::Span& s : world.recorder()->spans()) {
    if (s.track.kind != trace::TrackKind::kRank) continue;
    out.spans.emplace_back(s.track.index, s.name, s.detail, s.start, s.end,
                           s.bytes, s.peer);
  }
  std::sort(out.spans.begin(), out.spans.end());
  return out;
}

/// Runs `body` once, traced. `evict` tells the body whether to evict its
/// routes before every exchange (see evict_routes).
using Body = std::function<sim::Task<>(Rank&, bool evict)>;

Outcome run(const WorldOptions& options, const Placement& placement,
            Mode mode, bool evict, const Body& body) {
  return run(options, placement, mode, /*trace=*/true, {},
             [&body, evict](Rank& r, const std::vector<Group>&) {
               return body(r, evict);
             });
}

void expect_same(const Outcome& got, const Outcome& want) {
  EXPECT_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.ends, want.ends);
  ASSERT_EQ(got.spans.size(), want.spans.size());
  EXPECT_TRUE(got.spans == want.spans) << "span multisets differ";
}

/// Two neighbour-free exchanges on tags no other call uses: each takes
/// one of the rank's two route entries, so the next exchange misses.
sim::Task<> evict_routes(Rank& r) {
  co_await r.exchange({}, 0, /*tag=*/900);
  co_await r.exchange({}, 0, /*tag=*/901);
}

WorldOptions cte_options() {
  WorldOptions o;
  o.machine = arch::cte_arm();
  return o;
}

TEST(Routes, MemoMatchesComputedOnNemoPattern) {
  // NEMO's step: a 2D halo exchange, then allreduce(8), with jittered
  // compute so that every step sends at new times.
  constexpr int kRanks = 384;
  WorldOptions options = cte_options();
  options.compute_jitter = 0.05;
  const Placement placement =
      Placement::per_core(arch::cte_arm().node, kRanks);
  const Grid2d grid = Grid2d::near_square(kRanks);
  const Body body = [grid](Rank& r, bool) -> sim::Task<> {
    const std::vector<int> neighbors = grid.neighbors(r.id());
    for (int step = 0; step < 8; ++step) {
      co_await r.compute(roofline::kernels::stream_triad(),
                         1e4 * (1 + r.id() % 5));
      co_await r.exchange(neighbors, 4096, /*tag=*/1);
      co_await r.allreduce(8);
    }
  };
  const Outcome memo = run(options, placement, Mode::kMemo, false, body);
  const Outcome computed =
      run(options, placement, Mode::kComputed, false, body);
  expect_same(memo, computed);
  EXPECT_EQ(memo.counts.route_misses, static_cast<std::uint64_t>(kRanks));
  EXPECT_EQ(memo.counts.route_hits, 7u * kRanks);
  EXPECT_GT(memo.counts.delivery_memo_hits, memo.counts.delivery_evals);
  // The window turns the memo off; routes still hold the mailboxes.
  EXPECT_EQ(computed.counts.delivery_memo_hits, 0u);
  EXPECT_EQ(computed.counts.route_hits, memo.counts.route_hits);
  EXPECT_EQ(computed.counts.mailbox_scans, memo.counts.mailbox_scans);
}

TEST(Routes, MemoMatchesComputedOnHybridAlltoall) {
  // OpenIFS's transposition: 192 actors on 48 nodes, most node pairs seen
  // once per call, so most deliveries miss the table.
  WorldOptions options = cte_options();
  options.compute_jitter = 0.05;
  const Placement placement =
      Placement::hybrid(arch::cte_arm().node, 192, 4, 12);
  const Body body = [](Rank& r, bool) -> sim::Task<> {
    for (int call = 0; call < 3; ++call) {
      co_await r.compute(roofline::kernels::stream_triad(), 1e4);
      co_await r.alltoall(4096 << call);
    }
  };
  const Outcome memo = run(options, placement, Mode::kMemo, false, body);
  const Outcome computed =
      run(options, placement, Mode::kComputed, false, body);
  expect_same(memo, computed);
  EXPECT_EQ(memo.counts.delivery_evals + memo.counts.delivery_memo_hits,
            computed.counts.delivery_evals);
  EXPECT_EQ(computed.counts.delivery_memo_hits, 0u);
}

/// A route-cache scenario against its from-scratch reference: the same
/// body with every route evicted before each exchange, in a computed
/// World. Returns the scenario's outcome.
Outcome expect_matches_fresh(const WorldOptions& options,
                             const Placement& placement, const Body& body) {
  const Outcome got = run(options, placement, Mode::kMemo, false, body);
  const Outcome want = run(options, placement, Mode::kComputed, true, body);
  expect_same(got, want);
  return got;
}

TEST(Routes, NeighboursMutatedInPlaceResolveAgain) {
  // One vector, rewritten between calls: ring neighbours at distance 1,
  // 2, 3, then 1 again. The cache compares the ids, not the storage.
  const Placement placement = Placement::per_core(arch::cte_arm().node, 96);
  const Body body = [](Rank& r, bool evict) -> sim::Task<> {
    const int n = r.size();
    std::vector<int> ring(2);
    for (const int d : {1, 1, 2, 3, 1}) {
      ring[0] = (r.id() + n - d) % n;
      ring[1] = (r.id() + d) % n;
      if (evict) co_await evict_routes(r);
      co_await r.exchange(ring, 2048, /*tag=*/1);
      co_await r.compute_seconds(1e-6 * (r.id() % 3));
    }
  };
  const Outcome got = expect_matches_fresh(cte_options(), placement, body);
  EXPECT_EQ(got.counts.route_hits, 96u);  // only the repeated first call
  EXPECT_EQ(got.counts.route_misses, 4u * 96);
}

TEST(Routes, AlternatingTagsKeepBothRoutes) {
  // Alya's and Gromacs's pattern: the same neighbours on tags 1 and 2.
  constexpr int kRanks = 96;
  const Placement placement =
      Placement::per_core(arch::cte_arm().node, kRanks);
  const Body body = [](Rank& r, bool evict) -> sim::Task<> {
    const std::vector<int> neighbors = cube_neighbors(r.id(), r.size(), 6);
    for (int step = 0; step < 6; ++step) {
      if (evict) co_await evict_routes(r);
      co_await r.exchange(neighbors, 4096, /*tag=*/1);
      for (int iter = 0; iter < 3; ++iter) {
        if (evict) co_await evict_routes(r);
        co_await r.exchange(neighbors, 4096, /*tag=*/2);
        co_await r.allreduce(16);
      }
    }
  };
  const Outcome got = expect_matches_fresh(cte_options(), placement, body);
  EXPECT_EQ(got.counts.route_misses, 2u * kRanks);
  EXPECT_EQ(got.counts.route_hits, (6u * 4 - 2) * kRanks);
}

TEST(Routes, ChangedBytesResolveAgain) {
  // The same neighbours and tag with new sizes, one far above the eager
  // threshold (its sender stays coupled until delivery).
  const Placement placement = Placement::per_core(arch::cte_arm().node, 96);
  const Body body = [](Rank& r, bool evict) -> sim::Task<> {
    const std::vector<int> neighbors =
        Grid2d::near_square(r.size()).neighbors(r.id());
    for (const std::uint64_t bytes :
         {std::uint64_t{512}, std::uint64_t{512}, std::uint64_t{4} << 20,
          std::uint64_t{8192}, std::uint64_t{512}}) {
      if (evict) co_await evict_routes(r);
      co_await r.exchange(neighbors, bytes, /*tag=*/3);
    }
  };
  const Outcome got = expect_matches_fresh(cte_options(), placement, body);
  EXPECT_EQ(got.counts.route_hits, 96u);
}

TEST(Routes, CongestedWorldNeverMemoizes) {
  // Congestion books links in call order, so every delivery is computed;
  // routes still hold the mailboxes.
  WorldOptions options = cte_options();
  options.congestion = true;
  const Placement placement = Placement::per_core(arch::cte_arm().node, 96);
  const Body body = [](Rank& r, bool evict) -> sim::Task<> {
    const std::vector<int> neighbors =
        Grid2d::near_square(r.size()).neighbors(r.id());
    for (int step = 0; step < 4; ++step) {
      if (evict) co_await evict_routes(r);
      co_await r.exchange(neighbors, 64 << 10, /*tag=*/1);
      co_await r.allreduce(8);
    }
  };
  const Outcome got = expect_matches_fresh(options, placement, body);
  EXPECT_EQ(got.counts.delivery_memo_hits, 0u);
  EXPECT_EQ(got.counts.route_hits, 3u * 96);
  EXPECT_GT(got.counts.delivery_evals, 0u);
}

TEST(Routes, ArenaGrowthKeepsCachedRoutes) {
  // A route holds its mailboxes as arena indices. After it is cached,
  // eight sendrecvs per rank with new sources create 768 mailboxes
  // against the 192 the ring's routes made, so the arena reallocates at
  // least once; the cached routes must still reach the same mailboxes.
  const Placement placement = Placement::per_core(arch::cte_arm().node, 96);
  const Body body = [](Rank& r, bool evict) -> sim::Task<> {
    const int n = r.size();
    const std::vector<int> ring = {(r.id() + n - 1) % n, (r.id() + 1) % n};
    co_await r.exchange(ring, 4096, /*tag=*/1);
    for (int d = 2; d < 10; ++d) {
      co_await r.sendrecv((r.id() + d) % n, 512, (r.id() + n - d) % n,
                          /*tag=*/d);
    }
    for (int step = 0; step < 3; ++step) {
      if (evict) co_await evict_routes(r);
      co_await r.exchange(ring, 4096, /*tag=*/1);
      co_await r.compute_seconds(1e-6 * (r.id() % 3));
    }
  };
  const Outcome got = expect_matches_fresh(cte_options(), placement, body);
  EXPECT_EQ(got.counts.route_misses, 96u);
  EXPECT_EQ(got.counts.route_hits, 3u * 96);
  // Two scans per ring neighbour, once; two per sendrecv.
  EXPECT_EQ(got.counts.mailbox_scans, 96u * 2 * 2 + 96u * 8 * 2);
}

/// A ring exchange on 96 ranks. With `degrade`, rank 0 degrades node 1's
/// receive path after the first of four steps, while the run is in flight.
double run_ring(Mode mode, bool degrade) {
  World world(cte_options(), Placement::per_core(arch::cte_arm().node, 96));
  if (mode == Mode::kComputed) world.network().set_recv_degradation(0, 1.0);
  return world.run([&world, degrade](Rank& r) -> sim::Task<> {
    const int n = r.size();
    const std::vector<int> ring = {(r.id() + n - 1) % n, (r.id() + 1) % n};
    for (int step = 0; step < 4; ++step) {
      if (degrade && step == 1 && r.id() == 0) {
        world.network().add_recv_degradation(1, 0.25);
      }
      co_await r.exchange(ring, 64 << 10, /*tag=*/1);
    }
  });
}

TEST(Routes, NetworkChangedDuringMemoizingRunThrows) {
  // The kept offsets would ignore the new window: the run must not return
  // a stale makespan.
  EXPECT_THROW(run_ring(Mode::kMemo, /*degrade=*/true), ContractError);
}

TEST(Routes, NetworkChangedDuringComputedRunReachesDeliveries) {
  // A World that computes every delivery sees a window opened mid-run.
  EXPECT_GT(run_ring(Mode::kComputed, /*degrade=*/true),
            run_ring(Mode::kComputed, /*degrade=*/false));
}


/// A collective scenario on `members`' groups: the memoized run against
/// the computed one span for span, and an untraced memoized run, whose
/// replays record nothing, at the same exit times. A World that computes
/// every delivery never keeps a schedule. Returns the memoized outcome.
Outcome expect_schedules_match(const WorldOptions& options,
                               const Placement& placement,
                               const std::vector<std::vector<int>>& members,
                               const GroupBody& body) {
  const Outcome memo =
      run(options, placement, Mode::kMemo, /*trace=*/true, members, body);
  const Outcome computed =
      run(options, placement, Mode::kComputed, /*trace=*/true, members, body);
  expect_same(memo, computed);
  EXPECT_EQ(computed.counts.schedule_resolves, 0u);
  EXPECT_EQ(computed.counts.schedule_replays, 0u);
  const Outcome untraced =
      run(options, placement, Mode::kMemo, /*trace=*/false, members, body);
  EXPECT_EQ(untraced.makespan, computed.makespan);
  EXPECT_EQ(untraced.ends, computed.ends);
  EXPECT_EQ(untraced.counts.schedule_resolves, memo.counts.schedule_resolves);
  EXPECT_EQ(untraced.counts.schedule_replays, memo.counts.schedule_replays);
  return memo;
}

/// Global ranks 0 .. n-1 rotated by `shift`: a group of everyone whose
/// vranks sit on other nodes than the world group's.
std::vector<int> rotated(int n, int shift) {
  std::vector<int> members(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    members[static_cast<std::size_t>(v)] = (v + shift) % n;
  }
  return members;
}

TEST(Schedules, RepeatedHybridAlltoallReplays) {
  // OpenIFS's transposition, repeated at one size: 192 actors on 48
  // nodes, 36 672 messages a call. The first call resolves the rounds,
  // the others replay them from jittered entries.
  WorldOptions options = cte_options();
  options.compute_jitter = 0.05;
  const Placement placement =
      Placement::hybrid(arch::cte_arm().node, 192, 4, 12);
  const Outcome got = expect_schedules_match(
      options, placement, {}, [](Rank& r, const std::vector<Group>&)
                                  -> sim::Task<> {
        for (int call = 0; call < 4; ++call) {
          co_await r.compute(roofline::kernels::stream_triad(), 1e4);
          co_await r.alltoall(4096);
        }
      });
  EXPECT_EQ(got.counts.schedule_resolves, 1u);
  EXPECT_EQ(got.counts.schedule_replays, 3u);
}

TEST(Schedules, AlternatingAllreduceSizesResolveAgain) {
  // 384 ranks alternate allreduce(8), allreduce(64) and a barrier: the
  // two allreduces share their (context, op) slot, so each call finds
  // the other's bytes and resolves again; the barrier replays.
  constexpr int kLoops = 4;
  WorldOptions options = cte_options();
  options.compute_jitter = 0.05;
  const Placement placement = Placement::per_core(arch::cte_arm().node, 384);
  const Outcome got = expect_schedules_match(
      options, placement, {}, [](Rank& r, const std::vector<Group>&)
                                  -> sim::Task<> {
        for (int loop = 0; loop < kLoops; ++loop) {
          co_await r.compute(roofline::kernels::stream_triad(),
                             1e4 * (1 + r.id() % 5));
          co_await r.allreduce(8);
          co_await r.allreduce(64);
          co_await r.barrier();
        }
      });
  EXPECT_EQ(got.counts.schedule_resolves, 2u * kLoops + 1);
  EXPECT_EQ(got.counts.schedule_replays, kLoops - 1u);
}

TEST(Schedules, PerRankBytesKeyTheSchedule) {
  // Ranks pass different sizes, rotated between calls: every call has the
  // same multiset of sizes, but only a call whose every rank repeats its
  // own size replays. Calls use rotations 0, 0, 1, 0, 2, 2.
  const Placement placement = Placement::per_core(arch::cte_arm().node, 96);
  const Outcome got = expect_schedules_match(
      cte_options(), placement, {}, [](Rank& r, const std::vector<Group>&)
                                        -> sim::Task<> {
        for (const int shift : {0, 0, 1, 0, 2, 2}) {
          co_await r.compute_seconds(1e-6 * (r.id() % 3));
          co_await r.alltoall(std::uint64_t{512} << ((r.id() + shift) % 3));
          co_await r.allgather(std::uint64_t{64}
                               << ((r.id() + shift) % 3));
        }
      });
  EXPECT_EQ(got.counts.schedule_resolves, 2u * 4);
  EXPECT_EQ(got.counts.schedule_replays, 2u * 2);
}

TEST(Schedules, SubGroupsKeepTheirOwnSchedules) {
  // A rotated group of everyone has the world group's size and bytes but
  // other node pairs, and the even ranks are a smaller one; their calls
  // interleave with the world group's, each replaying its own rounds.
  constexpr int kRanks = 96;
  constexpr int kLoops = 3;
  WorldOptions options = cte_options();
  options.compute_jitter = 0.05;
  std::vector<int> evens;
  for (int r = 0; r < kRanks; r += 2) evens.push_back(r);
  const Outcome got = expect_schedules_match(
      options, Placement::per_core(arch::cte_arm().node, kRanks),
      {rotated(kRanks, 7), evens},
      [](Rank& r, const std::vector<Group>& g) -> sim::Task<> {
        const Group& everyone = g[0];
        const Group& half = g[1];
        for (int loop = 0; loop < kLoops; ++loop) {
          co_await r.compute(roofline::kernels::stream_triad(), 1e4);
          co_await r.allreduce(8);
          co_await r.allreduce(everyone, 8);
          if (half.contains(r.id())) co_await r.allreduce(half, 8);
          co_await r.barrier(everyone);
        }
      });
  EXPECT_EQ(got.counts.schedule_resolves, 4u);
  EXPECT_EQ(got.counts.schedule_replays, 4u * (kLoops - 1));
}

TEST(Schedules, OverTheEntryBudgetEvaluatesInFull) {
  // A World keeps at most 2^16 (round, vrank) entries. An alltoall over
  // 258 ranks needs 257 x 258 = 66 306 and is never kept; the barrier
  // beside it (9 x 258) is.
  const Outcome wide = expect_schedules_match(
      cte_options(), Placement::per_core(arch::cte_arm().node, 258), {},
      [](Rank& r, const std::vector<Group>&) -> sim::Task<> {
        for (int call = 0; call < 3; ++call) {
          co_await r.compute_seconds(1e-6 * (r.id() % 4));
          co_await r.alltoall(64);
          co_await r.barrier();
        }
      });
  EXPECT_EQ(wide.counts.schedule_resolves, 1u);
  EXPECT_EQ(wide.counts.schedule_replays, 2u);
  // Two 192-actor alltoalls need 36 672 entries each: resolving one drops
  // the other, so alternating them resolves every call.
  constexpr int kActors = 192;
  const Outcome both = expect_schedules_match(
      cte_options(), Placement::hybrid(arch::cte_arm().node, kActors, 4, 12),
      {rotated(kActors, 5)},
      [](Rank& r, const std::vector<Group>& g) -> sim::Task<> {
        for (int call = 0; call < 2; ++call) {
          co_await r.compute_seconds(1e-6 * (r.id() % 4));
          co_await r.alltoall(4096);
          co_await r.alltoall(g[0], 4096);
        }
      });
  EXPECT_EQ(both.counts.schedule_resolves, 4u);
  EXPECT_EQ(both.counts.schedule_replays, 0u);
}

TEST(Schedules, DegradedWorldTimesEveryCall) {
  // A receive window that opens between the second and third calls slows
  // those after it: a World with a window computes every delivery and
  // keeps no schedule to replay.
  World world(cte_options(), Placement::per_node(arch::cte_arm().node, 8));
  world.network().add_recv_degradation(1, 0.25, /*start_s=*/25e-3);
  std::vector<sim::Time> took;
  world.run([&took](Rank& r) -> sim::Task<> {
    for (int call = 0; call < 4; ++call) {
      co_await r.compute_seconds(10e-3);
      const sim::Time start = r.now();
      co_await r.alltoall(std::uint64_t{1} << 20);
      if (r.id() == 0) took.push_back(r.now() - start);
    }
  });
  ASSERT_EQ(took.size(), 4u);
  EXPECT_GT(took[2], took[1] + took[1] / 2);
  EXPECT_GT(took[3], took[1] + took[1] / 2);
  EXPECT_EQ(world.op_counts().schedule_resolves, 0u);
  EXPECT_EQ(world.op_counts().schedule_replays, 0u);
}

}  // namespace
}  // namespace ctesim::mpi
