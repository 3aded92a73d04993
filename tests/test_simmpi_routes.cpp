// Resolved exchange routes and memoized deliveries (docs/ENGINE.md
// sections 7 to 9). A World memoizes a delivery's offsets from its send
// time only without congestion and without receive-degradation windows;
// a factor-1.0 window changes no transfer's numbers but turns the memo
// off, so a World with one is the computed reference. An exchange with no
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

/// What a run must reproduce: every rank span, the makespan and the
/// engine's event count.
struct Outcome {
  using Key = std::tuple<int, std::string, std::string, sim::Time, sim::Time,
                         std::uint64_t, int>;
  std::vector<Key> spans;  ///< sorted: a multiset
  double makespan = 0.0;
  std::uint64_t events = 0;
  World::OpCounts counts;
};

enum class Mode {
  kMemo,      ///< as the library runs by default
  kComputed,  ///< a factor-1.0 window: every delivery evaluated
};

/// Runs `body` once. `evict` tells the body whether to evict its routes
/// before every exchange (see evict_routes).
using Body = std::function<sim::Task<>(Rank&, bool evict)>;

Outcome run(WorldOptions options, const Placement& placement, Mode mode,
            bool evict, const Body& body) {
  options.trace = true;
  World world(std::move(options), placement);
  if (mode == Mode::kComputed) world.network().set_recv_degradation(0, 1.0);
  Outcome out;
  out.makespan = world.run([&](Rank& r) { return body(r, evict); });
  out.events = world.engine().events_processed();
  out.counts = world.op_counts();
  for (const trace::Span& s : world.recorder()->spans()) {
    if (s.track.kind != trace::TrackKind::kRank) continue;
    out.spans.emplace_back(s.track.index, s.name, s.detail, s.start, s.end,
                           s.bytes, s.peer);
  }
  std::sort(out.spans.begin(), out.spans.end());
  return out;
}

void expect_same(const Outcome& got, const Outcome& want) {
  EXPECT_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.events, want.events);
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

}  // namespace
}  // namespace ctesim::mpi
