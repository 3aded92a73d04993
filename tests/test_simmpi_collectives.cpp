// Oracle tests of the scheduled collectives. Without congestion,
// barrier, allreduce, allgather, alltoall and reduce_scatter send no
// message: every rank parks and the last one in computes all exit times
// and spans at once (docs/ENGINE.md section 9). Each test here rebuilds
// those algorithms from the public send/recv/sendrecv calls with user
// tags and checks that both give every rank the same span sequence
// (kind, start, end, bytes, peer) and the same exit times.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/configs.h"
#include "roofline/kernel_library.h"
#include "simmpi/world.h"

namespace ctesim::mpi {
namespace {

enum class Op { kBarrier, kAllreduce, kAllgather, kAlltoall, kReduceScatter };

/// One collective call of a test script, on the world group or on the
/// script's sub-group.
struct Call {
  Op op;
  std::uint64_t bytes = 0;
  bool on_subgroup = false;
};

struct Script {
  WorldOptions options;
  Placement placement = Placement::per_node(arch::cte_arm().node, 2);
  std::vector<Call> calls;
  /// Members of the sub-group, in the group's (possibly shuffled) order.
  std::vector<int> subgroup;
  /// Model compute (jittered when options.compute_jitter > 0) before each
  /// call, scaled by rank id so that entries are skewed.
  bool compute = false;
  /// A user-tag ring exchange after each call.
  bool p2p = false;
  /// When set, a receive window on node 1 (factor 0.25) opens at this
  /// simulated time, in seconds.
  std::optional<double> window_from_s;
};

// --- the oracle: the algorithms as point-to-point calls ------------------

/// A user tag per (group, op), away from the ring exchange's tag 1.
int oracle_tag(const Group& group, Op op) {
  return 1000 + group.context() * 16 + static_cast<int>(op);
}

sim::Task<> oracle_barrier(Rank& r, const Group& g, int tag) {
  const int p = g.size();
  const int me = g.vrank_of(r.id());
  for (int k = 1; k < p; k <<= 1) {
    co_await r.sendrecv(g.global((me + k) % p), 1, g.global((me - k + p) % p),
                        tag);
  }
}

sim::Task<> oracle_ring(Rank& r, const Group& g, std::uint64_t bytes,
                        int steps, int tag) {
  const int p = g.size();
  const int me = g.vrank_of(r.id());
  for (int step = 0; step < steps; ++step) {
    co_await r.sendrecv(g.global((me + 1) % p), bytes,
                        g.global((me - 1 + p) % p), tag);
  }
}

sim::Task<> oracle_allreduce(Rank& r, const Group& g, std::uint64_t bytes,
                             std::uint64_t ring_threshold, int tag) {
  const int p = g.size();
  if (p == 1) co_return;
  if (bytes > ring_threshold && p > 2) {
    const std::uint64_t chunk =
        std::max<std::uint64_t>(1, bytes / static_cast<std::uint64_t>(p));
    co_await oracle_ring(r, g, chunk, 2 * (p - 1), tag);
    co_return;
  }
  const int me = g.vrank_of(r.id());
  int p2 = 1;
  while (p2 * 2 <= p) p2 *= 2;
  const int rem = p - p2;
  int newrank = me - rem;
  if (me < 2 * rem) {
    if (me % 2 == 0) {
      co_await r.send(g.global(me + 1), bytes, tag);
      newrank = -1;
    } else {
      co_await r.recv(g.global(me - 1), tag);
      newrank = me / 2;
    }
  }
  if (newrank >= 0) {
    for (int mask = 1; mask < p2; mask <<= 1) {
      const int partner_new = newrank ^ mask;
      const int partner =
          partner_new < rem ? partner_new * 2 + 1 : partner_new + rem;
      co_await r.sendrecv(g.global(partner), bytes, g.global(partner), tag);
    }
  }
  if (me < 2 * rem) {
    if (me % 2 == 1) {
      co_await r.send(g.global(me - 1), bytes, tag);
    } else {
      co_await r.recv(g.global(me + 1), tag);
    }
  }
}

sim::Task<> oracle_alltoall(Rank& r, const Group& g, std::uint64_t bytes,
                            int tag) {
  const int p = g.size();
  const int me = g.vrank_of(r.id());
  for (int i = 1; i < p; ++i) {
    co_await r.sendrecv(g.global((me + i) % p), bytes,
                        g.global((me - i + p) % p), tag);
  }
}

sim::Task<> oracle_reduce_scatter(Rank& r, const Group& g,
                                  std::uint64_t total, int tag) {
  const int p = g.size();
  const int me = g.vrank_of(r.id());
  if ((p & (p - 1)) == 0) {
    std::uint64_t bytes = total / 2;
    for (int mask = p >> 1; mask > 0; mask >>= 1) {
      const int peer = g.global(me ^ mask);
      co_await r.sendrecv(peer, std::max<std::uint64_t>(1, bytes), peer,
                          tag);
      bytes /= 2;
    }
  } else {
    const std::uint64_t chunk =
        std::max<std::uint64_t>(1, total / static_cast<std::uint64_t>(p));
    co_await oracle_ring(r, g, chunk, p - 1, tag);
  }
}

sim::Task<> oracle_call(Rank& r, const Group& g, Call call,
                        std::uint64_t ring_threshold) {
  const int tag = oracle_tag(g, call.op);
  switch (call.op) {
    case Op::kBarrier:
      co_await oracle_barrier(r, g, tag);
      break;
    case Op::kAllreduce:
      co_await oracle_allreduce(r, g, call.bytes, ring_threshold, tag);
      break;
    case Op::kAllgather:
      co_await oracle_ring(r, g, call.bytes, g.size() - 1, tag);
      break;
    case Op::kAlltoall:
      co_await oracle_alltoall(r, g, call.bytes, tag);
      break;
    case Op::kReduceScatter:
      co_await oracle_reduce_scatter(r, g, call.bytes, tag);
      break;
  }
}

sim::Task<> library_call(Rank& r, const Group& g, Call call) {
  switch (call.op) {
    case Op::kBarrier:
      co_await r.barrier(g);
      break;
    case Op::kAllreduce:
      co_await r.allreduce(g, call.bytes);
      break;
    case Op::kAllgather:
      co_await r.allgather(g, call.bytes);
      break;
    case Op::kAlltoall:
      co_await r.alltoall(g, call.bytes);
      break;
    case Op::kReduceScatter:
      co_await r.reduce_scatter(g, call.bytes);
      break;
  }
}

// --- running a script both ways -----------------------------------------

struct Outcome {
  std::vector<std::vector<trace::Span>> spans;  ///< per rank, in order
  std::vector<std::vector<sim::Time>> exits;    ///< per rank, per call
  double makespan = 0.0;
  double queueing = 0.0;
};

Outcome run_script(const Script& script, bool oracle) {
  WorldOptions options = script.options;
  options.trace = true;
  const std::uint64_t threshold = options.allreduce_ring_threshold;
  World world(std::move(options), script.placement);
  if (script.window_from_s) {
    world.network().add_recv_degradation(1, 0.25, *script.window_from_s);
  }
  const int n = world.num_ranks();
  const Group sub = world.create_group(
      script.subgroup.empty() ? std::vector<int>{0} : script.subgroup);
  Outcome out;
  out.exits.resize(static_cast<std::size_t>(n));
  out.makespan = world.run([&](Rank& r) -> sim::Task<> {
    const std::vector<int> ring{(r.id() + n - 1) % n, (r.id() + 1) % n};
    auto& exits = out.exits[static_cast<std::size_t>(r.id())];
    for (const Call& call : script.calls) {
      if (script.compute) {
        co_await r.compute(roofline::kernels::stream_triad(),
                           1e3 * (1 + r.id() % 7));
      }
      const Group& g = call.on_subgroup ? sub : r.world().world_group();
      if (g.contains(r.id())) {
        if (oracle) {
          co_await oracle_call(r, g, call, threshold);
        } else {
          co_await library_call(r, g, call);
        }
      }
      exits.push_back(r.now());
      if (script.p2p) co_await r.exchange(ring, 2048, /*tag=*/1);
    }
  });
  out.spans.resize(static_cast<std::size_t>(n));
  for (const trace::Span& s : world.recorder()->spans()) {
    if (s.track.kind != trace::TrackKind::kRank) continue;
    out.spans[static_cast<std::size_t>(s.track.index)].push_back(s);
  }
  out.queueing = world.network_queueing_seconds();
  return out;
}

/// Runs `script` on the library and on the oracle and compares every
/// rank's spans and exit times. Returns the library's outcome.
Outcome expect_matches_oracle(const Script& script) {
  const Outcome got = run_script(script, /*oracle=*/false);
  const Outcome want = run_script(script, /*oracle=*/true);
  EXPECT_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.exits, want.exits);
  EXPECT_EQ(got.queueing, want.queueing);
  EXPECT_EQ(got.spans.size(), want.spans.size());
  for (std::size_t r = 0; r < got.spans.size() && r < want.spans.size();
       ++r) {
    const auto& a = got.spans[r];
    const auto& b = want.spans[r];
    EXPECT_EQ(a.size(), b.size()) << "rank " << r;
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
      const bool same = a[i].name == b[i].name && a[i].start == b[i].start &&
                        a[i].end == b[i].end && a[i].bytes == b[i].bytes &&
                        a[i].peer == b[i].peer && a[i].detail == b[i].detail;
      EXPECT_TRUE(same) << "rank " << r << " span " << i << ": got "
                        << a[i].name << " [" << a[i].start << ", "
                        << a[i].end << "] " << a[i].bytes << " B peer "
                        << a[i].peer << ", want " << b[i].name << " ["
                        << b[i].start << ", " << b[i].end << "] "
                        << b[i].bytes << " B peer " << b[i].peer;
      if (!same) return got;  // one mismatch is enough to read
    }
  }
  return got;
}

WorldOptions cte_options() {
  WorldOptions o;
  o.machine = arch::cte_arm();
  return o;
}

/// Every scheduled collective once, then allreduce and barrier again
/// back to back.
std::vector<Call> every_collective() {
  return {{Op::kBarrier, 0},         {Op::kAllreduce, 8},
          {Op::kAllgather, 512},     {Op::kAlltoall, 256},
          {Op::kReduceScatter, 4096}, {Op::kAllreduce, 8},
          {Op::kAllreduce, 64},      {Op::kBarrier, 0}};
}

TEST(CollectiveOracle, EverySizeFoldsAndHalvesLikeMessages) {
  // 6, 13, 100 and 384 fold and unfold around recursive doubling and take
  // reduce_scatter's ring; 2 halves. 384 ranks fill 8 nodes, so one call
  // mixes shared-memory and network messages.
  for (int p : {2, 6, 13, 100, 384}) {
    SCOPED_TRACE("p = " + std::to_string(p));
    Script script;
    script.options = cte_options();
    script.placement = Placement::per_core(arch::cte_arm().node, p);
    script.calls = every_collective();
    expect_matches_oracle(script);
  }
}

TEST(CollectiveOracle, PowerOfTwoReduceScatterHalves) {
  for (int p : {4, 64}) {
    SCOPED_TRACE("p = " + std::to_string(p));
    Script script;
    script.options = cte_options();
    script.placement = Placement::per_node(arch::cte_arm().node, p);
    script.calls = {{Op::kReduceScatter, 1 << 20},
                    {Op::kReduceScatter, 3},
                    {Op::kAllreduce, 8}};
    expect_matches_oracle(script);
  }
}

TEST(CollectiveOracle, RingAllreduceAboveTheThreshold) {
  for (int p : {2, 6, 13}) {
    SCOPED_TRACE("p = " + std::to_string(p));
    Script script;
    script.options = cte_options();
    script.options.allreduce_ring_threshold = 4096;
    script.placement = Placement::per_node(arch::cte_arm().node, p);
    // 1 MiB rings (p > 2; p = 2 stays recursive doubling), then 4096 B,
    // which is not above the threshold, then 4097 B, which is.
    script.calls = {{Op::kAllreduce, 1 << 20},
                    {Op::kAllreduce, 4096},
                    {Op::kAllreduce, 4097}};
    expect_matches_oracle(script);
  }
}

TEST(CollectiveOracle, ReorderedSubgroupInterleavedWithTheWorld) {
  Script script;
  script.options = cte_options();
  script.placement = Placement::per_core(arch::cte_arm().node, 60);
  script.subgroup = {57, 3, 12, 48, 1, 30, 29, 44, 7, 58, 21};
  script.calls = {{Op::kAllreduce, 8, true},  {Op::kAllreduce, 8},
                  {Op::kAlltoall, 128, true}, {Op::kBarrier, 0},
                  {Op::kBarrier, 0, true},    {Op::kAllgather, 64, true},
                  {Op::kReduceScatter, 999, true},
                  {Op::kAllreduce, 16}};
  expect_matches_oracle(script);
}

TEST(CollectiveOracle, SkewedEntriesFromComputeJitter) {
  Script script;
  script.options = cte_options();
  script.options.compute_jitter = 0.3;
  script.options.seed = 7;
  script.placement = Placement::per_core(arch::cte_arm().node, 100);
  script.calls = every_collective();
  script.compute = true;
  expect_matches_oracle(script);
}

TEST(CollectiveOracle, HybridMultiNodePlacement) {
  // 4 ranks x 12 threads per node over 6 nodes: shared-memory and network
  // messages inside one call.
  Script script;
  script.options = cte_options();
  script.options.compute_jitter = 0.1;
  script.placement = Placement::hybrid(arch::cte_arm().node, 24, 4, 12);
  script.calls = every_collective();
  script.compute = true;
  expect_matches_oracle(script);
}

TEST(CollectiveOracle, UserTagMessagesBetweenCalls) {
  Script script;
  script.options = cte_options();
  script.options.compute_jitter = 0.2;
  script.placement = Placement::per_core(arch::cte_arm().node, 96);
  script.calls = every_collective();
  script.compute = true;
  script.p2p = true;
  expect_matches_oracle(script);
}

TEST(CollectiveOracle, ReceiveWindowOpeningMidRun) {
  // A World with a window keeps no schedule: every round is resolved at
  // its ranks' times, so the calls after the window opens, halfway
  // through the run without it, slow down as their messages do.
  Script script;
  script.options = cte_options();
  script.options.compute_jitter = 0.2;
  script.placement = Placement::per_node(arch::cte_arm().node, 8);
  for (int i = 0; i < 3; ++i) {
    for (const Call& call : every_collective()) script.calls.push_back(call);
  }
  script.compute = true;
  script.p2p = true;
  const double without = run_script(script, /*oracle=*/false).makespan;
  script.window_from_s = without / 2;
  const Outcome got = expect_matches_oracle(script);
  EXPECT_GT(got.makespan, without);
}

TEST(CollectiveOracle, CongestionKeepsTheMessagePath) {
  // CongestionModel books links in call order, so a congested World runs
  // the collectives as messages: they queue, and they still match the
  // oracle call for call.
  Script script;
  script.options = cte_options();
  script.options.congestion = true;
  script.placement = Placement::per_node(arch::cte_arm().node, 16);
  script.calls = {{Op::kAlltoall, 1 << 20},
                  {Op::kAllreduce, 1 << 20},
                  {Op::kAllgather, 256 << 10},
                  {Op::kBarrier, 0}};
  const Outcome got = expect_matches_oracle(script);
  EXPECT_GT(got.queueing, 0.0);
}

TEST(CollectiveOracle, ARankThatNeverEntersIsADeadlock) {
  for (Op op : {Op::kBarrier, Op::kAllreduce, Op::kAlltoall}) {
    World world(cte_options(), Placement::per_node(arch::cte_arm().node, 5));
    EXPECT_THROW(world.run([op](Rank& r) -> sim::Task<> {
      if (r.id() == 3) co_return;
      co_await library_call(r, r.world().world_group(), Call{op, 8});
    }),
                 std::runtime_error);
  }
}

TEST(Collective, OneWakePerRankPerCall) {
  // 384 spawns, the only engine events; then each allreduce parks every
  // rank without an event and wakes each once from the run queue, its
  // clock already at its exit time. The first call resolves the schedule
  // and the other four replay it.
  constexpr int kRanks = 384;
  constexpr int kCalls = 5;
  World world(cte_options(),
              Placement::per_core(arch::cte_arm().node, kRanks));
  world.run([](Rank& rank) -> sim::Task<> {
    for (int i = 0; i < kCalls; ++i) co_await rank.allreduce(8);
  });
  EXPECT_EQ(world.engine().events_processed(),
            static_cast<std::uint64_t>(kRanks));
  EXPECT_EQ(world.op_counts().wakes,
            static_cast<std::uint64_t>(kRanks * kCalls));
  EXPECT_EQ(world.op_counts().handoffs, 0u);
  EXPECT_EQ(world.op_counts().schedule_resolves, 1u);
  EXPECT_EQ(world.op_counts().schedule_replays,
            static_cast<std::uint64_t>(kCalls - 1));
}

}  // namespace
}  // namespace ctesim::mpi
