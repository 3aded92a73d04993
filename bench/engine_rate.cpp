// Engine speed: raw discrete-event throughput of the simulation core
// (ROADMAP item 1), reported in the RIKEN Post-K-simulator style: an
// explicit events/sec figure per scenario, defended in CI.
//
// Layers of benchmarks:
//   - Engine microbenchmarks (BM_EventQueuePushPop, BM_ScheduleDispatch,
//     BM_SpawnResume) isolate the hot path itself: the 4-ary event queue,
//     InlineFunction dispatch and pooled coroutine frames. The *Legacy
//     variant re-implements the pre-rebuild loop (std::priority_queue of
//     std::function callbacks, copy-then-pop) in-tree, so the speedup is a
//     number measured on this machine today, not a changelog memory —
//     tools/perf/check_engine_rate.py gates dispatch/legacy >= 1.8x at
//     16 timers, on the medians of repeated runs.
//   - Placement benchmarks (BM_TorusHops, BM_AllocateContiguous at 192,
//     1536 and 12288 nodes, BM_AllocateContiguousNearFull and
//     BM_AllocateContiguousSparse, BM_LargestFreeBlock) time the
//     topology and allocator layer that dominates the cluster benchmarks,
//     and how it grows with machine size and load.
//   - BM_BackfillScan times the EASY queue's next-startable scan on a deep
//     queue where nothing can start.
//   - BM_MailboxPingPong (384 and 9216 ranks) times the simulated-MPI
//     layer: message matching through World's mailboxes, in messages/sec.
//     BM_MailboxPingPongComputed/384 is its twin with the delivery memo
//     off, timed in the same run; check_engine_rate.py gates their ratio.
//   - BM_Collective times the scheduled collectives alone: allreduce(8) at
//     384 and 9216 ranks and OpenIFS's alltoall over 192 one-per-node
//     actors, in the messages/sec their algorithms stand for.
//   - BM_RankCompute/384 times Rank::compute and compute_seconds alone,
//     in calls/sec: NEMO's compute pattern with no message.
//   - Cluster benchmarks (BM_ClusterEngine, BM_ClusterEnginePower) run the
//     canonical 192-node CTE-Arm batch study end to end. They report both
//     events/sec from ClusterResult::engine_events (raw engine dispatches —
//     the number that matches what the engine actually does) and the
//     job-level jobs/sec alongside.
//
// Besides the normal google-benchmark output, `--out=PATH` emits a
// machine-readable summary that CI uploads as an artifact; without it no
// file is written, so a filtered run cannot overwrite the committed
// baseline. Refresh that with `--out=BENCH_engine.json` from the repo root.
// A benchmark run with repetitions (`--benchmark_repetitions`, or its own
// pin) appears there once, as the median over its repetitions.
// The flag is stripped from argv before benchmark::Initialize sees it.
// --benchmark_color is read here as well, since main builds the console
// reporter itself.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include <unistd.h>

#include "apps/openifs.h"
#include "arch/configs.h"
#include "batch/cluster.h"
#include "batch/queue.h"
#include "batch/workload.h"
#include "core/engine.h"
#include "core/event_queue.h"
#include "core/task.h"
#include "net/topology.h"
#include "power/power_model.h"
#include "roofline/kernel_library.h"
#include "sched/allocator.h"
#include "simmpi/world.h"
#include "util/json.h"
#include "util/rng.h"

namespace {

using namespace ctesim;

/// Repetitions of every row a ratio gate of check_engine_rate.py reads
/// (gates 4 and 5): the summary keeps each one's median, so one slow
/// repetition cannot fail the gate.
constexpr int kGateRepetitions = 5;

// ---------------------------------------------------------------------------
// Legacy engine loop, kept in-tree as the measured baseline. This is the
// exact pre-rebuild shape of src/core/engine.{h,cpp}: a std::priority_queue
// of events whose callbacks are std::function (heap-allocated closures past
// 16 bytes on libstdc++), popped with the copy-then-pop idiom
// `Event event = queue_.top(); queue_.pop();` that the move-out pop of
// sim::EventQueue eliminated. Do NOT "fix" this copy: it is the baseline.
// ---------------------------------------------------------------------------
class LegacyEngine {
 public:
  sim::Time now() const { return now_; }

  void schedule_in(sim::Time delay, std::function<void()> fn) {
    queue_.push(Event{now_ + delay, next_seq_++, std::move(fn)});
  }

  std::uint64_t run() {
    std::uint64_t dispatched = 0;
    while (!queue_.empty()) {
      Event event = queue_.top();  // the per-dispatch copy being measured
      queue_.pop();
      now_ = event.time;
      ++dispatched;
      event.fn();
    }
    return dispatched;
  }

 private:
  struct Event {
    sim::Time time;
    std::uint64_t seq;
    std::function<void()> fn;

    bool operator<(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  std::priority_queue<Event> queue_;
  sim::Time now_ = 0;
  std::uint64_t next_seq_ = 0;
};

// ---------------------------------------------------------------------------
// BM_EventQueuePushPop: steady-state push+pop cycles on a pre-filled queue
// at several depths — the pure data-structure cost, one cycle per
// iteration. Times are splitmix-random, so the heap actually sifts.
// ---------------------------------------------------------------------------
void BM_EventQueuePushPop(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  sim::EventQueue queue;
  queue.reserve(depth + 1);
  std::uint64_t seq = 0;
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    queue.push({static_cast<sim::Time>(rng.next_u64() % 1000000), seq++,
                [&sink] { ++sink; }});
  }
  for (auto _ : state) {
    auto event = queue.pop();
    // Re-schedule at a time >= the popped one, like a real timer reload.
    queue.push({event.time + static_cast<sim::Time>(rng.next_u64() % 1000),
                seq++, std::move(event.fn)});
    benchmark::DoNotOptimize(queue.size());
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_EventQueuePushPop)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

// ---------------------------------------------------------------------------
// BM_ScheduleDispatch vs BM_ScheduleDispatchLegacy: the full schedule ->
// queue -> dispatch cycle through the engine, driven by self-reloading
// timers (the dominant event shape in batch/simmpi studies). Identical
// workload on both variants; the ratio is the rebuild's headline number.
// ---------------------------------------------------------------------------
constexpr int kReloads = 64;       ///< firings per timer per run

template <typename EngineT>
struct Timer {
  EngineT* engine;
  std::uint64_t* fired;
  int remaining;
  sim::Time period;

  void operator()() {
    ++*fired;
    if (--remaining > 0) {
      engine->schedule_in(period, Timer{engine, fired, remaining, period});
    }
  }
};

void BM_ScheduleDispatch(benchmark::State& state) {
  static_assert(
      sim::Engine::Callback::fits_inline<Timer<sim::Engine>>,
      "the benchmark timer must exercise the inline (allocation-free) path");
  const int timers = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t fired = 0;
    for (int i = 0; i < timers; ++i) {
      engine.schedule_in(i + 1, Timer<sim::Engine>{&engine, &fired,
                                                   kReloads,
                                                   sim::Time{100 + i}});
    }
    engine.run();
    events += fired;
    benchmark::DoNotOptimize(fired);
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

// The /16 pair is gate 4's ratio, so it is repeated.
BENCHMARK(BM_ScheduleDispatch)->Arg(16)->Repetitions(kGateRepetitions);
BENCHMARK(BM_ScheduleDispatch)->Arg(256);

void BM_ScheduleDispatchLegacy(benchmark::State& state) {
  const int timers = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    LegacyEngine engine;
    std::uint64_t fired = 0;
    for (int i = 0; i < timers; ++i) {
      engine.schedule_in(i + 1, Timer<LegacyEngine>{&engine, &fired,
                                                    kReloads,
                                                    sim::Time{100 + i}});
    }
    events += engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_ScheduleDispatchLegacy)->Arg(16)->Repetitions(kGateRepetitions);
BENCHMARK(BM_ScheduleDispatchLegacy)->Arg(256);

// ---------------------------------------------------------------------------
// BM_SpawnResume: spawn/resume/destroy churn of short-lived coroutine
// processes — what the frame pool accelerates. Reported per engine event
// (spawn resume + delay resume per process).
// ---------------------------------------------------------------------------
sim::Task<> short_process(sim::Engine& engine, std::uint64_t* acc) {
  co_await engine.delay(1);
  ++*acc;
}

void BM_SpawnResume(benchmark::State& state) {
  constexpr int kProcs = 512;
  std::uint64_t acc = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < kProcs; ++i) {
      engine.spawn(short_process(engine, &acc));
    }
    engine.run();
    events += engine.events_processed();
    benchmark::DoNotOptimize(acc);
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_SpawnResume);

// ---------------------------------------------------------------------------
// Cluster benchmarks: the canonical engine workload — >=500 jobs of batch
// traffic on the full 192-node machine, EASY backfill, contiguous
// placement, seed 1.
// ---------------------------------------------------------------------------
constexpr int kCanonicalJobs = 600;

void BM_ClusterEngine(benchmark::State& state) {
  const batch::RuntimeModel model(arch::cte_arm());
  batch::WorkloadConfig config;
  config.num_jobs = static_cast<int>(state.range(0));
  config.mean_interarrival_s = 16.0;
  config.burst_fraction = 0.3;
  const auto stream = batch::generate(config, model, 1);
  batch::ClusterOptions options;
  options.seed = 1;

  std::uint64_t events = 0;
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    const auto result = batch::run_cluster(model, stream, options);
    events += result.engine_events;
    jobs += static_cast<std::uint64_t>(result.records.size());
    benchmark::DoNotOptimize(result.engine_events);
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["events_per_run"] = benchmark::Counter(
      static_cast<double>(events) /
      static_cast<double>(state.iterations()));
  state.counters["jobs_per_s"] = benchmark::Counter(
      static_cast<double>(jobs), benchmark::Counter::kIsRate);
}

// Iterations pinned rather than sized by min_time, so every summary
// times the same runs. One run takes ~25 ms on a 4-vCPU host; 40 make a
// ~1 s sample.
constexpr int kClusterIterations = 40;

BENCHMARK(BM_ClusterEngine)
    ->Arg(kCanonicalJobs / 4)
    ->Arg(kCanonicalJobs)
    ->Iterations(kClusterIterations)
    ->Unit(benchmark::kMillisecond);

/// The same canonical run with the energy layer on: what the per-event
/// power accounting costs. Each iteration also runs the plain twin,
/// alternating which goes first, and times both; only the powered run is
/// the iteration's time. tools/perf/check_engine_rate.py holds the powered
/// rate within 10% of the twin's plain_events_per_s: side by side, both
/// see the same host speed, which two separate benchmarks seconds apart
/// do not.
void BM_ClusterEnginePower(benchmark::State& state) {
  const batch::RuntimeModel model(arch::cte_arm());
  batch::WorkloadConfig config;
  config.num_jobs = static_cast<int>(state.range(0));
  config.mean_interarrival_s = 16.0;
  config.burst_fraction = 0.3;
  const auto stream = batch::generate(config, model, 1);
  const power::PowerModel power = power::default_power(model.machine());
  batch::ClusterOptions options;
  options.seed = 1;
  options.power = &power;
  batch::ClusterOptions plain_options = options;
  plain_options.power = nullptr;

  using Clock = std::chrono::steady_clock;
  const auto timed_run = [&](const batch::ClusterOptions& o,
                             double* seconds) {
    const auto t0 = Clock::now();
    auto result = batch::run_cluster(model, stream, o);
    *seconds += std::chrono::duration<double>(Clock::now() - t0).count();
    benchmark::DoNotOptimize(result.engine_events);
    return result;
  };
  std::uint64_t events = 0;
  std::uint64_t jobs = 0;
  std::uint64_t plain_events = 0;
  double plain_s = 0.0;
  bool plain_first = true;
  for (auto _ : state) {
    double powered_s = 0.0;
    if (plain_first) {
      plain_events += timed_run(plain_options, &plain_s).engine_events;
    }
    const auto result = timed_run(options, &powered_s);
    events += result.engine_events;
    jobs += static_cast<std::uint64_t>(result.records.size());
    if (!plain_first) {
      plain_events += timed_run(plain_options, &plain_s).engine_events;
    }
    plain_first = !plain_first;
    state.SetIterationTime(powered_s);
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["events_per_run"] = benchmark::Counter(
      static_cast<double>(events) /
      static_cast<double>(state.iterations()));
  state.counters["jobs_per_s"] = benchmark::Counter(
      static_cast<double>(jobs), benchmark::Counter::kIsRate);
  state.counters["plain_events_per_s"] =
      benchmark::Counter(static_cast<double>(plain_events) / plain_s);
}

BENCHMARK(BM_ClusterEnginePower)
    ->Arg(kCanonicalJobs)
    ->Iterations(kClusterIterations)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Placement layer: what the cluster benchmarks above spend most of their
// time in. events_per_s counts the layer's own operations here — hop
// queries for BM_TorusHops, placements for BM_AllocateContiguous.
// ---------------------------------------------------------------------------

/// Torus shapes by node count: CTE-Arm (192) and the same TofuD unit
/// cabinet grown in X, Y and Z towards Fugaku's scale.
std::vector<int> torus_dims(int nodes) {
  switch (nodes) {
    case 192:
      return {4, 2, 2, 2, 3, 2};
    case 1536:
      return {8, 4, 4, 2, 3, 2};
    default:
      return {16, 8, 8, 2, 3, 2};  // 12288
  }
}

void BM_TorusHops(benchmark::State& state) {
  const net::TorusTopology torus(torus_dims(192));
  constexpr int kPairs = 1024;
  Rng rng(11);
  std::vector<int> nodes(2 * kPairs);
  for (int& node : nodes) {
    node = static_cast<int>(rng.uniform_int(0, torus.num_nodes() - 1));
  }
  std::int64_t hops = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < nodes.size(); i += 2) {
      hops += torus.hops(nodes[i], nodes[i + 1]);
    }
    benchmark::DoNotOptimize(hops);
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kPairs,
      benchmark::Counter::kIsRate);
}

BENCHMARK(BM_TorusHops);

/// One `count`-node contiguous placement (and its release) on a machine
/// with a seeded random `busy_share` of its nodes busy.
void allocate_contiguous(benchmark::State& state, double busy_share,
                         int count) {
  const net::TorusTopology torus(
      torus_dims(static_cast<int>(state.range(0))));
  sched::Allocator alloc(torus);
  Rng rng(5);
  std::vector<int> busy;
  for (int node = 0; node < torus.num_nodes(); ++node) {
    if (rng.uniform() < busy_share) busy.push_back(node);
  }
  alloc.occupy(busy);
  for (auto _ : state) {
    const auto nodes = alloc.allocate(count, sched::Policy::kContiguous);
    benchmark::DoNotOptimize(nodes.data());
    alloc.release(nodes);
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["positions_per_alloc"] = benchmark::Counter(
      static_cast<double>(alloc.positions_walked()) /
      static_cast<double>(state.iterations()));
}

/// 16 nodes on a half-busy machine.
void BM_AllocateContiguous(benchmark::State& state) {
  allocate_contiguous(state, 0.5, 16);
}

BENCHMARK(BM_AllocateContiguous)
    ->Arg(192)
    ->Arg(1536)
    ->Arg(12288)
    ->Unit(benchmark::kMicrosecond);

/// 8 nodes on a machine about 90% busy: the regime a batch study places
/// in, where each seed's walk passes many busy nodes.
void BM_AllocateContiguousNearFull(benchmark::State& state) {
  allocate_contiguous(state, 0.9, 8);
}

BENCHMARK(BM_AllocateContiguousNearFull)
    ->Arg(192)
    ->Unit(benchmark::kMicrosecond);

/// 8 nodes on a machine about 8% busy: ctebench server_mix's shape, where
/// most seeds' first positions are all free.
void BM_AllocateContiguousSparse(benchmark::State& state) {
  allocate_contiguous(state, 0.08, 8);
}

BENCHMARK(BM_AllocateContiguousSparse)
    ->Arg(192)
    ->Unit(benchmark::kMicrosecond);

/// Allocator::largest_free_block (the fragmentation probe a batch study
/// samples at every start and completion) on `range(0)` nodes with a
/// seeded random `range(1)` percent of them busy. events_per_s counts
/// probes.
void BM_LargestFreeBlock(benchmark::State& state) {
  const net::TorusTopology torus(
      torus_dims(static_cast<int>(state.range(0))));
  sched::Allocator alloc(torus);
  Rng rng(7);
  std::vector<int> busy;
  for (int node = 0; node < torus.num_nodes(); ++node) {
    if (rng.uniform() * 100.0 < static_cast<double>(state.range(1))) {
      busy.push_back(node);
    }
  }
  alloc.occupy(busy);
  int block = 0;
  for (auto _ : state) {
    block += alloc.largest_free_block();
    benchmark::DoNotOptimize(block);
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_LargestFreeBlock)
    ->Args({192, 8})
    ->Args({192, 90})
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Queue layer: BM_BackfillScan asks an EASY queue of `range(0)` jobs for
// the next startable one while 47 four-node jobs hold 188 of 192 nodes and
// a 96-node job heads the queue. Every later job is either wider than the
// 4 free nodes or runs past the head's reservation, so each scan sorts the
// reservations for the shadow time and walks the whole queue to return -1:
// the worst case of the check try_start runs after every event.
// events_per_s counts scans.
// ---------------------------------------------------------------------------
void BM_BackfillScan(benchmark::State& state) {
  constexpr int kTotalNodes = 192;
  constexpr int kFreeNodes = 4;
  batch::JobQueue queue(batch::QueuePolicy::kEasyBackfill, kTotalNodes);
  batch::Job head;
  head.nodes = 96;
  head.walltime_s = 3600.0;
  queue.push(head);
  Rng rng(13);
  for (int id = 1; id < state.range(0); ++id) {
    batch::Job job;
    job.id = id;
    const bool narrow = id % 2 == 0;
    job.nodes = static_cast<int>(narrow ? rng.uniform_int(1, kFreeNodes)
                                        : rng.uniform_int(kFreeNodes + 1, 32));
    // Longer than any reservation, so no narrow job ends before the shadow.
    job.walltime_s = 10000.0 + 100.0 * static_cast<double>(id);
    queue.push(job);
  }
  std::vector<batch::Reservation> running;
  for (int id = 0; id < (kTotalNodes - kFreeNodes) / 4; ++id) {
    // Predicted ends in a scrambled order, so the shadow sort has work.
    running.push_back({1000 + id, 100.0 * static_cast<double>((id * 17) % 47),
                       4});
  }
  int found = 0;
  for (auto _ : state) {
    found += queue.next_startable(0.0, kFreeNodes, running);
    benchmark::DoNotOptimize(found);
  }
  if (found != -static_cast<int>(state.iterations())) {
    state.SkipWithError("a job became startable: the scan stopped early");
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_BackfillScan)->Arg(256)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Simulated-MPI layer: BM_MailboxPingPong runs a zero-compute World with
// NEMO's per-step pattern (a halo exchange with the 2D neighbours of a
// non-periodic px x py grid, then allreduce(8)) on fully populated CTE-Arm
// nodes, 384 ranks (8 nodes) and 9216 (192). Each iteration builds, runs
// and tears down one World, so every mailbox is created on first touch
// and then reused. A run has as many steps as make ~300k messages.
// events_per_s counts messages. The Computed twin sets a factor-1.0
// receive window on node 0: every transfer keeps its numbers, but the
// World then evaluates each delivery instead of reusing its offsets
// (docs/ENGINE.md section 8).
// ---------------------------------------------------------------------------
constexpr int kPingPongHaloBytes = 4096;
constexpr double kPingPongMessagesPerRun = 300000.0;

void mailbox_ping_pong(benchmark::State& state, bool computed) {
  const int nranks = static_cast<int>(state.range(0));
  const arch::MachineModel machine = arch::cte_arm();
  const mpi::Grid2d grid = mpi::Grid2d::near_square(nranks);
  // Messages per step: one per (rank, neighbour) of the halo, plus the
  // allreduce's fold to a power of two p2, log2(p2) doubling rounds and
  // unfold.
  int p2 = 1;
  int rounds = 0;
  while (p2 * 2 <= nranks) {
    p2 *= 2;
    ++rounds;
  }
  const double halo =
      2.0 * (grid.px - 1) * grid.py + 2.0 * grid.px * (grid.py - 1);
  const double reduce = 2.0 * (nranks - p2) + static_cast<double>(p2) * rounds;
  const int steps = std::max(
      1, static_cast<int>(kPingPongMessagesPerRun / (halo + reduce)));
  const double messages_per_run = (halo + reduce) * steps;

  for (auto _ : state) {
    mpi::WorldOptions options;
    options.machine = machine;
    mpi::World world(std::move(options),
                     mpi::Placement::per_core(machine.node, nranks));
    if (computed) world.network().set_recv_degradation(0, 1.0);
    world.run([grid, steps](mpi::Rank& rank) -> sim::Task<> {
      const std::vector<int> neighbors = grid.neighbors(rank.id());
      for (int s = 0; s < steps; ++s) {
        co_await rank.exchange(neighbors, kPingPongHaloBytes, /*tag=*/1);
        co_await rank.allreduce(8);
      }
    });
    benchmark::DoNotOptimize(world.engine().events_processed());
  }
  state.counters["events_per_s"] = benchmark::Counter(
      messages_per_run * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["events_per_run"] = benchmark::Counter(messages_per_run);
}

void BM_MailboxPingPong(benchmark::State& state) {
  mailbox_ping_pong(state, /*computed=*/false);
}

void BM_MailboxPingPongComputed(benchmark::State& state) {
  mailbox_ping_pong(state, /*computed=*/true);
}

// Pinned like the cluster benchmarks: one 9216-rank run takes ~0.5 s.
// The 384-rank pair is repeated: the summary keeps each one's median, and
// check_engine_rate.py gates the ratio of those medians.
BENCHMARK(BM_MailboxPingPong)
    ->Arg(384)
    ->Iterations(10)
    ->Repetitions(kGateRepetitions)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MailboxPingPongComputed)
    ->Arg(384)
    ->Iterations(10)
    ->Repetitions(kGateRepetitions)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MailboxPingPong)->Arg(9216)->Iterations(3)->Unit(
    benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Scheduled collectives: BM_Collective runs a zero-compute World whose ranks
// only call one collective back to back, as many times as make ~300k of
// the algorithm's messages (recursive doubling with fold/unfold for
// allreduce, p(p-1) pairwise messages for alltoall). Without congestion
// none of them is sent: each call parks every rank and times the rounds
// once (docs/ENGINE.md section 9). The first call resolves them and the
// others replay them, except at 9216 ranks, where the allreduce is over
// the World's schedule budget and every call resolves each round into
// a scratch row. events_per_s counts those messages, so the figure
// compares with BM_MailboxPingPong's.
// ---------------------------------------------------------------------------
enum class CollectiveKind { kAllreduce, kAlltoall };

void BM_Collective(benchmark::State& state, CollectiveKind kind) {
  const int nranks = static_cast<int>(state.range(0));
  const arch::MachineModel machine = arch::cte_arm();
  double messages_per_call;
  std::uint64_t bytes;
  mpi::Placement placement =
      mpi::Placement::per_core(machine.node, nranks);
  if (kind == CollectiveKind::kAllreduce) {
    int p2 = 1;
    int rounds = 0;
    while (p2 * 2 <= nranks) {
      p2 *= 2;
      ++rounds;
    }
    messages_per_call =
        2.0 * (nranks - p2) + static_cast<double>(p2) * rounds;
    bytes = 8;
  } else {
    // OpenIFS TCo511L91's per-pair transposition size at one actor per
    // node (ctebench's OpenIFS alltoall run uses the same).
    const apps::OpenIfsConfig config;
    const apps::OpenIfsInput input = apps::tc0511l91();
    const double cells_local = input.columns * input.levels / nranks;
    bytes = static_cast<std::uint64_t>(std::max(
        1.0, cells_local * 8.0 * config.transposed_fields / nranks));
    messages_per_call = static_cast<double>(nranks) * (nranks - 1);
    placement = mpi::Placement::hybrid(machine.node, nranks, 1,
                                       machine.node.core_count());
  }
  const int calls = std::max(
      1, static_cast<int>(kPingPongMessagesPerRun / messages_per_call));
  for (auto _ : state) {
    mpi::WorldOptions options;
    options.machine = machine;
    mpi::World world(std::move(options), placement);
    world.run([kind, calls, bytes](mpi::Rank& rank) -> sim::Task<> {
      for (int i = 0; i < calls; ++i) {
        if (kind == CollectiveKind::kAllreduce) {
          co_await rank.allreduce(bytes);
        } else {
          co_await rank.alltoall(bytes);
        }
      }
    });
    benchmark::DoNotOptimize(world.engine().events_processed());
  }
  const double messages_per_run = messages_per_call * calls;
  state.counters["events_per_s"] = benchmark::Counter(
      messages_per_run * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["events_per_run"] = benchmark::Counter(messages_per_run);
}

BENCHMARK_CAPTURE(BM_Collective, allreduce, CollectiveKind::kAllreduce)
    ->Arg(384)
    ->Arg(9216)
    ->Iterations(10)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Collective, alltoall, CollectiveKind::kAlltoall)
    ->Arg(192)
    ->Iterations(10)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Compute calls: BM_RankCompute runs a message-free World with NEMO's
// compute pattern, 12 x (jittered compute + compute_seconds) per step at
// compute_jitter 0.02, on fully populated CTE-Arm nodes, as many steps as
// make ~300k calls. Each call reads the compute memo, draws its jitter
// and moves the rank's clock, with no engine event and no coroutine
// frame (docs/ENGINE.md section 10). events_per_s counts calls.
// ---------------------------------------------------------------------------
constexpr double kComputeCallsPerRun = 300000.0;
constexpr int kComputeCallsPerStep = 24;

void BM_RankCompute(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  const arch::MachineModel machine = arch::cte_arm();
  roofline::KernelSig dynamics = roofline::kernels::stencil3d();
  dynamics.name = "nemo-dynamics";
  const int steps = std::max(
      1, static_cast<int>(kComputeCallsPerRun /
                          (kComputeCallsPerStep * static_cast<double>(nranks))));
  const double calls_per_run =
      static_cast<double>(kComputeCallsPerStep) * nranks * steps;
  for (auto _ : state) {
    mpi::WorldOptions options;
    options.machine = machine;
    options.compute_jitter = 0.02;
    mpi::World world(std::move(options),
                     mpi::Placement::per_core(machine.node, nranks));
    world.run([&dynamics, steps](mpi::Rank& rank) -> sim::Task<> {
      for (int s = 0; s < steps; ++s) {
        for (int k = 0; k < kComputeCallsPerStep / 2; ++k) {
          co_await rank.compute(dynamics, 2e4);
          co_await rank.compute_seconds(4e-6);
        }
      }
    });
    benchmark::DoNotOptimize(world.engine().events_processed());
  }
  state.counters["events_per_s"] = benchmark::Counter(
      calls_per_run * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["events_per_run"] = benchmark::Counter(calls_per_run);
}

BENCHMARK(BM_RankCompute)->Arg(384)->Iterations(10)->Unit(
    benchmark::kMillisecond);

/// Console output plus a captured copy of every run for the JSON summary.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit CaptureReporter(OutputOptions options) : ConsoleReporter(options) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) runs_.push_back(run);
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

double counter_value(const benchmark::BenchmarkReporter::Run& run,
                     const char* name) {
  const auto it = run.counters.find(name);
  return it != run.counters.end() ? it->second.value : 0.0;
}

/// Canonical run name for the summary: the benchmark's function and
/// arguments. The "/iterations:N", "/repeats:N" and "/manual_time" parts
/// google benchmark appends for pinned runs are execution details, not
/// part of its identity — dropping them keeps the committed baseline
/// names stable if a pin ever changes.
std::string canonical_name(const benchmark::BenchmarkReporter::Run& run) {
  benchmark::BenchmarkName name;
  name.function_name = run.run_name.function_name;
  name.args = run.run_name.args;
  return name.str();
}

/// The runs the summary keeps: a single-repetition run as it is, and of a
/// repeated benchmark only the median over its repetitions.
bool summarized(const benchmark::BenchmarkReporter::Run& run) {
  if (run.error_occurred) return false;
  if (run.run_type == benchmark::BenchmarkReporter::Run::RT_Aggregate) {
    return run.aggregate_name == "median";
  }
  return run.repetitions <= 1;
}

bool write_summary(const std::string& path,
                   const std::vector<benchmark::BenchmarkReporter::Run>& runs) {
  std::ofstream out(path);
  if (!out) return false;
  // Machine metadata: enough to interpret a committed baseline later. No
  // timestamps/hostnames — the summary content stays deterministic modulo
  // the timings themselves.
  out << "{\"bench\":\"engine_rate\",\"machine\":\"cte-arm\",\"nodes\":"
      << arch::cte_arm().num_nodes << ",\"compiler\":\""
      << json::escape(__VERSION__) << "\",\"build\":\""
#ifdef NDEBUG
      << "release"
#else
      << "debug"
#endif
      << "\",\"sbo_bytes\":" << util::kInlineFunctionCapacity
      << ",\"queue_arity\":4,\"runs\":[";
  bool first = true;
  for (const auto& run : runs) {
    if (!summarized(run)) continue;
    const double real_s =
        run.iterations > 0
            ? run.real_accumulated_time / static_cast<double>(run.iterations)
            : 0.0;
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << json::escape(canonical_name(run))
        << "\",\"iterations\":" << run.iterations
        << ",\"repetitions\":" << run.repetitions
        << ",\"real_s_per_run\":" << json::number(real_s)
        << ",\"events_per_run\":"
        << json::number(counter_value(run, "events_per_run"))
        << ",\"jobs_per_s\":"
        << json::number(counter_value(run, "jobs_per_s"))
        << ",\"events_per_s\":"
        << json::number(counter_value(run, "events_per_s"))
        << ",\"plain_events_per_s\":"
        << json::number(counter_value(run, "plain_events_per_s")) << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

/// Colour as google benchmark's own console reporter takes it from
/// --benchmark_color: "auto", the default, colours a terminal only; false,
/// no, off, 0, f or n never colour; any other value always does. Counters
/// stay in a table either way.
benchmark::ConsoleReporter::OutputOptions console_options(std::string value) {
  std::transform(value.begin(), value.end(), value.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  const bool colored =
      value == "auto" ? isatty(STDOUT_FILENO) != 0
                      : value != "false" && value != "no" && value != "off" &&
                            value != "0" && value != "f" && value != "n";
  return colored ? benchmark::ConsoleReporter::OO_ColorTabular
                 : benchmark::ConsoleReporter::OO_Tabular;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string color = "auto";
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_color=", 18) == 0) {
      color = argv[i] + 18;  // and passed through, for the library's check
    }
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             passthrough.data())) {
    return 1;
  }
  CaptureReporter reporter(console_options(color));
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!out_path.empty()) {
    if (!write_summary(out_path, reporter.runs())) {
      std::fprintf(stderr, "engine_rate: cannot write %s\n",
                   out_path.c_str());
      return 1;
    }
    std::printf("engine_rate: summary written to %s\n", out_path.c_str());
  }
  return 0;
}
