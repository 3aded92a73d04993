// Tests for the batch-queue subsystem: workload generation, trace replay,
// queue policies (FCFS / EASY backfill) and hand-checked cluster metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "arch/configs.h"
#include "batch/cluster.h"
#include "batch/metrics.h"
#include "batch/queue.h"
#include "batch/workload.h"
#include "power/power_model.h"
#include "util/rng.h"

namespace ctesim::batch {
namespace {

// A 4-node toy machine (2x2 torus) with CTE-Arm nodes, for hand-checked
// scenarios.
arch::MachineModel tiny_machine() {
  arch::MachineModel m = arch::cte_arm();
  m.num_nodes = 4;
  m.interconnect.dims = {2, 2};
  return m;
}

// Fixed-runtime job: bypasses the roofline model entirely and (with
// comm_fraction 0) ignores placement, so timelines are exact.
Job fixed_job(int id, double arrival, int nodes, double walltime,
              double runtime) {
  Job job;
  job.id = id;
  job.arrival_s = arrival;
  job.nodes = nodes;
  job.walltime_s = walltime;
  job.fixed_runtime_s = runtime;
  job.profile = JobProfile{"fixed", {}, 0.0, 1, 0.0};
  return job;
}

TEST(Workload, DeterministicForFixedSeed) {
  const RuntimeModel model(arch::cte_arm());
  WorkloadConfig config;
  config.num_jobs = 64;
  config.burst_fraction = 0.3;
  const auto a = generate(config, model, 42);
  const auto b = generate(config, model, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s) << i;
    EXPECT_EQ(a[i].nodes, b[i].nodes) << i;
    EXPECT_EQ(a[i].walltime_s, b[i].walltime_s) << i;
    EXPECT_EQ(a[i].profile.iterations, b[i].profile.iterations) << i;
    EXPECT_STREQ(a[i].profile.name, b[i].profile.name) << i;
  }
  // A different seed gives a different stream.
  const auto c = generate(config, model, 43);
  bool any_different = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_different = any_different || a[i].arrival_s != c[i].arrival_s ||
                    a[i].nodes != c[i].nodes;
  }
  EXPECT_TRUE(any_different);
}

TEST(Workload, RespectsConfigBounds) {
  const RuntimeModel model(arch::cte_arm());
  WorkloadConfig config;
  config.num_jobs = 128;
  config.min_nodes = 2;
  config.max_nodes = 24;
  const auto jobs = generate(config, model, 7);
  double prev_arrival = 0.0;
  for (const Job& job : jobs) {
    EXPECT_GE(job.arrival_s, prev_arrival);
    prev_arrival = job.arrival_s;
    EXPECT_GE(job.nodes, config.min_nodes);
    EXPECT_LE(job.nodes, config.max_nodes);
    // The wall-time request pads the modeled runtime, never undercuts it.
    EXPECT_GE(job.walltime_s,
              model.reference_runtime(job) * config.walltime_pad_min * 0.999);
  }
}

TEST(Workload, TraceRoundTrips) {
  const RuntimeModel model(arch::cte_arm());
  WorkloadConfig config;
  config.num_jobs = 20;
  const auto jobs = generate(config, model, 11);
  const std::string path = "test_batch_trace.csv";
  write_trace(jobs, model, path);
  const auto replayed = load_trace(path);
  std::remove(path.c_str());
  ASSERT_EQ(replayed.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(replayed[i].id, jobs[i].id);
    EXPECT_EQ(replayed[i].nodes, jobs[i].nodes);
    EXPECT_STREQ(replayed[i].profile.name, jobs[i].profile.name);
    EXPECT_NEAR(replayed[i].arrival_s, jobs[i].arrival_s,
                1e-6 * (1.0 + jobs[i].arrival_s));
    EXPECT_NEAR(replayed[i].fixed_runtime_s,
                model.reference_runtime(jobs[i]),
                1e-6 * model.reference_runtime(jobs[i]));
  }
}

TEST(RuntimeModel, ScatterSlowsCommunicatingJobsOnly) {
  const RuntimeModel model(arch::cte_arm());
  Job chatty = fixed_job(0, 0.0, 16, 1000.0, 100.0);
  chatty.profile.comm_fraction = 0.4;
  const double ref = model.reference_hops(16);
  EXPECT_DOUBLE_EQ(model.slowdown(chatty, ref), 1.0);
  EXPECT_NEAR(model.slowdown(chatty, 2.0 * ref), 1.4, 1e-12);
  // Better-than-reference placement is not a speedup.
  EXPECT_DOUBLE_EQ(model.slowdown(chatty, 0.5 * ref), 1.0);
  // Zero communication share: placement-immune.
  const Job quiet = fixed_job(1, 0.0, 16, 1000.0, 100.0);
  EXPECT_DOUBLE_EQ(model.slowdown(quiet, 10.0 * ref), 1.0);
}

TEST(JobQueue, FcfsHeadBlocksEverything) {
  JobQueue queue(QueuePolicy::kFcfs, 4);
  queue.push(fixed_job(0, 0.0, 4, 100.0, 100.0));
  queue.push(fixed_job(1, 0.0, 1, 10.0, 10.0));
  // 3 free nodes: the head does not fit and FCFS never looks past it.
  EXPECT_EQ(queue.next_startable(0.0, 3, {{9, 50.0, 1}}), -1);
  EXPECT_EQ(queue.next_startable(0.0, 4, {}), 0);
}

TEST(JobQueue, EasyBackfillRespectsShadowTime) {
  JobQueue queue(QueuePolicy::kEasyBackfill, 4);
  queue.push(fixed_job(1, 0.0, 4, 100.0, 100.0));   // head, blocked
  queue.push(fixed_job(2, 0.0, 1, 90.0, 90.0));     // ends by shadow: ok
  queue.push(fixed_job(3, 0.0, 1, 200.0, 200.0));   // would delay head
  const std::vector<Reservation> running = {{0, 100.0, 3}};
  EXPECT_DOUBLE_EQ(queue.shadow_time(0.0, 1, running), 100.0);
  // Job 2 (position 1) may backfill; job 3 may not.
  EXPECT_EQ(queue.next_startable(0.0, 1, running), 1);
  queue.pop(1);
  EXPECT_EQ(queue.next_startable(0.0, 1, running), -1);
}

// The shadow time as first written: sort the reservations by predicted
// end and walk them until the head fits.
double reference_shadow_time(double now_s, int free_nodes, int needed,
                             std::vector<Reservation> ends) {
  if (needed <= free_nodes) return now_s;
  std::sort(ends.begin(), ends.end(),
            [](const Reservation& a, const Reservation& b) {
              return a.predicted_end_s < b.predicted_end_s;
            });
  for (const Reservation& r : ends) {
    free_nodes += r.nodes;
    if (free_nodes >= needed) return std::max(now_s, r.predicted_end_s);
  }
  return std::numeric_limits<double>::infinity();
}

TEST(JobQueue, ShadowTimeMatchesSortedWalk) {
  // Ends drawn from a few values, so ties are common; some are infinite,
  // some precede `now`, and some heads are wider than every reservation
  // plus the free nodes (the infinite shadow).
  Rng rng(29);
  const double inf = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<Reservation> running(
        static_cast<std::size_t>(rng.uniform_int(0, 40)));
    for (std::size_t i = 0; i < running.size(); ++i) {
      const std::int64_t slot = rng.uniform_int(0, 12);
      running[i] = {static_cast<int>(i),
                    slot == 12 ? inf : 10.0 * static_cast<double>(slot),
                    static_cast<int>(rng.uniform_int(1, 8))};
    }
    const int free = static_cast<int>(rng.uniform_int(0, 20));
    const int needed = static_cast<int>(rng.uniform_int(1, 256));
    const double now = 5.0 * static_cast<double>(rng.uniform_int(0, 6));
    JobQueue queue(QueuePolicy::kEasyBackfill, 256);
    queue.push(fixed_job(0, 0.0, needed, 100.0, 100.0));
    // Twice on one queue: the reused working copy must not leak state.
    for (int again = 0; again < 2; ++again) {
      ASSERT_EQ(queue.shadow_time(now, free, running),
                reference_shadow_time(now, free, needed, running))
          << "trial " << trial << " again " << again;
    }
  }
}

TEST(Cluster, EasyBackfillNeverDelaysHead) {
  const RuntimeModel model(tiny_machine());
  // J0 holds 3 of 4 nodes until t=100 (runtime == wall-time).
  // J1 (head) needs the whole machine: shadow time is 100.
  // J2 fits the free node and ends by 92 — backfills immediately.
  // J3 fits but would run past the shadow — must wait for the head.
  const std::vector<Job> jobs = {
      fixed_job(0, 0.0, 3, 100.0, 100.0),
      fixed_job(1, 1.0, 4, 100.0, 50.0),
      fixed_job(2, 2.0, 1, 90.0, 90.0),
      fixed_job(3, 3.0, 1, 200.0, 200.0),
  };
  ClusterOptions options;
  options.queue = QueuePolicy::kEasyBackfill;
  const auto result = run_cluster(model, jobs, options);
  const auto& r = result.records;
  EXPECT_NEAR(r[0].start_s, 0.0, 1e-9);
  // The head starts exactly when it would with no backfilling at all.
  EXPECT_NEAR(r[1].start_s, 100.0, 1e-9);
  // J2 backfilled the idle node instead of queueing behind the head.
  EXPECT_NEAR(r[2].start_s, 2.0, 1e-9);
  // J3 could not backfill and started only after the head finished.
  EXPECT_NEAR(r[3].start_s, 150.0, 1e-9);

  // Same stream under FCFS: the backfill job waits for the whole line.
  options.queue = QueuePolicy::kFcfs;
  const auto fcfs = run_cluster(model, jobs, options);
  EXPECT_NEAR(fcfs.records[1].start_s, 100.0, 1e-9);  // head: unchanged
  EXPECT_GT(fcfs.records[2].start_s, 100.0);
}

TEST(Cluster, HandCheckedMetricsOnTinyMachine) {
  const RuntimeModel model(tiny_machine());
  // Two whole-machine jobs arriving together: the second waits 100 s.
  const std::vector<Job> jobs = {
      fixed_job(0, 0.0, 4, 120.0, 100.0),
      fixed_job(1, 0.0, 4, 120.0, 100.0),
  };
  const auto result = run_cluster(model, jobs, {});
  const auto m = summarize(result, 4);
  EXPECT_EQ(m.jobs, 2);
  EXPECT_EQ(m.killed, 0);
  EXPECT_NEAR(m.makespan_s, 200.0, 1e-9);
  // 2 jobs x 4 nodes x 100 s on a 4-node machine over 200 s: fully busy.
  EXPECT_NEAR(m.utilization, 1.0, 1e-9);
  EXPECT_NEAR(m.mean_wait_s, 50.0, 1e-9);
  // Bounded slowdowns: 1 (ran at once) and (100+100)/100 = 2.
  EXPECT_NEAR(m.mean_bounded_slowdown, 1.5, 1e-9);
}

TEST(Cluster, PowerCapSerializesJobsTheNodesWouldAllow) {
  const RuntimeModel model(tiny_machine());
  const power::PowerModel pm = power::default_power(model.machine());
  const arch::NodeModel& node = model.machine().node;
  const double active_w = pm.node_active(node, power::dvfs_state(0)).value();
  const double idle_w = pm.node_idle(node).value();
  // Two 2-node jobs fit the 4 nodes together, but the cap only covers one
  // running job (2 active + 2 idle nodes, plus slack): the scheduler must
  // serialize them on watts, exactly as it would on nodes.
  const std::vector<Job> jobs = {
      fixed_job(0, 0.0, 2, 300.0, 100.0),
      fixed_job(1, 0.0, 2, 300.0, 100.0),
  };
  ClusterOptions options;
  options.power = &pm;
  options.power_cap_w = 2.0 * active_w + 2.0 * idle_w + 1.0;
  const auto result = run_cluster(model, jobs, options);
  const auto& r = result.records;
  EXPECT_NEAR(r[0].start_s, 0.0, 1e-9);
  EXPECT_NEAR(r[1].start_s, 100.0, 1e-9);  // waited for watts, not nodes
  EXPECT_GT(result.energy.capped_starts, 0);
  EXPECT_NEAR(result.makespan_s, 200.0, 1e-9);
  const auto m = summarize(result, 4);
  EXPECT_LE(m.peak_power_w, options.power_cap_w);

  // Without the cap the same stream runs both jobs at once.
  ClusterOptions uncapped;
  uncapped.power = &pm;
  const auto wide = run_cluster(model, jobs, uncapped);
  EXPECT_NEAR(wide.makespan_s, 100.0, 1e-9);
  EXPECT_GT(wide.energy.peak_w, options.power_cap_w);
}

TEST(Cluster, WalltimeLimitKillsOverrunningJobs) {
  const RuntimeModel model(tiny_machine());
  const std::vector<Job> jobs = {fixed_job(0, 0.0, 2, 50.0, 100.0)};
  const auto result = run_cluster(model, jobs, {});
  const auto& r = result.records[0];
  EXPECT_EQ(r.end_reason, EndReason::kWalltimeKilled);
  EXPECT_NEAR(r.runtime_s(), 50.0, 1e-9);
  EXPECT_EQ(summarize(result, 4).killed, 1);
}

TEST(Cluster, DeterministicAcrossRuns) {
  const RuntimeModel model(arch::cte_arm());
  WorkloadConfig config;
  config.num_jobs = 80;
  config.mean_interarrival_s = 10.0;
  const auto jobs = generate(config, model, 5);
  ClusterOptions options;
  options.placement = sched::Policy::kRandom;
  const auto a = run_cluster(model, jobs, options);
  const auto b = run_cluster(model, jobs, options);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].start_s, b.records[i].start_s) << i;
    EXPECT_EQ(a.records[i].end_s, b.records[i].end_s) << i;
    EXPECT_EQ(a.records[i].alloc_nodes, b.records[i].alloc_nodes) << i;
  }
  EXPECT_EQ(a.makespan_s, b.makespan_s);
}

TEST(Cluster, ContiguousBeatsRandomUnderLoad) {
  // The bench's acceptance criterion, in miniature: on a busy machine the
  // topology-aware placement yields a lower mean bounded slowdown.
  const RuntimeModel model(arch::cte_arm());
  WorkloadConfig config;
  config.num_jobs = 200;
  config.mean_interarrival_s = 12.0;
  config.burst_fraction = 0.3;
  const auto jobs = generate(config, model, 3);
  ClusterOptions options;
  options.placement = sched::Policy::kContiguous;
  const auto compact = summarize(run_cluster(model, jobs, options), 192);
  options.placement = sched::Policy::kRandom;
  const auto scatter = summarize(run_cluster(model, jobs, options), 192);
  EXPECT_LT(compact.mean_bounded_slowdown, scatter.mean_bounded_slowdown);
  EXPECT_LT(compact.mean_hops, scatter.mean_hops);
}

}  // namespace
}  // namespace ctesim::batch
