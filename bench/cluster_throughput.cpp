// Cluster throughput under job traffic: the production regime the paper
// evaluates (Section II) but single-shot benches never exercise.
//
// A Poisson-plus-bursts stream of ≥500 jobs (log2-uniform sizes, roofline-
// modeled runtimes, padded wall-time requests) runs through the batch
// subsystem on the 192-node CTE-Arm model, once per node-placement policy.
// The queue policy (EASY backfill by default) is held fixed, so the
// differences isolate what placement quality costs a busy machine:
// scattered allocations inflate communication, jobs hold nodes longer,
// queues back up, and bounded slowdown grows — the case for the
// topology-aware scheduler, measured end to end.
//
// Deterministic: identical --seed gives an identical table and CSV.
#include <cstdio>
#include <iostream>
#include <string>

#include "arch/configs.h"
#include "batch/cluster.h"
#include "batch/metrics.h"
#include "batch/workload.h"
#include "harness.h"
#include "power/power_model.h"
#include "report/table.h"
#include "sched/allocator.h"
#include "trace/chrome.h"
#include "trace/recorder.h"

using namespace ctesim;

int main(int argc, char** argv) {
  std::string trace_path;
  std::int64_t jobs = 600;
  std::int64_t seed = 1;
  double interarrival = 16.0;
  std::string queue_name = "easy";
  bench::Harness h(
      "cluster_throughput",
      "batch-queue throughput vs node-placement policy on CTE-Arm");
  h.cli()
      .option("jobs", &jobs, "number of jobs in the stream (>= 500)")
      .option("seed", &seed, "workload + placement seed")
      .option("interarrival", &interarrival,
              "mean inter-arrival gap in seconds (lower = busier)")
      .option("queue", &queue_name, "queue policy: easy | fcfs");
  h.trace_option(&trace_path,
                 "write a Chrome trace (chrome://tracing / Perfetto) of the "
                 "contiguous-placement run to this path");
  if (!h.parse(argc, argv)) return h.exit_status();
  if (queue_name != "easy" && queue_name != "fcfs") {
    std::fprintf(stderr, "cluster_throughput: --queue must be easy or fcfs, got '%s'\n",
                 queue_name.c_str());
    return 1;
  }
  if (jobs < 1) {
    std::fprintf(stderr, "cluster_throughput: --jobs must be >= 1, got %lld\n",
                 static_cast<long long>(jobs));
    return 1;
  }
  h.banner("Cluster throughput",
           "placement policy under batch traffic (192-node CTE-Arm)");

  const batch::RuntimeModel model(arch::cte_arm());
  batch::WorkloadConfig config;
  config.num_jobs = static_cast<int>(jobs);
  config.mean_interarrival_s = interarrival;
  config.burst_fraction = 0.3;  // campaign submissions keep the queue deep
  const auto stream =
      batch::generate(config, model, static_cast<std::uint64_t>(seed));

  const batch::QueuePolicy queue = queue_name == "fcfs"
                                       ? batch::QueuePolicy::kFcfs
                                       : batch::QueuePolicy::kEasyBackfill;

  report::Table table(
      std::string("≥500-job stream, ") + batch::name_of(queue) +
          " queue — placement policy comparison",
      {"placement", "util", "goodput", "avail", "makespan [h]",
       "wait mean [s]", "wait p95 [s]", "wait p99 [s]", "bsld mean",
       "bsld p95", "hops", "slowdown", "frag", "wasted [nh]", "killed",
       "energy [MJ]", "power [kW]"});
  h.open_csv({"placement", "queue", "jobs", "utilization", "goodput",
              "availability", "wasted_node_h", "makespan_s", "mean_wait_s",
              "p95_wait_s", "p99_wait_s", "mean_bsld", "p95_bsld", "p99_bsld",
              "mean_hops", "mean_placement_slowdown", "time_avg_frag",
              "interrupted", "failed", "killed", "energy_to_solution_j",
              "mean_power_w"});

  trace::Recorder recorder(!trace_path.empty());
  // Scattered placements also cost joules: jobs hold (and power) their
  // nodes longer, so the placement gap shows up in energy-to-solution too.
  const power::PowerModel power = power::default_power(model.machine());
  double bsld_contiguous = 0.0, bsld_random = 0.0;
  for (auto placement :
       {sched::Policy::kContiguous, sched::Policy::kLinear,
        sched::Policy::kRandom}) {
    batch::ClusterOptions options;
    options.placement = placement;
    options.queue = queue;
    options.seed = static_cast<std::uint64_t>(seed);
    options.power = &power;
    // The trace covers one run; overlaying all three placements on the
    // same time axis would be unreadable.
    if (placement == sched::Policy::kContiguous && recorder.enabled()) {
      options.recorder = &recorder;
    }
    const auto result = batch::run_cluster(model, stream, options);
    const auto m =
        batch::summarize(result, model.machine().num_nodes);
    table.row({sched::name_of(placement), report::fixed(m.utilization, 3),
               report::fixed(m.goodput, 3), report::fixed(m.availability, 3),
               report::fixed(m.makespan_s / 3600.0, 2),
               report::fixed(m.mean_wait_s, 1),
               report::fixed(m.p95_wait_s, 1),
               report::fixed(m.p99_wait_s, 1),
               report::fixed(m.mean_bounded_slowdown, 2),
               report::fixed(m.p95_bounded_slowdown, 2),
               report::fixed(m.mean_hops, 2),
               report::fixed(m.mean_placement_slowdown, 3),
               report::fixed(m.time_avg_fragmentation, 3),
               report::fixed(m.wasted_node_h, 1),
               std::to_string(m.killed),
               report::fixed(m.energy_to_solution_j / 1e6, 2),
               report::fixed(m.mean_power_w / 1e3, 2)});
    h.csv_row({sched::name_of(placement), batch::name_of(queue),
               std::to_string(m.jobs), report::fixed(m.utilization, 4),
               report::fixed(m.goodput, 4), report::fixed(m.availability, 4),
               report::fixed(m.wasted_node_h, 2),
               report::fixed(m.makespan_s, 1), report::fixed(m.mean_wait_s, 2),
               report::fixed(m.p95_wait_s, 2), report::fixed(m.p99_wait_s, 2),
               report::fixed(m.mean_bounded_slowdown, 3),
               report::fixed(m.p95_bounded_slowdown, 3),
               report::fixed(m.p99_bounded_slowdown, 3),
               report::fixed(m.mean_hops, 3),
               report::fixed(m.mean_placement_slowdown, 4),
               report::fixed(m.time_avg_fragmentation, 4),
               std::to_string(m.interrupted), std::to_string(m.failed),
               std::to_string(m.killed),
               report::fixed(m.energy_to_solution_j, 1),
               report::fixed(m.mean_power_w, 1)});
    if (placement == sched::Policy::kContiguous) {
      bsld_contiguous = m.mean_bounded_slowdown;
    }
    if (placement == sched::Policy::kRandom) {
      bsld_random = m.mean_bounded_slowdown;
    }
  }
  table.print(std::cout);
  if (recorder.enabled()) {
    trace::write_chrome_trace(recorder, trace_path);
    std::printf(
        "\ntrace: %zu spans, %zu counter samples -> %s (open in "
        "chrome://tracing or https://ui.perfetto.dev)\n",
        recorder.spans().size(), recorder.counters().size(),
        trace_path.c_str());
  }
  std::printf(
      "\nReading: contiguous placement holds mean bounded slowdown to "
      "%.2f vs %.2f for random scatter on the same stream — compact blocks "
      "keep communication cheap, jobs release nodes sooner, and the queue "
      "drains faster. This end-to-end gap is what CTE-Arm's topology-aware "
      "scheduler buys the whole machine, not just one job.\n",
      bsld_contiguous, bsld_random);
  return 0;
}
