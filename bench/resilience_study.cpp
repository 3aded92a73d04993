// Resilience on a failing machine: MTBF x checkpoint-interval sweep.
//
// The paper evaluates CTE-Arm as a *production* system, and production
// machines break: nodes fail on MTBF-scale clocks, jobs die with them, and
// the operator's defense is checkpoint/restart plus a self-healing batch
// scheduler that drains failed nodes and requeues the casualties. This
// study runs one job stream through the 192-node CTE-Arm model under a
// generated fault script (fault::generate_timeline) and sweeps the
// checkpoint interval for several node-MTBF regimes, plus the per-job
// Young/Daly interval sqrt(2*C*M).
//
// The interesting shape is the goodput column: checkpointing too often
// burns the machine on checkpoint writes (which flow through the shared
// filesystem model, so big jobs pay more), too rarely loses big chunks of
// work at every failure — goodput peaks at an interior interval, which the
// Young/Daly row tracks without hand-tuning.
//
// Deterministic: identical --seed gives a byte-identical table, CSV and
// Chrome trace.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "arch/configs.h"
#include "batch/cluster.h"
#include "batch/metrics.h"
#include "batch/workload.h"
#include "fault/mtbf.h"
#include "harness.h"
#include "report/table.h"
#include "trace/chrome.h"
#include "trace/recorder.h"

using namespace ctesim;

int main(int argc, char** argv) {
  std::string trace_path;
  std::int64_t jobs = 240;
  std::int64_t seed = 1;
  bench::Harness h("resilience_study",
                   "goodput vs node MTBF and checkpoint interval on CTE-Arm");
  h.cli()
      .option("jobs", &jobs, "number of jobs in the stream")
      .option("seed", &seed, "workload + fault-script seed");
  h.trace_option(&trace_path,
                 "write a Chrome trace of the 6h-MTBF / Young-Daly run "
                 "(failures, drains, requeues) to this path");
  if (!h.parse(argc, argv)) return h.exit_status();
  if (jobs < 1) {
    std::fprintf(stderr, "resilience_study: --jobs must be >= 1, got %lld\n",
                 static_cast<long long>(jobs));
    return 1;
  }
  h.banner("Resilience study",
           "MTBF x checkpoint interval on the 192-node CTE-Arm model");

  const batch::RuntimeModel model(arch::cte_arm());
  const int total_nodes = model.machine().num_nodes;

  batch::WorkloadConfig config;
  config.num_jobs = static_cast<int>(jobs);
  config.mean_interarrival_s = 16.0;
  config.burst_fraction = 0.3;
  // Longer jobs than the throughput study: checkpoint intervals only matter
  // when jobs live long enough to cross several of them.
  config.min_runtime_s = 240.0;
  config.max_runtime_s = 2400.0;
  const auto stream =
      batch::generate(config, model, static_cast<std::uint64_t>(seed));
  // Fault script horizon: cover the stream plus a generous drain-out tail.
  const double horizon_s = stream.back().arrival_s + 4.0 * 3600.0;

  const std::vector<double> mtbf_hours = {2.0, 6.0, 24.0};
  struct IntervalChoice {
    double interval_s;  // 0 with young_daly=false: checkpointing off
    bool young_daly;
    const char* label;
  };
  const std::vector<IntervalChoice> intervals = {
      {30.0, false, "30"},   {60.0, false, "60"},  {120.0, false, "120"},
      {240.0, false, "240"}, {480.0, false, "480"}, {960.0, false, "960"},
      {0.0, false, "off"},   {0.0, true, "young-daly"}};

  report::Table table(
      "goodput under failures — node MTBF (rows) x checkpoint interval "
      "(columns)",
      {"mtbf [h]", "interval [s]", "goodput", "util", "avail",
       "wasted [nh]", "interrupted", "failed", "attempts", "makespan [h]"});
  h.open_csv({"mtbf_h", "interval", "goodput", "utilization", "availability",
              "wasted_node_h", "interrupted", "failed", "killed",
              "mean_attempts", "makespan_s"});

  trace::Recorder recorder(!trace_path.empty());
  for (std::size_t mi = 0; mi < mtbf_hours.size(); ++mi) {
    const double mtbf_h = mtbf_hours[mi];
    fault::FaultModel fm;
    fm.node_failure.mtbf_s = mtbf_h * 3600.0;
    fm.node_failure.mean_repair_s = 1800.0;  // 30 min node swap/reboot
    const auto timeline = fault::generate_timeline(
        fm, total_nodes, horizon_s, static_cast<std::uint64_t>(seed));

    double best_goodput = 0.0;
    const char* best_label = "off";
    for (const IntervalChoice& choice : intervals) {
      batch::ClusterOptions options;
      options.seed = static_cast<std::uint64_t>(seed);
      options.faults = &timeline;
      options.checkpoint.state_bytes_per_node = 4.0 * (1ull << 30);
      options.checkpoint.restart_s = 30.0;
      if (choice.young_daly) {
        options.checkpoint.young_daly = true;
        options.checkpoint.node_mtbf_s = fm.node_failure.mtbf_s;
      } else {
        options.checkpoint.interval_s = choice.interval_s;
      }
      const bool traced = recorder.enabled() && mi == 1 &&
                          choice.young_daly;
      if (traced) options.recorder = &recorder;

      const auto result = batch::run_cluster(model, stream, options);
      const auto m = batch::summarize(result, total_nodes);
      const std::string label = choice.label;
      table.row({report::fixed(mtbf_h, 0), label,
                 report::fixed(m.goodput, 3), report::fixed(m.utilization, 3),
                 report::fixed(m.availability, 3),
                 report::fixed(m.wasted_node_h, 1),
                 std::to_string(m.interrupted), std::to_string(m.failed),
                 report::fixed(m.mean_attempts, 2),
                 report::fixed(m.makespan_s / 3600.0, 2)});
      h.csv_row({report::fixed(mtbf_h, 1), label, report::fixed(m.goodput, 4),
                 report::fixed(m.utilization, 4),
                 report::fixed(m.availability, 4),
                 report::fixed(m.wasted_node_h, 2),
                 std::to_string(m.interrupted), std::to_string(m.failed),
                 std::to_string(m.killed), report::fixed(m.mean_attempts, 3),
                 report::fixed(m.makespan_s, 1)});
      if (!choice.young_daly && m.goodput > best_goodput) {
        best_goodput = m.goodput;
        best_label = choice.label;
      }
    }
    std::printf(
        "  mtbf %.0f h: fixed-interval goodput peaks at %s s (%.3f)\n",
        mtbf_h, best_label, best_goodput);
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
      "\nReading: each MTBF row is non-monotonic in the checkpoint "
      "interval — short intervals tax every job with checkpoint writes "
      "through the shared filesystem, long intervals (and 'off') forfeit "
      "work at every node failure. The sweet spot moves left as the "
      "machine gets less reliable, and the Young/Daly row lands near it "
      "per job without tuning.\n");
  return 0;
}
