// Energy study: DVFS operating point x workload mix on the CTE-Arm model.
//
// The power subsystem prices every batch run in joules (power/): cores
// draw f*V^2-scaled active power, DRAM/HBM energy is traffic-proportional,
// links charge the communication share. This study sweeps the DVFS ladder
// over three workload mixes — compute-bound (MD), memory-bound (SpMV) and
// the generator's mixed stream — and reports energy-to-solution, EDP and
// power, then demonstrates the power-capped scheduler (allocation-time cap
// + energy-aware DVFS backfill) on the mixed stream.
//
// The shape to look for: downclocking barely slows the memory-bound mix
// (HBM bandwidth does not follow the core clock) so its energy AND EDP
// fall, while the compute-bound mix stretches by ~1/freq — race-to-idle —
// so the lowest frequency is NOT its EDP optimum.
//
// Deterministic: identical --seed gives a byte-identical table, CSV and
// Chrome trace.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "arch/configs.h"
#include "batch/cluster.h"
#include "batch/metrics.h"
#include "batch/workload.h"
#include "harness.h"
#include "power/power_model.h"
#include "report/table.h"
#include "trace/chrome.h"
#include "trace/recorder.h"

using namespace ctesim;

namespace {

/// Re-target every job of `stream` to one library profile, preserving each
/// job's nominal runtime target (iterations re-fit through the roofline
/// model), and give every job 3x wall-time headroom so the deepest DVFS
/// state (1/0.6 ~ 1.67x stretch, on top of placement scatter) never trips
/// the wall-time killer and the DVFS comparison is not confounded by kills.
std::vector<batch::Job> retarget(const std::vector<batch::Job>& stream,
                                 const batch::RuntimeModel& model,
                                 const char* profile_name) {
  std::vector<batch::Job> jobs = stream;
  for (batch::Job& job : jobs) {
    if (profile_name != nullptr) {
      const double target = model.reference_runtime(job);
      batch::Job probe = job;
      probe.profile = batch::profile_by_name(profile_name);
      probe.profile.iterations = 1;
      const double per_iter = model.reference_runtime(probe);
      probe.profile.iterations = std::max(
          1, static_cast<int>(std::lround(target / per_iter)));
      job.profile = probe.profile;
    }
    job.walltime_s = 3.0 * model.reference_runtime(job);
  }
  return jobs;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::int64_t jobs = 240;
  std::int64_t seed = 1;
  bench::Harness h("energy_study",
                   "energy-to-solution and EDP vs DVFS state and workload mix");
  h.cli()
      .option("jobs", &jobs, "number of jobs in the stream")
      .option("seed", &seed, "workload + placement seed");
  h.trace_option(&trace_path,
                 "write a Chrome trace (power counters included) of the "
                 "power-capped mixed run to this path");
  if (!h.parse(argc, argv)) return h.exit_status();
  if (jobs < 1) {
    std::fprintf(stderr, "energy_study: --jobs must be >= 1, got %lld\n",
                 static_cast<long long>(jobs));
    return 1;
  }
  h.banner("Energy study", "DVFS x workload mix on the 192-node CTE-Arm model");

  const batch::RuntimeModel model(arch::cte_arm());
  const int total_nodes = model.machine().num_nodes;
  const power::PowerModel power = power::default_power(model.machine());

  batch::WorkloadConfig config;
  config.num_jobs = static_cast<int>(jobs);
  config.mean_interarrival_s = 16.0;
  config.burst_fraction = 0.3;
  const auto base_stream =
      batch::generate(config, model, static_cast<std::uint64_t>(seed));

  struct Mix {
    const char* label;
    const char* profile;  // nullptr: keep the generator's mixed profiles
  };
  const std::vector<Mix> mixes = {
      {"compute (md)", "md"},
      {"memory (spmv)", "spmv"},
      {"mixed", nullptr},
  };

  report::Table table(
      "energy-to-solution and EDP — workload mix (rows) x DVFS state "
      "(columns)",
      {"mix", "dvfs", "freq", "makespan [h]", "energy [MJ]", "EDP [GJ*s]",
       "power [kW]", "peak [kW]", "wasted [MJ]", "killed"});
  h.open_csv({"mix", "dvfs", "freq_scale", "power_cap_w", "dvfs_backfill",
              "makespan_s", "energy_j", "edp_js", "mean_power_w",
              "peak_power_w", "wasted_energy_j", "cpu_energy_j", "mem_energy_j",
              "net_energy_j", "idle_energy_j", "killed", "capped_starts",
              "downclocked_jobs"});

  const auto emit = [&](const char* mix, const char* dvfs_name,
                        double freq_scale, const batch::ClusterOptions& o,
                        const batch::ClusterMetrics& m) {
    table.row({mix, dvfs_name, report::fixed(freq_scale, 2),
               report::fixed(m.makespan_s / 3600.0, 2),
               report::fixed(m.energy_to_solution_j / 1e6, 2),
               report::fixed(m.edp_js / 1e9, 3),
               report::fixed(m.mean_power_w / 1e3, 2),
               report::fixed(m.peak_power_w / 1e3, 2),
               report::fixed(m.wasted_energy_j / 1e6, 3),
               std::to_string(m.killed)});
    h.csv_row({mix, dvfs_name, report::fixed(freq_scale, 3),
               report::fixed(o.power_cap_w, 1), o.dvfs_backfill ? "1" : "0",
               report::fixed(m.makespan_s, 1),
               report::fixed(m.energy_to_solution_j, 1),
               report::fixed(m.edp_js, 1), report::fixed(m.mean_power_w, 1),
               report::fixed(m.peak_power_w, 1),
               report::fixed(m.wasted_energy_j, 1),
               report::fixed(m.cpu_energy_j, 1),
               report::fixed(m.mem_energy_j, 1),
               report::fixed(m.net_energy_j, 1),
               report::fixed(m.idle_energy_j, 1), std::to_string(m.killed),
               std::to_string(m.capped_starts),
               std::to_string(m.downclocked_jobs)});
  };

  // --- DVFS sweep ----------------------------------------------------------
  double nominal_mixed_peak_w = 0.0;
  for (const Mix& mix : mixes) {
    const auto stream = retarget(base_stream, model, mix.profile);
    const char* best_state = "?";
    double best_edp = 0.0;
    const char* lowest_state = "?";
    double lowest_edp = 0.0;
    for (const power::DvfsState& state : power::dvfs_states()) {
      batch::ClusterOptions options;
      options.seed = static_cast<std::uint64_t>(seed);
      options.power = &power;
      options.dvfs = state;
      const auto result = batch::run_cluster(model, stream, options);
      const auto m = batch::summarize(result, total_nodes);
      emit(mix.label, state.name, state.freq_scale, options, m);
      if (best_edp <= 0.0 || m.edp_js < best_edp) {
        best_edp = m.edp_js;
        best_state = state.name;
      }
      lowest_state = state.name;  // the ladder ends at its deepest state
      lowest_edp = m.edp_js;
      if (mix.profile == nullptr && state.nominal()) {
        nominal_mixed_peak_w = m.peak_power_w;
      }
    }
    std::printf("  %-14s EDP-optimal state: %s (deepest %s: %.3f GJ*s)\n",
                mix.label, best_state, lowest_state, lowest_edp / 1e9);
  }

  // --- power cap demo ------------------------------------------------------
  // Cap the mixed stream at 70% of its uncapped nominal peak: the scheduler
  // defers starts that would bust the cap, and with --dvfs backfill rescues
  // some of them at a deeper operating point instead of waiting.
  const double cap_w = 0.7 * nominal_mixed_peak_w;
  const auto mixed = retarget(base_stream, model, nullptr);
  trace::Recorder recorder(!trace_path.empty());
  for (const bool backfill : {false, true}) {
    batch::ClusterOptions options;
    options.seed = static_cast<std::uint64_t>(seed);
    options.power = &power;
    options.power_cap_w = cap_w;
    options.dvfs_backfill = backfill;
    if (backfill && recorder.enabled()) options.recorder = &recorder;
    const auto result = batch::run_cluster(model, mixed, options);
    const auto m = batch::summarize(result, total_nodes);
    emit(backfill ? "mixed cap+dvfs" : "mixed cap", "nominal", 1.0, options,
         m);
    std::printf(
        "  cap %.1f kW%s: peak %.1f kW, %d deferred starts, %d downclocked, "
        "makespan %.2f h\n",
        cap_w / 1e3, backfill ? " + dvfs backfill" : "",
        m.peak_power_w / 1e3, m.capped_starts, m.downclocked_jobs,
        m.makespan_s / 3600.0);
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
      "\nReading: the memory-bound mix rides the DVFS ladder down — HBM "
      "bandwidth ignores the core clock, so runtime barely moves while "
      "core power falls — but the compute-bound mix stretches by ~1/freq "
      "and its EDP worsens at the bottom of the ladder: race-to-idle wins "
      "there. The cap rows show the power-aware scheduler trading queue "
      "time (deferred starts) for a hard power envelope, and DVFS backfill "
      "buying some of that queue time back at lower frequency.\n");
  return 0;
}
