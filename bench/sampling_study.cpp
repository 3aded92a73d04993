// Sampling study: representative-region sampling vs full simulation.
//
// Ground truth is a full exact run — every time step simulated — of a
// 10x-length NEMO BENCH run (10000 steps with a diagnostic phase every
// 10th) and a long WRF run with in-step frame output. The sweep then
// re-estimates each total through the sampling executor for a grid of
// K (representatives per phase) x max_phases, reporting the estimate, its
// 95% confidence interval, the measured error against the full run, and
// the simulation speedup (steps simulated full / steps simulated sampled).
//
// The shapes to look for: error stays inside the reported CI while the
// speedup reaches two orders of magnitude; max_phases=1 (phase-blind
// sampling) still converges but needs the CI to admit the phase-mixture
// variance, while max_phases high enough to separate the diagnostic /
// frame steps tightens the interval at the same K.
//
// Deterministic: identical --seed gives a byte-identical table, CSV and
// Chrome trace (ctest determinism.sampling_study checks their digests).
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "apps/nemo.h"
#include "apps/wrf.h"
#include "arch/configs.h"
#include "harness.h"
#include "report/table.h"
#include "trace/chrome.h"
#include "trace/recorder.h"

using namespace ctesim;

namespace {

struct Row {
  const char* app;
  sampling::Outcome outcome;
  double full_s = 0.0;     ///< ground-truth total of the full exact run
  double total_s = 0.0;    ///< app-level total of this run
  std::size_t max_phases = 0;
  long long k = 0;
  long long warmup = 0;
};

double abs_err(const Row& r) { return std::fabs(r.total_s - r.full_s); }
bool in_ci(const Row& r) { return abs_err(r) <= r.outcome.ci_half_s; }

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::int64_t nemo_steps = 10000;
  std::int64_t wrf_steps = 1000;
  std::int64_t seed = 2;
  bool check = false;
  bench::Harness h("sampling_study",
                   "sampled vs full error and speedup over a K x phases sweep");
  h.cli()
      .option("nemo-steps", &nemo_steps, "NEMO full-run length (time steps)")
      .option("wrf-steps", &wrf_steps, "WRF full-run length (time steps)")
      .option("seed", &seed, "sampling plan seed");
  h.trace_option(&trace_path,
                 "write a Chrome trace of one sampled run to this path")
      .flag("check", &check,
            "exit nonzero if any sampled error exceeds its CI bound");
  if (!h.parse(argc, argv)) return h.exit_status();
  if (nemo_steps < 10 || wrf_steps < 10) {
    std::fprintf(stderr, "sampling_study: step counts must be >= 10\n");
    return 1;
  }
  h.banner("Sampling study",
           "representative-region sampling: error vs CI vs speedup");

  const auto cte = arch::cte_arm();
  trace::Recorder recorder(!trace_path.empty());
  std::vector<Row> rows;

  const std::vector<long long> ks = {4, 8, 16};
  const std::vector<std::size_t> phase_caps = {1, 4};

  // --- NEMO: 10x BENCH length, diagnostic reductions every 10th step ------
  apps::NemoConfig nemo;
  nemo.steps = static_cast<int>(nemo_steps);
  nemo.sim_steps = static_cast<int>(nemo_steps);  // exact: the full run
  nemo.diag_interval = 10;
  const auto nemo_full = apps::run_nemo(cte, 8, nemo);
  std::printf("  nemo full run: %d steps, total %.4f s\n", nemo.steps,
              nemo_full.total_time);
  for (const std::size_t cap : phase_caps) {
    for (const long long k : ks) {
      apps::NemoConfig s = nemo;
      s.sampling.mode = sampling::Mode::kSampled;
      s.sampling.k = k;
      s.sampling.warmup = 2;
      s.sampling.max_phases = cap;
      s.sampling.seed = static_cast<std::uint64_t>(seed);
      // One representative sampled run carries the trace spans/counters.
      if (cap == 4 && k == 8 && recorder.enabled()) {
        s.recorder = &recorder;
      }
      const auto r = apps::run_nemo(cte, 8, s);
      rows.push_back({"nemo", r.sampling, nemo_full.total_time,
                      r.total_time, cap, k, s.sampling.warmup});
    }
  }

  // --- WRF: long run with hourly frames written inside their steps --------
  apps::WrfConfig wrf;
  wrf.steps = static_cast<int>(wrf_steps);
  wrf.sim_steps = static_cast<int>(wrf_steps);
  wrf.frames = static_cast<int>(wrf_steps / 100);
  wrf.io_in_step = true;
  const auto wrf_full = apps::run_wrf(cte, 2, wrf);
  std::printf("  wrf  full run: %d steps, total %.4f s\n\n", wrf.steps,
              wrf_full.total_time);
  for (const std::size_t cap : phase_caps) {
    for (const long long k : ks) {
      apps::WrfConfig s = wrf;
      s.sampling.mode = sampling::Mode::kSampled;
      s.sampling.k = k;
      s.sampling.warmup = 3;
      s.sampling.max_phases = cap;
      s.sampling.seed = static_cast<std::uint64_t>(seed);
      const auto r = apps::run_wrf(cte, 2, s);
      rows.push_back({"wrf", r.sampling, wrf_full.total_time, r.total_time,
                      cap, k, s.sampling.warmup});
    }
  }

  report::Table table(
      "sampled estimate vs full run — K x max_phases sweep",
      {"app", "K", "max_ph", "phases", "sim steps", "full [s]", "est [s]",
       "±CI [s]", "err [s]", "err %", "in CI", "speedup"});
  h.open_csv({"app", "k", "max_phases", "warmup", "seed", "phases_detected",
              "steps_total", "steps_simulated", "full_s", "sampled_s",
              "ci_half_s", "abs_err_s", "in_ci", "speedup"});
  int misses = 0;
  for (const Row& r : rows) {
    const double err = r.total_s - r.full_s;
    if (!in_ci(r)) ++misses;
    table.row({r.app, std::to_string(r.k), std::to_string(r.max_phases),
               std::to_string(r.outcome.phase_count),
               std::to_string(r.outcome.steps_simulated),
               report::fixed(r.full_s, 4), report::fixed(r.total_s, 4),
               report::fixed(r.outcome.ci_half_s, 4),
               report::fixed(err, 4),
               report::fixed(100.0 * err / r.full_s, 3),
               in_ci(r) ? "yes" : "NO",
               report::fixed(r.outcome.speedup(), 1)});
    h.csv_row({r.app, std::to_string(r.k), std::to_string(r.max_phases),
               std::to_string(r.warmup), std::to_string(seed),
               std::to_string(r.outcome.phase_count),
               std::to_string(r.outcome.steps_total),
               std::to_string(r.outcome.steps_simulated),
               report::fixed(r.full_s, 9), report::fixed(r.total_s, 9),
               report::fixed(r.outcome.ci_half_s, 9),
               report::fixed(abs_err(r), 9), in_ci(r) ? "1" : "0",
               report::fixed(r.outcome.speedup(), 3)});
  }
  table.print(std::cout);

  if (recorder.enabled()) {
    trace::write_chrome_trace(recorder, trace_path);
    std::printf(
        "\ntrace: %zu spans, %zu counter samples -> %s\n",
        recorder.spans().size(), recorder.counters().size(),
        trace_path.c_str());
  }
  std::printf(
      "\nReading: each sampled row simulates K representatives per detected "
      "phase (plus warmup) instead of every step; the error against the "
      "full run should sit inside the reported 95%% interval while the "
      "speedup column grows with run length. Phase-aware strata "
      "(max_phases=4) give tighter intervals than phase-blind sampling "
      "(max_phases=1) at the same K.\n");
  if (check && misses > 0) {
    std::fprintf(stderr,
                 "sampling_study: %d of %zu sampled runs fell outside "
                 "their reported CI\n",
                 misses, rows.size());
    return 1;
  }
  return 0;
}
