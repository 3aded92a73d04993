// The sampled executor: decides WHICH timesteps of a profile to simulate
// and turns the measured channel seconds into an extrapolated total with a
// confidence interval. The app proxies provide a StepRunner that performs
// the actual coroutine-MPI simulation of a given step list; the executor
// owns every extrapolation multiply that used to be scattered across
// src/apps (the `raw-sim-steps` lint rule keeps it that way).
//
// Exact mode simulates the leading `exact_window` steps and extrapolates
// linearly in the legacy arithmetic order — bit-identical to the old
// per-app `slowest-rank sum / sim_steps * steps` code it replaced
// (golden tests enforce this). Sampled mode detects phases, simulates K
// representatives per phase plus a warmup prefix, and reports a
// stratified estimate:
//
//   total   = sum_p  scale * N_p * mean_p
//   var     = sum_p (scale * N_p)^2 * var_p / K_p
//   ci_half = t_{0.975, df} * sqrt(var),  df by Welch–Satterthwaite
//
// See docs/SAMPLING.md for the derivation and measured accuracy.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sampling/phases.h"
#include "sampling/plan.h"
#include "sampling/signature.h"

namespace ctesim::trace {
class Recorder;
}

namespace ctesim::sampling {

/// One simulated pass over a requested step list, as measured by the app's
/// runner.
struct StepRunResult {
  /// accum[c]: slowest-rank accumulated seconds of channel c over the whole
  /// pass (each rank's seconds summed in step order, then the maximum).
  std::vector<double> accum;
  /// per_rank_step[c][i][r]: seconds rank r spent in channel c at the i-th
  /// requested step. Filled only when the executor asked for it. Kept
  /// per-rank so the estimator can extrapolate each rank's full run and
  /// take the slowest — matching the max-of-sums metric the exact mode
  /// reports (a sum of per-step maxes would be biased high).
  std::vector<std::vector<std::vector<double>>> per_rank_step;
  /// Simulated makespan of the pass, seconds (trace time axis).
  double makespan_s = 0.0;
};

/// Simulate the given step indices (ascending, distinct) and report the
/// per-channel seconds. `want_per_step` is false in exact mode so large
/// windows do not pay per-step bookkeeping; when true, per_rank_step must
/// be filled. The app proxies' runner is apps::run_steps
/// (apps/sampled_run.h).
using StepRunner = std::function<StepRunResult(
    const std::vector<long long>& steps, bool want_per_step)>;

/// Extrapolated estimate for one channel.
struct ChannelEstimate {
  std::string name;
  double mean_step_s = 0.0;  ///< scaled per-step mean over the full run
  double total_s = 0.0;      ///< mean_step_s extrapolated to total_steps
  double ci_half_s = 0.0;    ///< 95% CI half-width on total_s (0 in exact)
  double df = 0.0;           ///< Welch–Satterthwaite effective dof
};

struct Outcome {
  Mode mode = Mode::kExact;
  long long steps_total = 0;      ///< full-run steps the estimate covers
  long long steps_simulated = 0;  ///< distinct steps actually simulated
  std::size_t phase_count = 1;    ///< detected phases (1 in exact mode)
  std::vector<ChannelEstimate> channels;  ///< profile.channels order
  double total_s = 0.0;    ///< sum of channel totals
  double ci_half_s = 0.0;  ///< 95% CI half-width on total_s
  double df = 0.0;         ///< effective dof behind ci_half_s
  double makespan_s = 0.0;

  /// Simulation-work reduction: steps_total / steps_simulated. This is the
  /// deterministic speedup the benches report (wall-clock tracks it).
  double speedup() const;

  /// Estimate for the named channel; the channel must exist.
  const ChannelEstimate& channel(std::string_view name) const;
};

/// Execute `plan` over `profile` via `runner`. When `recorder` is given
/// (and enabled), emits a "sampling" span plus steps/phases/CI counters on
/// the global track.
Outcome run_plan(const StepProfile& profile, const SamplingPlan& plan,
                 const StepRunner& runner,
                 trace::Recorder* recorder = nullptr);

}  // namespace ctesim::sampling
