// What the five app proxies share. run_steps() is the one step driver:
// every pass the sampling executor asks for is simulated on a fresh World,
// each rank walks the requested steps with a StepCursor, and the cursor
// times the app's channels the way the paper reports a phase ("elapsed
// time of the slowest process": each rank's seconds summed in step order,
// then the maximum over ranks). The rank loops themselves stay in the
// apps. min_nodes_to_fit() is the memory-fit rule of Alya, NEMO and
// OpenIFS.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "arch/machine.h"
#include "sampling/executor.h"
#include "simmpi/world.h"

namespace ctesim::apps {

/// One rank's walk over the steps of a pass. A rank body uses it as
///
///   while (step.next()) {
///     if (step.region_start()) co_await rank.barrier();
///     step.mark();
///     ... work of channel 0 ...
///     step.lap(0);
///   }
class StepCursor {
 public:
  using PerStep = std::vector<std::vector<std::vector<double>>>;

  /// `sums[c][r]` and, unless empty, `per_step[c][i][r]` must be sized for
  /// every channel, position and rank of the pass.
  StepCursor(mpi::Rank& rank, const std::vector<long long>& steps,
             std::vector<std::vector<double>>& sums, PerStep& per_step)
      : rank_(&rank), steps_(&steps), sums_(&sums), per_step_(&per_step) {}

  /// Move to the next requested step; false once all are done.
  bool next() {
    pos_ = next_++;
    return pos_ < steps_->size();
  }
  /// Index of the current step in the full run.
  long long step() const { return (*steps_)[pos_]; }
  /// A step whose predecessor was not simulated starts a sampled region.
  /// The app barriers there so skew left behind by an unrelated region
  /// does not bleed into this one. Exact mode's pass is 0..window-1 and has
  /// no region start after its first step.
  bool region_start() const {
    return pos_ > 0 && (*steps_)[pos_] != (*steps_)[pos_ - 1] + 1;
  }
  /// Start timing the current step.
  void mark() { mark_ = rank_->now_s(); }
  /// Charge the seconds since the last mark or lap to `channel` (an index
  /// into StepProfile::channels), then mark again.
  void lap(std::size_t channel = 0) {
    const double now = rank_->now_s();
    const double dt = now - mark_;
    mark_ = now;
    const auto r = static_cast<std::size_t>(rank_->id());
    (*sums_)[channel][r] += dt;
    if (!per_step_->empty()) (*per_step_)[channel][pos_][r] += dt;
  }

 private:
  mpi::Rank* rank_;
  const std::vector<long long>* steps_;
  std::vector<std::vector<double>>* sums_;
  PerStep* per_step_;
  std::size_t next_ = 0;
  std::size_t pos_ = 0;
  double mark_ = 0.0;
};

/// An app's rank body: the whole rank loop over one pass.
using StepBody = std::function<sim::Task<>(mpi::Rank&, StepCursor)>;

/// One pass over `steps` on a World built from `options` and `placement`:
/// accum[c] is the largest per-rank sum of channel c, and per_rank_step is
/// filled when `want_per_step` is set (what a sampling::StepRunner returns).
sampling::StepRunResult run_step_pass(mpi::WorldOptions options,
                                      const mpi::Placement& placement,
                                      std::size_t num_channels,
                                      const std::vector<long long>& steps,
                                      bool want_per_step,
                                      const StepBody& body);

/// Run `plan` over `profile`: each pass runs `body` on a World of
/// `machine` with `compute_jitter`, seeded by
/// sampling::world_seed(seed_base, plan) and traced into `recorder`.
sampling::Outcome run_steps(const sampling::StepProfile& profile,
                            const sampling::SamplingPlan& plan,
                            trace::Recorder* recorder,
                            const arch::MachineModel& machine,
                            double compute_jitter, std::uint64_t seed_base,
                            const mpi::Placement& placement,
                            const StepBody& body);

/// The fewest nodes whose memory holds `decomposed_bytes` spread over them
/// plus `replicated_bytes_per_rank` for each rank of a fully populated
/// node; machine.num_nodes + 1 if none does.
int min_nodes_to_fit(const arch::MachineModel& machine,
                     double decomposed_bytes,
                     double replicated_bytes_per_rank);

}  // namespace ctesim::apps
