#include "apps/sampled_run.h"

#include <algorithm>
#include <utility>

namespace ctesim::apps {

sampling::StepRunResult run_step_pass(mpi::WorldOptions options,
                                      const mpi::Placement& placement,
                                      std::size_t num_channels,
                                      const std::vector<long long>& steps,
                                      bool want_per_step,
                                      const StepBody& body) {
  mpi::World world(std::move(options), placement);
  const auto nranks = static_cast<std::size_t>(world.num_ranks());
  std::vector<std::vector<double>> sums(num_channels,
                                        std::vector<double>(nranks, 0.0));
  sampling::StepRunResult res;
  if (want_per_step) {
    res.per_rank_step.assign(
        num_channels, std::vector<std::vector<double>>(
                          steps.size(), std::vector<double>(nranks, 0.0)));
  }
  res.makespan_s = world.run([&](mpi::Rank& rank) {
    return body(rank, StepCursor(rank, steps, sums, res.per_rank_step));
  });
  res.accum.reserve(num_channels);
  for (const std::vector<double>& per_rank : sums) {
    res.accum.push_back(*std::max_element(per_rank.begin(), per_rank.end()));
  }
  return res;
}

sampling::Outcome run_steps(const sampling::StepProfile& profile,
                            const sampling::SamplingPlan& plan,
                            trace::Recorder* recorder,
                            const arch::MachineModel& machine,
                            double compute_jitter, std::uint64_t seed_base,
                            const mpi::Placement& placement,
                            const StepBody& body) {
  const auto runner = [&](const std::vector<long long>& steps,
                          bool want_per_step) {
    mpi::WorldOptions options;
    options.machine = machine;
    options.compute_jitter = compute_jitter;
    options.seed = sampling::world_seed(seed_base, plan);
    options.recorder = recorder;
    return run_step_pass(std::move(options), placement,
                         profile.channels.size(), steps, want_per_step, body);
  };
  return sampling::run_plan(profile, plan, runner, recorder);
}

int min_nodes_to_fit(const arch::MachineModel& machine,
                     double decomposed_bytes,
                     double replicated_bytes_per_rank) {
  for (int nodes = 1; nodes <= machine.num_nodes; ++nodes) {
    const double per_node =
        decomposed_bytes / nodes +
        replicated_bytes_per_rank * machine.node.core_count();
    if (per_node <= machine.node.memory_gb() * 1e9) return nodes;
  }
  return machine.num_nodes + 1;
}

}  // namespace ctesim::apps
