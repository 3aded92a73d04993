#include "batch/runtime.h"

#include <algorithm>
#include <vector>

#include "arch/configs.h"
#include "simmpi/placement.h"
#include "util/check.h"
#include "util/hash.h"

namespace ctesim::batch {

RuntimeModel::RuntimeModel(const arch::MachineModel& machine)
    : machine_(machine),
      topology_(machine.interconnect.dims),
      exec_(machine.node, arch::default_app_compiler(machine)) {
  CTESIM_EXPECTS(machine.interconnect.kind ==
                 arch::InterconnectSpec::Kind::kTorus);
  CTESIM_EXPECTS(topology_.num_nodes() == machine.num_nodes);
}

const roofline::ExecModel& RuntimeModel::exec_at(double freq_scale) const {
  // 1.0 (and anything above: states are downclocks) is the base model —
  // exact, not a freshly built copy, so DVFS-off runs are bit-identical.
  if (freq_scale >= 1.0) return exec_;
  CTESIM_EXPECTS(freq_scale > 0.0);
  const auto it = dvfs_exec_cache_.find(freq_scale);
  if (it != dvfs_exec_cache_.end()) return it->second;
  // Core DVFS scales the clock (and with it peak FLOP rate and L1/L2
  // bandwidth derived from it); HBM bandwidth is on its own domain and
  // does not move — that asymmetry is the whole DVFS story (compute-bound
  // stretches, memory-bound does not).
  arch::NodeModel scaled = machine_.node;
  scaled.core.freq_ghz *= freq_scale;
  const auto [pos, inserted] = dvfs_exec_cache_.emplace(
      freq_scale,
      roofline::ExecModel(scaled, arch::default_app_compiler(machine_)));
  CTESIM_EXPECTS(inserted);
  return pos->second;
}

double RuntimeModel::reference_runtime(const Job& job,
                                       double freq_scale) const {
  if (job.fixed_runtime_s > 0.0) return job.fixed_runtime_s;
  const JobProfile& p = job.profile;
  CTESIM_EXPECTS(p.elems_per_node > 0.0 && p.iterations >= 1);
  CTESIM_EXPECTS(p.comm_fraction >= 0.0 && p.comm_fraction < 1.0);
  // One aggregated rank per node owning every core (the same per-node
  // granularity the large-scale app sweeps use); weak scaling, so per-node
  // work is independent of job size.
  const auto placement =
      mpi::Placement::per_node(machine_.node, job.nodes);
  const units::Seconds t_iter =
      exec_at(freq_scale).time(p.sig, p.elems_per_node,
                               placement.slot(0).cores);
  // comm_fraction is the communication share at the compact reference, so
  // compute is the (1 - f) remainder of the total.
  return (p.iterations * t_iter / (1.0 - p.comm_fraction)).value();
}

double RuntimeModel::traffic_bytes_per_node(const Job& job) const {
  if (job.fixed_runtime_s > 0.0) return 0.0;
  const JobProfile& p = job.profile;
  return p.elems_per_node * p.sig.bytes_per_elem * p.iterations;
}

double RuntimeModel::slowdown(const Job& job, double hops) const {
  const double f = job.profile.comm_fraction;
  if (f <= 0.0 || job.nodes < 2) return 1.0;
  const double ref = std::max(reference_hops(job.nodes), 1.0);
  return std::max(1.0, 1.0 + f * (hops / ref - 1.0));
}

double RuntimeModel::runtime(const Job& job, double hops,
                             double freq_scale) const {
  return reference_runtime(job, freq_scale) * slowdown(job, hops);
}

sampling::Outcome RuntimeModel::sampled_runtime(
    const Job& job, double hops, const sampling::SamplingPlan& plan,
    double freq_scale) const {
  const long long iters =
      job.fixed_runtime_s > 0.0
          ? 1
          : static_cast<long long>(job.profile.iterations);
  const double t_step = runtime(job, hops, freq_scale) /
                        static_cast<double>(iters);
  // Random-access jitter stream: step s of job j costs the same whether it
  // is reached in a full run or jumped to by a sampled plan.
  const std::uint64_t stream = hash_combine(
      hash_combine(kFnvOffsetBasis, 0x6a6f6273ULL),
      static_cast<std::uint64_t>(job.id));
  const auto step_cost = [&](long long s) {
    const std::uint64_t h =
        hash_combine(stream, static_cast<std::uint64_t>(s));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return t_step * (1.0 + kStepJitter * (2.0 * u - 1.0));
  };

  sampling::StepProfile profile;
  profile.total_steps = iters;
  profile.exact_window = iters;  // exact plans replay every iteration

  const auto runner = [&](const std::vector<long long>& steps,
                          bool want_per_step) {
    sampling::StepRunResult res;
    res.accum.assign(1, 0.0);
    if (want_per_step) res.per_rank_step.assign(1, {});
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const double dt = step_cost(steps[i]);
      res.accum[0] += dt;
      if (want_per_step) res.per_rank_step[0].push_back({dt});
      res.makespan_s += dt;
    }
    return res;
  };
  return sampling::run_plan(profile, plan, runner);
}

double RuntimeModel::reference_hops(int nodes) const {
  CTESIM_EXPECTS(nodes >= 1 && nodes <= topology_.num_nodes());
  if (nodes < 2) return 0.0;
  const auto it = ref_hops_cache_.find(nodes);
  if (it != ref_hops_cache_.end()) return it->second;
  // Measure the compact optimum by asking the allocator itself on an empty
  // machine — keeps the reference consistent with what kContiguous can do.
  sched::Allocator scratch(topology_);
  const auto block = scratch.allocate(nodes, sched::Policy::kContiguous);
  const double hops = scratch.mean_pairwise_hops(block);
  ref_hops_cache_[nodes] = hops;
  return hops;
}

}  // namespace ctesim::batch
