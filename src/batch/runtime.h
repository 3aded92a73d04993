// Job runtime model: how long a batch job runs on a given allocation.
//
// Compute time comes from the same roofline::ExecModel the figure benches
// use (one aggregated rank per node, mpi::Placement::per_node granularity).
// Placement quality enters as a slowdown on the job's communication share:
// the further apart the allocator scattered the job's nodes (mean pairwise
// hops vs the compact reference for that size), the longer its halo
// exchanges and reductions take. This is the quantity the topology-aware
// CTE-Arm scheduler exists to minimize (paper Sections II and VI iv).
#pragma once

#include <map>

#include "arch/machine.h"
#include "batch/job.h"
#include "net/topology.h"
#include "roofline/exec_model.h"
#include "sampling/executor.h"
#include "sampling/plan.h"
#include "sched/allocator.h"

namespace ctesim::batch {

class RuntimeModel {
 public:
  /// `machine` must have a torus interconnect (the allocator's domain).
  explicit RuntimeModel(const arch::MachineModel& machine);

  /// Runtime on a compact (reference) allocation — what the workload
  /// generator pads into a wall-time request. `freq_scale` (a DVFS
  /// operating point, see power/power_model.h) scales the core clock and
  /// therefore the roofline compute rate; memory bandwidth is unchanged,
  /// so compute-bound jobs stretch by ~1/freq_scale and memory-bound jobs
  /// barely move. 1.0 is exactly the unscaled model. Fixed-runtime jobs
  /// (trace replay) carry measured times and do not respond to DVFS.
  double reference_runtime(const Job& job, double freq_scale = 1.0) const;

  /// Runtime on the specific allocation `nodes`; `hops` is the allocation's
  /// mean pairwise hop distance (sched::Allocator::mean_pairwise_hops).
  double runtime(const Job& job, double hops, double freq_scale = 1.0) const;

  /// Per-iteration OS-noise amplitude of the sampled_runtime() step model
  /// (uniform in [-kStepJitter, +kStepJitter], the same order as the
  /// simmpi worlds' compute_jitter).
  static constexpr double kStepJitter = 0.015;

  /// Runtime estimated through the sampling executor. The job's
  /// iterations become the step axis: each iteration costs
  /// runtime(job, hops, freq)/iterations stretched by deterministic
  /// per-step jitter (seeded from plan.seed and job.id, random-access so
  /// any subset of steps reproduces the full run's values). Exact plans
  /// simulate every iteration — the ground truth the CI of a sampled plan
  /// is measured against; sampled plans simulate K representatives plus
  /// warmup and report the CI. Fixed-runtime jobs collapse to one step.
  sampling::Outcome sampled_runtime(const Job& job, double hops,
                                    const sampling::SamplingPlan& plan,
                                    double freq_scale = 1.0) const;

  /// Memory traffic one node of this job moves over its whole runtime
  /// (elements x bytes/elem x iterations) — what the power layer prices at
  /// J/B. Zero for fixed-runtime jobs (no modeled traffic).
  double traffic_bytes_per_node(const Job& job) const;

  /// Placement slowdown factor >= 1: 1 + comm_fraction * (hops/ref - 1),
  /// clamped below at 1 (a better-than-reference block is not a speedup —
  /// the reference already is the compact optimum for that size).
  double slowdown(const Job& job, double hops) const;

  /// Mean pairwise hops of a compact block of `nodes` nodes on an empty
  /// torus — the reference the scheduler aims for (cached per size).
  double reference_hops(int nodes) const;

  const arch::MachineModel& machine() const { return machine_; }
  const net::TorusTopology& topology() const { return topology_; }

 private:
  /// The exec model at a DVFS frequency scale (1.0 = the base model);
  /// scaled models are built lazily and cached per distinct scale.
  const roofline::ExecModel& exec_at(double freq_scale) const;

  arch::MachineModel machine_;
  net::TorusTopology topology_;
  roofline::ExecModel exec_;
  mutable std::map<int, double> ref_hops_cache_;
  mutable std::map<double, roofline::ExecModel> dvfs_exec_cache_;
};

}  // namespace ctesim::batch
