#include "apps/nemo.h"

#include <cstdint>
#include <vector>

#include "apps/sampled_run.h"
#include "util/check.h"

namespace ctesim::apps {

int nemo_min_nodes(const arch::MachineModel& machine,
                   const NemoConfig& config) {
  // MPI-only: 48 ranks per node, each replicating configuration data.
  return min_nodes_to_fit(machine, config.decomposed_bytes,
                          config.replicated_bytes_per_rank);
}

NemoResult run_nemo(const arch::MachineModel& machine, int nodes,
                    const NemoConfig& config) {
  CTESIM_EXPECTS(nodes >= 1 && nodes <= machine.num_nodes);
  NemoResult result;
  result.nodes = nodes;
  result.fits_memory = nodes >= nemo_min_nodes(machine, config);
  if (!result.fits_memory) return result;

  // MPI-only full population: one rank per core, as the paper runs NEMO.
  const int nranks = nodes * machine.node.core_count();
  // 2D process grid px x py ~ proportional to the horizontal domain.
  const mpi::Grid2d grid = mpi::Grid2d::near_square(nranks);
  const double local_x = static_cast<double>(config.grid_x) / grid.px;
  const double local_y = static_cast<double>(config.grid_y) / grid.py;
  const double points_local = local_x * local_y * config.levels;
  // Halo: one row/column of the local tile, all levels, 8 B, ~4 fields.
  const auto halo_bytes = static_cast<std::uint64_t>(
      (local_x + local_y) * config.levels * 8.0 * 4.0);

  const roofline::KernelSig dynamics_sig{
      .name = "nemo-dynamics",
      .cls = arch::KernelClass::kStencil,
      .flops_per_elem = config.flops_per_point,
      .bytes_per_elem = config.bytes_per_point,
      .vec_potential = 0.95,
      .overlap = 0.8};

  const auto is_diag_step = [&config](long long s) {
    return config.diag_interval > 0 &&
           s % config.diag_interval == config.diag_interval - 1;
  };

  sampling::StepProfile profile;
  profile.total_steps = config.steps;
  profile.exact_window = config.sim_steps;
  profile.signature = [&, is_diag_step](long long s) {
    sampling::StepSignature sig;
    sig.flops = points_local * config.flops_per_point;
    sig.bytes = points_local * config.bytes_per_point;
    sig.messages = 4.0 * config.kernels_per_step;
    sig.collectives = config.reductions_per_step;
    if (is_diag_step(s)) sig.collectives += config.diag_reductions;
    return sig;
  };

  result.sampling = run_steps(
      profile, config.sampling, config.recorder, machine,
      /*compute_jitter=*/0.02,
      /*seed_base=*/2000 + static_cast<std::uint64_t>(nodes),
      mpi::Placement::per_core(machine.node, nranks),
      [&](mpi::Rank& rank, StepCursor step) -> sim::Task<> {
        // 2D Cartesian neighbors (non-periodic, like the closed ORCA
        // domains).
        const std::vector<int> neighbors = grid.neighbors(rank.id());
        while (step.next()) {
          if (step.region_start()) co_await rank.barrier();
          step.mark();
          // Field-group sweeps, each ending in a halo exchange: this
          // interleaving is what makes the tiny-tile regime latency-bound
          // (the paper's flattening beyond ~128 CTE-Arm nodes).
          for (int k = 0; k < config.kernels_per_step; ++k) {
            co_await rank.compute(dynamics_sig,
                                  points_local / config.kernels_per_step);
            co_await rank.compute_seconds(
                config.mpi_overhead_per_message * 2.0 *
                static_cast<double>(neighbors.size()));
            co_await rank.exchange(neighbors, halo_bytes, /*tag=*/1);
          }
          int reductions = config.reductions_per_step;
          if (is_diag_step(step.step())) reductions += config.diag_reductions;
          for (int r = 0; r < reductions; ++r) {
            co_await rank.allreduce(8);
          }
          step.lap();
        }
      });
  result.time_per_step = result.sampling.channel("step").mean_step_s;
  result.total_time = result.sampling.total_s;
  return result;
}

}  // namespace ctesim::apps
