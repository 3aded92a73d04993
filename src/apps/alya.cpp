#include "apps/alya.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "apps/sampled_run.h"
#include "util/check.h"

namespace ctesim::apps {

int alya_min_nodes(const arch::MachineModel& machine,
                   const AlyaConfig& config) {
  return min_nodes_to_fit(machine, config.decomposed_bytes,
                          config.replicated_bytes_per_rank);
}

AlyaResult run_alya(const arch::MachineModel& machine, int nodes,
                    const AlyaConfig& config) {
  CTESIM_EXPECTS(nodes >= 1 && nodes <= machine.num_nodes);
  AlyaResult result;
  result.nodes = nodes;
  result.fits_memory = nodes >= alya_min_nodes(machine, config);
  if (!result.fits_memory) return result;

  const mpi::Placement placement =
      mpi::Placement::per_domain(machine.node, nodes);
  const int nranks = placement.num_ranks();
  const double elems_local = config.elements / nranks;
  const double rows_local = config.unknowns / nranks;
  // Halo surface of a ~cubic subdomain with ~6 interfaces, 8 B/unknown.
  const auto halo_bytes = static_cast<std::uint64_t>(
      8.0 * std::pow(rows_local, 2.0 / 3.0) * 6.0);

  const roofline::KernelSig assembly_sig{
      .name = "alya-assembly",
      .cls = arch::KernelClass::kFemAssembly,
      .flops_per_elem = config.assembly_flops_per_elem,
      .bytes_per_elem = config.assembly_bytes_per_elem,
      .vec_potential = 0.90,
      .overlap = 0.7};
  const roofline::KernelSig solver_sig{
      .name = "alya-solver-iter",
      .cls = arch::KernelClass::kSparseSolver,
      .flops_per_elem = config.solver_flops_per_row,
      .bytes_per_elem = config.solver_bytes_per_row,
      .vec_potential = 0.85,
      .overlap = 0.4};

  const double solver_scale =
      static_cast<double>(config.solver_iters) / config.sim_solver_iters;

  // Two channels per step, matching the paper's per-phase reporting: the
  // solver channel carries the CG-iteration subsampling scale so the
  // executor owns the multiply-out.
  sampling::StepProfile profile;
  profile.total_steps = config.reported_steps;
  profile.exact_window = config.sim_steps;
  profile.channels = {{"assembly", 1.0}, {"solver", solver_scale}};
  enum : std::size_t { kAssembly, kSolver };

  result.sampling = run_steps(
      profile, config.sampling, config.recorder, machine,
      /*compute_jitter=*/0.02,  // OS noise / partition imbalance
      /*seed_base=*/1000 + static_cast<std::uint64_t>(nodes),
      placement, [&](mpi::Rank& rank, StepCursor step) -> sim::Task<> {
        // The mesh partitioner (METIS) yields ~6 neighbours per subdomain.
        const std::vector<int> neighbors =
            mpi::cube_neighbors(rank.id(), nranks, 6);
        while (step.next()) {
          if (step.region_start()) co_await rank.barrier();
          step.mark();
          // --- Assembly phase ---
          co_await rank.compute(assembly_sig, elems_local);
          // Element contributions on subdomain interfaces are exchanged
          // once.
          co_await rank.exchange(neighbors, halo_bytes, /*tag=*/1);
          step.lap(kAssembly);

          // --- Solver phase: CG iterations ---
          for (int iter = 0; iter < config.sim_solver_iters; ++iter) {
            co_await rank.compute(solver_sig, rows_local);
            co_await rank.exchange(neighbors, halo_bytes, /*tag=*/2);
            co_await rank.allreduce(16);  // two fused dot products
            co_await rank.allreduce(16);  // convergence check
          }
          step.lap(kSolver);
        }
      });
  result.assembly_per_step = result.sampling.channel("assembly").mean_step_s;
  result.solver_per_step = result.sampling.channel("solver").mean_step_s;
  result.time_per_step = result.assembly_per_step + result.solver_per_step;
  return result;
}

}  // namespace ctesim::apps
