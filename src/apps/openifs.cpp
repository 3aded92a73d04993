#include "apps/openifs.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "apps/sampled_run.h"
#include "util/check.h"

namespace ctesim::apps {

OpenIfsInput tl255l91() { return OpenIfsInput{}; }

OpenIfsInput tc0511l91() {
  OpenIfsInput input;
  input.name = "TC0511L91";
  input.columns = 843490.0;
  input.levels = 91;
  // Sets the paper's 32-node minimum on CTE-Arm (48 ranks/node).
  input.decomposed_bytes = 500e9;
  input.steps_per_day = 96;  // 900 s time step at TCo511
  return input;
}

int openifs_min_nodes(const arch::MachineModel& machine,
                      const OpenIfsConfig& config) {
  return min_nodes_to_fit(machine, config.input.decomposed_bytes,
                          config.replicated_bytes_per_rank);
}

namespace {

/// `actors` is the simulation granularity: the real MPI ranks of one actor
/// are aggregated (per-node actors for the multi-node study — the
/// transposition traffic that would stay inside a node is shared-memory
/// anyway). `real_ranks` drives the per-message software cost of the
/// alltoall, which is what limits OpenIFS strong scaling at full
/// population (48 ranks/node -> thousands of messages per transposition).
OpenIfsResult run(const arch::MachineModel& machine, int nodes, int actors,
                  int real_ranks, const OpenIfsConfig& config) {
  OpenIfsResult result;
  result.nodes = nodes;
  result.ranks = real_ranks;
  result.fits_memory = nodes >= openifs_min_nodes(machine, config);
  if (!result.fits_memory) return result;

  const int actors_per_node = (actors + nodes - 1) / nodes;
  // Each actor owns one core per real MPI rank it aggregates; in the
  // single-node study (actors == real ranks) that is one core each, and
  // unused cores stay idle exactly as in the paper's partial-population
  // runs.
  const int threads = std::max(1, real_ranks / actors);

  const OpenIfsInput& input = config.input;
  const double cells_local = input.columns * input.levels / actors;
  // One transposition moves the local share of the 3D state to all peers.
  const auto alltoall_bytes_per_pair = static_cast<std::uint64_t>(std::max(
      1.0, cells_local * 8.0 * config.transposed_fields / actors));
  // Software cost of the real per-rank message count behind one
  // transposition (every real rank matches real_ranks-1 messages), plus
  // the untuned Fujitsu-MPI alltoall setup on CTE-Arm in multi-node runs.
  double alltoall_overhead =
      config.mpi_overhead_per_message * static_cast<double>(real_ranks - 1);
  if (machine.node.core.uarch == arch::MicroArch::kA64fx && nodes > 1) {
    alltoall_overhead += config.cte_transposition_setup;
  }

  const roofline::KernelSig physics_sig{
      .name = "oifs-physics",
      .cls = arch::KernelClass::kPhysics,
      .flops_per_elem = config.physics_flops,
      .bytes_per_elem = config.physics_bytes,
      .vec_potential = 0.30,
      .overlap = 0.6};
  const roofline::KernelSig spectral_sig{
      .name = "oifs-spectral",
      .cls = arch::KernelClass::kSpectralTransform,
      .flops_per_elem = config.spectral_flops,
      .bytes_per_elem = config.spectral_bytes,
      .vec_potential = 0.85,
      .overlap = 0.6};

  const auto is_radiation_step = [&config](long long s) {
    return config.radiation_interval > 0 &&
           s % config.radiation_interval == 0;
  };

  sampling::StepProfile profile;
  profile.total_steps = input.steps_per_day;
  profile.exact_window = config.sim_steps;
  profile.signature = [&, is_radiation_step](long long s) {
    sampling::StepSignature sig;
    sig.flops =
        cells_local * (config.physics_flops + config.spectral_flops);
    sig.bytes =
        cells_local * (config.physics_bytes + config.spectral_bytes);
    sig.messages = static_cast<double>(config.transpositions_per_step) *
                   static_cast<double>(real_ranks - 1);
    sig.collectives = config.transpositions_per_step + 1.0;
    if (is_radiation_step(s)) {
      sig.flops +=
          cells_local * config.physics_flops * config.radiation_physics_scale;
    }
    return sig;
  };

  result.sampling = run_steps(
      profile, config.sampling, config.recorder, machine,
      /*compute_jitter=*/0.015,
      /*seed_base=*/4000 + static_cast<std::uint64_t>(actors),
      mpi::Placement::hybrid(machine.node, actors, actors_per_node, threads),
      [&](mpi::Rank& rank, StepCursor step) -> sim::Task<> {
        while (step.next()) {
          if (step.region_start()) co_await rank.barrier();
          step.mark();
          // Grid-point space: physics parameterizations, column by column.
          co_await rank.compute(physics_sig, cells_local);
          if (is_radiation_step(step.step())) {
            co_await rank.compute(
                physics_sig, cells_local * config.radiation_physics_scale);
          }
          // Spectral space: FFT + Legendre transforms.
          co_await rank.compute(spectral_sig, cells_local);
          // Transpositions between the spaces.
          for (int t = 0; t < config.transpositions_per_step; ++t) {
            co_await rank.compute_seconds(alltoall_overhead);
            co_await rank.alltoall(alltoall_bytes_per_pair);
          }
          co_await rank.allreduce(8);  // spectral norms / CFL diagnostics
          step.lap();
        }
      });
  const double step_time = result.sampling.channel("step").mean_step_s;
  result.seconds_per_day = step_time * input.steps_per_day;
  return result;
}

}  // namespace

OpenIfsResult run_openifs_ranks(const arch::MachineModel& machine, int nranks,
                                const OpenIfsConfig& config) {
  CTESIM_EXPECTS(nranks >= 1 && nranks <= machine.node.core_count());
  return run(machine, 1, nranks, nranks, config);
}

OpenIfsResult run_openifs_nodes(const arch::MachineModel& machine, int nodes,
                                const OpenIfsConfig& config) {
  CTESIM_EXPECTS(nodes >= 1 && nodes <= machine.num_nodes);
  // Per-node actors; the real population is 48 MPI ranks per node.
  return run(machine, nodes, nodes, nodes * machine.node.core_count(),
             config);
}

}  // namespace ctesim::apps
