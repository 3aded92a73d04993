#include "apps/gromacs.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include "apps/sampled_run.h"
#include "util/check.h"

namespace ctesim::apps {

GromacsResult run_gromacs(const arch::MachineModel& machine, int nranks,
                          const GromacsConfig& config) {
  CTESIM_EXPECTS(nranks >= 1);
  GromacsResult result;
  result.total_ranks = nranks;
  result.cores = nranks * config.threads_per_rank;

  const int cores_per_node = machine.node.core_count();
  const int ranks_per_node =
      result.cores <= cores_per_node
          ? nranks  // single-node study: all ranks share the node
          : config.ranks_per_node;
  result.nodes = (nranks + ranks_per_node - 1) / ranks_per_node;
  CTESIM_EXPECTS(result.nodes <= machine.num_nodes);

  const double imbalance =
      nranks == 16 ? config.imbalance_16_ranks : 1.0;
  const double atoms_local = config.atoms / nranks * imbalance;
  const double pairs_local = atoms_local * config.pairs_per_atom;
  const auto halo_bytes = static_cast<std::uint64_t>(
      std::pow(atoms_local, 2.0 / 3.0) * 6.0 *
      config.halo_bytes_per_surface_atom);

  const roofline::KernelSig nonbonded_sig{
      .name = "gmx-nonbonded",
      .cls = arch::KernelClass::kMdNonbonded,
      .flops_per_elem = 45.0,  // matches kernels/md.cpp's pair loop
      .bytes_per_elem = 9.0,
      .vec_potential = 0.95,
      .overlap = 0.7};
  const roofline::KernelSig bonded_sig{
      .name = "gmx-bonded",
      .cls = arch::KernelClass::kGeneric,
      .flops_per_elem = config.bonded_flops_per_atom,
      .bytes_per_elem = config.bonded_bytes_per_atom,
      .vec_potential = 0.6,
      .overlap = 0.6};
  const roofline::KernelSig search_sig{
      .name = "gmx-nsearch",
      .cls = arch::KernelClass::kGeneric,
      .flops_per_elem = config.search_flops_per_atom,
      .bytes_per_elem = 120.0,
      .vec_potential = 0.4,
      .overlap = 0.5};

  // One nanosecond is the natural full-run horizon of the paper's
  // days-per-ns metric; the nstlist cadence (search every 10th step) is the
  // two-phase structure sampling detects.
  const double steps_per_ns = 1e6 / config.timestep_fs;
  sampling::StepProfile profile;
  profile.total_steps = static_cast<long long>(steps_per_ns);
  profile.exact_window = config.sim_steps;
  profile.signature = [&](long long s) {
    sampling::StepSignature sig;
    sig.flops = pairs_local * 45.0 +
                atoms_local * config.bonded_flops_per_atom;
    sig.bytes = pairs_local * 9.0 +
                atoms_local * config.bonded_bytes_per_atom;
    sig.messages = 2.0 * config.dd_neighbors;
    sig.collectives = 1.0;
    if (s % config.nstlist == 0) {
      sig.flops += atoms_local * config.search_flops_per_atom;
      sig.bytes += atoms_local * 120.0;
    }
    return sig;
  };

  result.sampling = run_steps(
      profile, config.sampling, config.recorder, machine,
      /*compute_jitter=*/0.02,
      /*seed_base=*/3000 + static_cast<std::uint64_t>(nranks),
      mpi::Placement::hybrid(machine.node, nranks, ranks_per_node,
                             config.threads_per_rank),
      [&](mpi::Rank& rank, StepCursor step) -> sim::Task<> {
        // DD neighbors on a ~3D grid of ranks.
        const std::vector<int> neighbors =
            mpi::cube_neighbors(rank.id(), nranks, config.dd_neighbors);
        while (step.next()) {
          if (step.region_start()) co_await rank.barrier();
          step.mark();
          if (step.step() % config.nstlist == 0) {
            co_await rank.compute(search_sig, atoms_local);
          }
          // Positions out to DD neighbors.
          co_await rank.exchange(neighbors, halo_bytes, /*tag=*/1);
          co_await rank.compute(nonbonded_sig, pairs_local);
          co_await rank.compute(bonded_sig, atoms_local);
          // Forces back from DD neighbors.
          co_await rank.exchange(neighbors, halo_bytes, /*tag=*/2);
          // MPI stack cost of the many small messages per step.
          co_await rank.compute_seconds(
              config.mpi_overhead_per_message *
              (4.0 * static_cast<double>(neighbors.size()) + 2.0));
          // Energy/virial reduction (temperature & pressure coupling).
          co_await rank.allreduce(64);
          step.lap();
        }
      });
  result.time_per_step = result.sampling.channel("step").mean_step_s;
  result.days_per_ns = result.time_per_step * steps_per_ns / 86400.0;
  return result;
}

}  // namespace ctesim::apps
