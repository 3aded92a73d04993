#include "apps/wrf.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include "apps/sampled_run.h"
#include "io/filesystem.h"
#include "util/check.h"

namespace ctesim::apps {

WrfResult run_wrf(const arch::MachineModel& machine, int nodes,
                  const WrfConfig& config) {
  CTESIM_EXPECTS(nodes >= 1 && nodes <= machine.num_nodes);
  WrfResult result;
  result.nodes = nodes;

  const int nranks = nodes * machine.node.core_count();
  const double mpi_overhead =
      (units::Flops{config.mpi_overhead_per_message * 8.0e9} /
       machine.node.core.effective_scalar_flops())
          .value();
  const mpi::Grid2d grid = mpi::Grid2d::near_square(nranks);
  const double local_x = static_cast<double>(config.grid_x) / grid.px;
  const double local_y = static_cast<double>(config.grid_y) / grid.py;
  const double points_local = local_x * local_y * config.levels;
  const auto halo_bytes = static_cast<std::uint64_t>(
      (local_x + local_y) * config.levels * 8.0 * 3.0);

  const roofline::KernelSig dynamics_sig = wrf_dynamics_kernel(config);
  const roofline::KernelSig physics_sig = wrf_physics_kernel(config);

  // Frame cadence (hourly output): the last step of each interval writes.
  const auto frame_bytes = static_cast<std::uint64_t>(
      static_cast<double>(config.grid_x) * config.grid_y * config.levels *
      config.frame_bytes_per_point);
  const io::FilesystemModel fs = io::production_filesystem(machine);
  const double per_frame = config.parallel_io
                               ? fs.parallel_write_seconds(frame_bytes, nodes)
                               : fs.serial_write_seconds(frame_bytes);
  const long long frame_interval =
      config.frames > 0
          ? std::max<long long>(1, config.steps / config.frames)
          : 0;
  const bool frames_in_step = config.io_enabled && config.io_in_step &&
                              frame_interval > 0;
  const auto is_frame_step = [frame_interval, frames_in_step](long long s) {
    return frames_in_step && s % frame_interval == frame_interval - 1;
  };
  // Steps still re-absorbing the serial writer's rank-0 skew: their
  // measured time differs from a steady-state step even though their work
  // is identical, so they get their own sampling stratum (signature tag).
  // The window must reach at least plan.warmup past the frame — any
  // representative whose warmup region contains the frame step measures
  // with the skew in flight.
  const long long recovery =
      config.parallel_io
          ? 0
          : std::max<long long>(2, config.sampling.warmup);
  const auto is_recovery_step = [frame_interval, frames_in_step,
                                 recovery](long long s) {
    return frames_in_step && s >= frame_interval &&
           s % frame_interval < recovery;
  };

  sampling::StepProfile profile;
  profile.total_steps = config.steps;
  profile.exact_window = config.sim_steps;
  profile.signature = [&, is_frame_step](long long s) {
    sampling::StepSignature sig;
    sig.flops = points_local * (config.dynamics_flops_per_point +
                                config.physics_flops_per_point);
    sig.bytes = points_local * (config.dynamics_bytes_per_point +
                                config.physics_bytes_per_point);
    sig.messages = 4.0 * config.halo_exchanges_per_step;
    if (is_frame_step(s)) {
      sig.io_bytes = static_cast<double>(frame_bytes);
    }
    if (is_recovery_step(s)) sig.tag = 1.0;
    return sig;
  };

  result.sampling = run_steps(
      profile, config.sampling, config.recorder, machine,
      /*compute_jitter=*/0.015,
      /*seed_base=*/5000 + static_cast<std::uint64_t>(nodes),
      mpi::Placement::per_core(machine.node, nranks),
      [&](mpi::Rank& rank, StepCursor step) -> sim::Task<> {
        const std::vector<int> neighbors = grid.neighbors(rank.id());
        while (step.next()) {
          if (step.region_start()) co_await rank.barrier();
          step.mark();
          for (int k = 0; k < config.halo_exchanges_per_step; ++k) {
            co_await rank.compute(
                dynamics_sig, points_local / config.halo_exchanges_per_step);
            co_await rank.compute_seconds(
                mpi_overhead * 2.0 * static_cast<double>(neighbors.size()));
            co_await rank.exchange(neighbors, halo_bytes, /*tag=*/1);
          }
          co_await rank.compute(physics_sig, points_local);
          if (is_frame_step(step.step())) {
            // Frame write inside its step: WRF's serial writer gathers to
            // rank 0, the MPI-IO path charges every rank its stripe.
            if (config.parallel_io) {
              co_await rank.compute_seconds(per_frame);
            } else if (rank.id() == 0) {
              co_await rank.compute_seconds(per_frame);
            }
          }
          step.lap();
        }
      });
  result.time_per_step = result.sampling.channel("step").mean_step_s;

  if (config.io_enabled && !frames_in_step) {
    result.io_time = per_frame * config.frames;
  }
  result.total_time = result.sampling.total_s + result.io_time;
  return result;
}

roofline::KernelSig wrf_dynamics_kernel(const WrfConfig& config) {
  return {.name = "wrf-dynamics",
          .cls = arch::KernelClass::kStencil,
          .flops_per_elem = config.dynamics_flops_per_point,
          .bytes_per_elem = config.dynamics_bytes_per_point,
          .vec_potential = 0.95,
          .overlap = 0.8};
}

roofline::KernelSig wrf_physics_kernel(const WrfConfig& config) {
  return {.name = "wrf-physics",
          .cls = arch::KernelClass::kPhysics,
          .flops_per_elem = config.physics_flops_per_point,
          .bytes_per_elem = config.physics_bytes_per_point,
          .vec_potential = 0.30,
          .overlap = 0.6};
}

}  // namespace ctesim::apps
