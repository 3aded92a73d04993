#include "hpcb/hpl_sim.h"

#include <cmath>
#include <memory>
#include <vector>

#include "simmpi/world.h"
#include "util/check.h"

namespace ctesim::hpcb {

HplSimResult run_hpl_sim(const arch::MachineModel& machine, int nodes,
                         const HplConfig& config, int step_stride) {
  CTESIM_EXPECTS(nodes >= 1 && nodes <= machine.num_nodes);
  CTESIM_EXPECTS(step_stride >= 1);

  const double mem_bytes = machine.node.memory_gb() * 1e9 * nodes;
  const double n = std::floor(std::sqrt(config.mem_fraction * mem_bytes / 8.0));
  const int nranks = nodes * config.ranks_per_node;
  const mpi::Grid2d grid = mpi::Grid2d::near_square(nranks);
  const int p = grid.px;
  const int q = grid.py;
  const double rank_rate = machine.node.peak_flops().value() *
                           config.dgemm_efficiency / config.ranks_per_node;
  const double nb = config.nb;
  const int total_steps = static_cast<int>(n / nb);

  mpi::WorldOptions options;
  options.machine = machine;
  options.network_jitter = 0.0;
  mpi::World world(std::move(options),
                   mpi::Placement::fill_nodes(machine.node, nranks,
                                              config.ranks_per_node));

  // Row and column process groups (HPL's column-major rank grid:
  // rank = pi + qi * P).
  std::vector<mpi::Group> row_groups;   // same pi, size Q
  std::vector<mpi::Group> col_groups;   // same qi, size P
  row_groups.reserve(static_cast<std::size_t>(p));
  for (int pi = 0; pi < p; ++pi) {
    std::vector<int> members;
    for (int qi = 0; qi < q; ++qi) members.push_back(pi + qi * p);
    row_groups.push_back(world.create_group(std::move(members)));
  }
  col_groups.reserve(static_cast<std::size_t>(q));
  for (int qi = 0; qi < q; ++qi) {
    std::vector<int> members;
    for (int pi = 0; pi < p; ++pi) members.push_back(pi + qi * p);
    col_groups.push_back(world.create_group(std::move(members)));
  }

  int steps_simulated = 0;
  const double makespan = world.run([&](mpi::Rank& rank) -> sim::Task<> {
    const int pi = rank.id() % p;
    const int qi = rank.id() / p;
    const mpi::Group& my_row = row_groups[static_cast<std::size_t>(pi)];
    const mpi::Group& my_col = col_groups[static_cast<std::size_t>(qi)];
    for (int k = 0; k < total_steps; k += step_stride) {
      const double m = n - k * nb;
      if (m <= 0.0) break;
      // Each sampled step stands for `step_stride` steps around it; time
      // one instance of every phase, then charge the remaining copies.
      const double copies = static_cast<double>(
          std::min(step_stride, total_steps - k));
      // Panel factorization on the owning column.
      double t0 = rank.now_s();
      if (qi == k % q) {
        co_await rank.compute_seconds(m * nb * nb / p / (0.15 * rank_rate));
      }
      // Panel broadcast along my process row from the owning column.
      const auto panel_bytes =
          static_cast<std::uint64_t>(8.0 * m * nb / p);
      co_await rank.bcast(my_row, k % q, panel_bytes);
      // Row swaps + U broadcast along my process column.
      const auto swap_bytes = static_cast<std::uint64_t>(8.0 * m * nb / q);
      co_await rank.bcast(my_col, k % p, swap_bytes);
      // Trailing DGEMM update.
      co_await rank.compute_seconds(2.0 * nb * m * m / (p * q) / rank_rate);
      // Charge the steps this sample stands for.
      const double dt = rank.now_s() - t0;
      co_await rank.compute_seconds(dt * (copies - 1.0));
      if (rank.id() == 0) ++steps_simulated;
    }
    co_return;
  });

  HplSimResult result;
  result.time_s = makespan;
  const double flops = 2.0 / 3.0 * n * n * n + 1.5 * n * n;
  result.gflops = flops / makespan / 1e9;
  result.steps_simulated = steps_simulated;
  return result;
}

}  // namespace ctesim::hpcb
