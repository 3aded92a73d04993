#include "hpcb/hpl.h"

#include <cmath>

#include "arch/calibration.h"
#include "simmpi/placement.h"
#include "util/check.h"

namespace ctesim::hpcb {

namespace {

double log2_ceil(int n) {
  int stages = 0;
  while ((1 << stages) < n) ++stages;
  return static_cast<double>(stages);
}

}  // namespace

HplConfig hpl_config_for(const arch::MachineModel& machine) {
  namespace calib = arch::calib;
  HplConfig config;
  if (machine.node.core.uarch == arch::MicroArch::kA64fx) {
    config.ranks_per_node = machine.node.num_domains;  // 1 rank per CMG
    config.dgemm_efficiency = calib::kHplDgemmEffA64fx;
    config.comm_overlap = 0.85;  // Fujitsu HPL + TofuD hardware collectives
  } else {
    config.ranks_per_node = 1;  // Intel's recommended 1 rank/node
    config.dgemm_efficiency = calib::kHplDgemmEffSkx;
    config.comm_overlap = 0.35;
  }
  return config;
}

HplModel::HplModel(const arch::MachineModel& machine, HplConfig config)
    : machine_(machine),
      config_(config),
      network_(machine.interconnect, machine.num_nodes) {
  CTESIM_EXPECTS(config_.nb >= 1);
  CTESIM_EXPECTS(config_.mem_fraction > 0.0 && config_.mem_fraction <= 1.0);
}

HplPoint HplModel::run(int nodes) const {
  CTESIM_EXPECTS(nodes >= 1 && nodes <= machine_.num_nodes);
  HplPoint point;
  point.nodes = nodes;

  const double mem_bytes = machine_.node.memory_gb() * 1e9 * nodes;
  point.n = std::floor(std::sqrt(config_.mem_fraction * mem_bytes / 8.0));
  const double n = point.n;

  const int nranks = nodes * config_.ranks_per_node;
  const mpi::Grid2d grid = mpi::Grid2d::near_square(nranks);
  point.p = grid.px;
  point.q = grid.py;
  const double p = point.p;
  const double q = point.q;

  // Per-rank DGEMM rate: the vendor binary's sustained rate on the cores
  // this rank owns.
  const units::FlopsPerSec node_peak = machine_.node.peak_flops();
  const double rank_rate =
      node_peak.value() * config_.dgemm_efficiency / config_.ranks_per_node;

  // Effective link behaviour for the panel broadcast (use a representative
  // mid-distance pair; HPL maps process rows onto nearby nodes).
  const double lat = machine_.interconnect.base_latency_s +
                     2.0 * machine_.interconnect.per_hop_latency_s;
  const double bw =
      machine_.interconnect.link_bw * machine_.interconnect.eff_bw_factor;

  const int steps = static_cast<int>(n / config_.nb);
  const double nb = config_.nb;
  double compute_s = 0.0;
  double comm_s = 0.0;
  double panel_s = 0.0;
  for (int k = 0; k < steps; ++k) {
    const double m = n - k * nb;  // trailing size
    if (m <= 0) break;
    // Panel factorization: NB columns of height m over the P column ranks;
    // bandwidth/latency-bound at ~15% of DGEMM rate.
    panel_s += (m * nb * nb / p) / (0.15 * rank_rate);
    // Panel broadcast along the row: each rank holds m/P rows of NB cols.
    const double panel_bytes = 8.0 * m * nb / p;
    comm_s += log2_ceil(point.q) * (lat + panel_bytes / bw);
    // Row swaps + U broadcast along the column: NB rows spread over Q.
    const double swap_bytes = 8.0 * m * nb / q;
    comm_s += log2_ceil(point.p) * (lat + swap_bytes / bw);
    // Trailing update: 2*NB*m^2 flops over the whole grid at DGEMM rate.
    compute_s += 2.0 * nb * m * m / (p * q) / rank_rate;
  }

  point.time_s = compute_s + panel_s + (1.0 - config_.comm_overlap) * comm_s;
  const double flops = 2.0 / 3.0 * n * n * n + 1.5 * n * n;
  point.gflops = flops / point.time_s / 1e9;
  point.efficiency =
      units::FlopsPerSec{point.gflops * 1e9} / (node_peak * nodes);
  return point;
}

}  // namespace ctesim::hpcb
