// Ablation: how much does the topology-aware scheduler buy?
//
// CTE-Arm's scheduler allocates compact torus blocks (Section II); its
// inability to let users pick nodes is one of the paper's complaints
// (Section VI, iv). This bench runs the same halo-exchange workload on 16
// nodes allocated three ways on a half-busy machine — compact block,
// first-free linear, random scatter — and reports the communication cost
// of each placement.
#include <cstdio>
#include <iostream>
#include <vector>

#include "arch/configs.h"
#include "harness.h"
#include "net/topology.h"
#include "report/table.h"
#include "sched/allocator.h"
#include "simmpi/world.h"

using namespace ctesim;

namespace {

double run_halo_on(const std::vector<int>& nodes, bool congestion) {
  mpi::WorldOptions options;
  options.machine = arch::cte_arm();
  options.network_jitter = 0.0;
  options.congestion = congestion;
  const int p = static_cast<int>(nodes.size());
  mpi::World world(std::move(options),
                   mpi::Placement::one_per_node_at(arch::cte_arm().node,
                                                   nodes));
  return world.run([p](mpi::Rank& r) -> sim::Task<> {
    std::vector<int> neighbors;
    if (r.id() > 0) neighbors.push_back(r.id() - 1);
    if (r.id() + 1 < p) neighbors.push_back(r.id() + 1);
    for (int step = 0; step < 50; ++step) {
      co_await r.exchange(neighbors, 256 * 1024);
      co_await r.allreduce(8);
    }
  });
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("ablation_placement", "scheduler allocation policies");
  if (!h.parse(argc, argv)) return h.exit_status();
  h.banner("Ablation",
           "node allocation policy vs communication cost (16 nodes)");

  net::TorusTopology torus(arch::cte_arm().interconnect.dims);

  report::Table table(
      "50 halo steps + reductions on a half-busy 192-node torus",
      {"policy", "mean pairwise hops", "makespan [ms]",
       "congested [ms]"});
  h.open_csv({"policy", "hops", "ms", "congested_ms"});
  for (auto policy :
       {sched::Policy::kContiguous, sched::Policy::kLinear,
        sched::Policy::kRandom}) {
    sched::Allocator alloc(torus);
    // Background load: every other node busy (a realistic production mix).
    std::vector<int> background;
    for (int n = 0; n < torus.num_nodes(); n += 2) background.push_back(n);
    alloc.occupy(background);
    const auto nodes = alloc.allocate(16, policy, /*seed=*/11);
    const double hops = alloc.mean_pairwise_hops(nodes);
    const double t = run_halo_on(nodes, false);
    const double tc = run_halo_on(nodes, true);
    table.row({sched::name_of(policy), report::fixed(hops, 2),
               report::fixed(t * 1e3, 3), report::fixed(tc * 1e3, 3)});
    h.csv_row({sched::name_of(policy), report::fixed(hops, 4),
               report::fixed(t * 1e3, 4), report::fixed(tc * 1e3, 4)});
  }
  table.print(std::cout);
  std::printf(
      "\nReading: the compact block keeps neighbors 1-2 hops apart; random "
      "scatter multiplies hop counts and, under contention, queueing — the "
      "effect the topology-aware scheduler exists to avoid, and what users "
      "lose when they cannot control placement (paper Section VI, iv).\n");
  return 0;
}
