// Fig. 13: Gromacs scalability across nodes (8 ranks x 6 threads per
// node), including the 16-rank anomaly and the 12x8 alternative layout
// that recovers the trend.
#include <cstdio>
#include <iostream>

#include "apps/gromacs.h"
#include "arch/configs.h"
#include "harness.h"
#include "report/table.h"

using namespace ctesim;

int main(int argc, char** argv) {
  bench::Harness h("fig13_gromacs_multi", "Gromacs multi-node scalability");
  if (!h.parse(argc, argv)) return h.exit_status();
  h.banner("Fig. 13", "Gromacs: scalability across nodes");

  const auto cte = arch::cte_arm();
  const auto mn4 = arch::marenostrum4();
  report::Table table("days / ns (8 ranks x 6 threads per node)",
                      {"nodes", "ranks", "CTE-Arm", "MareNostrum 4",
                       "slowdown"});
  bench::ScalingChart chart("Gromacs, multi-node", 16, "nodes", "days/ns");
  h.open_csv({"nodes", "ranks", "cte", "mn4"});
  double slowdown = 0.0;  // after the sweep: at 144 nodes, the headline
  for (int nodes : {1, 2, 4, 8, 16, 32, 64, 128, 144}) {
    const int ranks = nodes * 8;
    const auto a = apps::run_gromacs(cte, ranks);
    const auto b = apps::run_gromacs(mn4, ranks);
    slowdown = a.days_per_ns / b.days_per_ns;
    table.row(std::to_string(nodes) + " ",
              {static_cast<double>(ranks), a.days_per_ns, b.days_per_ns,
               slowdown},
              3);
    chart.cte(nodes, a.days_per_ns);
    chart.mn4(nodes, b.days_per_ns);
    h.csv_row({static_cast<double>(nodes), static_cast<double>(ranks),
               a.days_per_ns, b.days_per_ns});
  }
  table.print(std::cout);
  chart.print();

  // The anomaly: 16 ranks (2 nodes) decomposes badly on both machines; the
  // 12 ranks x 8 threads layout (dotted line in the paper) is fine.
  apps::GromacsConfig alt;
  alt.threads_per_rank = 8;
  alt.ranks_per_node = 6;
  std::printf("\n16-rank anomaly (both machines, as the paper observes):\n");
  for (const auto* m : {&cte, &mn4}) {
    const auto bad = apps::run_gromacs(*m, 16);
    const auto good = apps::run_gromacs(*m, 12, alt);
    std::printf(
        "  %-14s 16x6 = %.3f days/ns, alternative 12x8 = %.3f days/ns\n",
        m->name.c_str(), bad.days_per_ns, good.days_per_ns);
  }

  std::printf("\nheadline: @144 nodes CTE-Arm is %.2fx slower (paper: 1.5x)\n",
              slowdown);
  return 0;
}
