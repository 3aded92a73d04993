// Fig. 10: Alya Solver phase (slowest process, avg of 19 steps) — the
// memory/communication-bound CG where HBM compresses the gap to ~1.8x.
#include <cstdio>
#include <iostream>
#include <map>

#include "apps/alya.h"
#include "arch/configs.h"
#include "harness.h"
#include "report/table.h"

using namespace ctesim;

int main(int argc, char** argv) {
  bench::Harness h("fig10_alya_solver", "Alya solver phase");
  if (!h.parse(argc, argv)) return h.exit_status();
  h.banner("Fig. 10", "Alya: Solver phase");

  const auto cte = arch::cte_arm();
  const auto mn4 = arch::marenostrum4();
  report::Table table("solver seconds per step (slowest process)",
                      {"nodes", "CTE-Arm", "MareNostrum 4"});
  h.open_csv({"machine", "nodes", "solver_s"});
  bench::ScalingChart chart("Alya solver phase", 16, "nodes", "s");
  std::map<int, double> cte_s, mn4_s;  // per node count, for the headline
  for (int nodes : {4, 8, 12, 16, 22, 32, 44, 62, 78}) {
    const auto a = apps::run_alya(cte, nodes);
    const auto b = apps::run_alya(mn4, nodes);
    cte_s[nodes] = a.solver_per_step;
    mn4_s[nodes] = b.solver_per_step;
    table.row({std::to_string(nodes),
               a.fits_memory ? report::fixed(a.solver_per_step, 3) : "NP",
               (b.fits_memory && nodes <= 16)
                   ? report::fixed(b.solver_per_step, 3)
                   : "-"});
    if (a.fits_memory) {
      chart.cte(nodes, a.solver_per_step);
      h.csv_row({"cte", std::to_string(nodes),
                 report::fixed(a.solver_per_step, 5)});
    }
    if (b.fits_memory && nodes <= 16) {
      chart.mn4(nodes, b.solver_per_step);
      h.csv_row({"mn4", std::to_string(nodes),
                 report::fixed(b.solver_per_step, 5)});
    }
  }
  table.print(std::cout);

  chart.print();

  std::printf(
      "\nheadline: @12 nodes gap is %.2fx (paper: 1.79x, vs 4.96x in "
      "assembly — HBM compresses the memory-bound phase); 22 CTE nodes = "
      "%.3f s vs 12 MN4 = %.3f s (paper: equal at 22)\n",
      cte_s[12] / mn4_s[12], cte_s[22], mn4_s[12]);
  return 0;
}
