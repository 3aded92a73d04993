// Fig. 9: Alya Assembly phase (slowest process, avg of 19 steps) — the
// compute-intensive FEM element loop where the GNU/SVE vectorization gap
// bites hardest.
#include <cstdio>
#include <iostream>
#include <map>

#include "apps/alya.h"
#include "arch/configs.h"
#include "harness.h"
#include "report/table.h"

using namespace ctesim;

int main(int argc, char** argv) {
  bench::Harness h("fig9_alya_assembly", "Alya assembly phase");
  if (!h.parse(argc, argv)) return h.exit_status();
  h.banner("Fig. 9", "Alya: Assembly phase");

  const auto cte = arch::cte_arm();
  const auto mn4 = arch::marenostrum4();
  report::Table table("assembly seconds per step (slowest process)",
                      {"nodes", "CTE-Arm", "MareNostrum 4"});
  h.open_csv({"machine", "nodes", "assembly_s"});
  bench::ScalingChart chart("Alya assembly phase", 16, "nodes", "s");
  std::map<int, double> cte_s, mn4_s;  // per node count, for the headline
  for (int nodes : {4, 8, 12, 16, 22, 32, 44, 62, 78}) {
    const auto a = apps::run_alya(cte, nodes);
    const auto b = apps::run_alya(mn4, nodes);
    cte_s[nodes] = a.assembly_per_step;
    mn4_s[nodes] = b.assembly_per_step;
    table.row({std::to_string(nodes),
               a.fits_memory ? report::fixed(a.assembly_per_step, 3) : "NP",
               (b.fits_memory && nodes <= 16)
                   ? report::fixed(b.assembly_per_step, 3)
                   : "-"});
    if (a.fits_memory) {
      chart.cte(nodes, a.assembly_per_step);
      h.csv_row({"cte", std::to_string(nodes),
                 report::fixed(a.assembly_per_step, 5)});
    }
    if (b.fits_memory && nodes <= 16) {
      chart.mn4(nodes, b.assembly_per_step);
      h.csv_row({"mn4", std::to_string(nodes),
                 report::fixed(b.assembly_per_step, 5)});
    }
  }
  table.print(std::cout);

  chart.print();

  std::printf(
      "\nheadline: @12 nodes MN4 is %.2fx faster (paper: 4.96x); 62 CTE "
      "nodes = %.3f s vs 12 MN4 = %.3f s (paper: equal at 62)\n",
      cte_s[12] / mn4_s[12], cte_s[62], mn4_s[12]);
  return 0;
}
