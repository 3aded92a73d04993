// Fig. 6: LINPACK scalability on CTE-Arm and MareNostrum 4, whole nodes up
// to 192, vendor-tuned binaries (4 ranks/node on CTE-Arm, 1 on MN4),
// N sized to >= 80% of aggregate memory.
#include <cstdio>
#include <iostream>

#include "arch/configs.h"
#include "harness.h"
#include "hpcb/hpl.h"
#include "report/table.h"

using namespace ctesim;

int main(int argc, char** argv) {
  bench::Harness h("fig6_linpack", "Linpack scalability");
  if (!h.parse(argc, argv)) return h.exit_status();
  h.banner("Fig. 6", "Linpack scalability");

  const auto cte_machine = arch::cte_arm();
  const auto mn4_machine = arch::marenostrum4();
  hpcb::HplModel cte(cte_machine, hpcb::hpl_config_for(cte_machine));
  hpcb::HplModel mn4(mn4_machine, hpcb::hpl_config_for(mn4_machine));

  report::Table table("HPL GFlop/s",
                      {"nodes", "CTE-Arm", "eff%", "MN4", "eff%",
                       "speedup"});
  bench::ScalingChart chart("Linpack scalability", 18, "nodes", "GFlop/s");
  h.open_csv({"nodes", "cte_gflops", "cte_eff", "mn4_gflops", "mn4_eff"});
  hpcb::HplPoint a, b;  // after the sweep: its 192-node point, the headline
  for (int nodes : {1, 2, 4, 8, 16, 32, 64, 96, 128, 160, 192}) {
    a = cte.run(nodes);
    b = mn4.run(nodes);
    table.row(std::to_string(nodes),
              {a.gflops, 100.0 * a.efficiency, b.gflops, 100.0 * b.efficiency,
               a.gflops / b.gflops});
    chart.cte(nodes, a.gflops);
    chart.mn4(nodes, b.gflops);
    h.csv_row({static_cast<double>(nodes), a.gflops, a.efficiency, b.gflops,
               b.efficiency});
  }
  table.print(std::cout);
  chart.print();

  std::printf(
      "\nheadline @192 nodes: CTE-Arm %.0f%% of peak (paper 85%%, Fugaku "
      "82%%), MN4 %.0f%% (paper 63%%)\n",
      100.0 * a.efficiency, 100.0 * b.efficiency);
  std::printf("problem sizes @192: CTE N=%.0f (P=%d Q=%d), MN4 N=%.0f "
              "(P=%d Q=%d)\n",
              a.n, a.p, a.q, b.n, b.p, b.q);
  return 0;
}
