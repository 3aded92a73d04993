// Fig. 15: OpenIFS (TC0511L91) scalability across nodes; needs >= 32
// CTE-Arm nodes for memory.
#include <cstdio>
#include <iostream>
#include <map>

#include "apps/openifs.h"
#include "arch/configs.h"
#include "harness.h"
#include "report/table.h"

using namespace ctesim;

int main(int argc, char** argv) {
  bench::Harness h("fig15_openifs_multi", "OpenIFS multi-node scalability");
  if (!h.parse(argc, argv)) return h.exit_status();
  h.banner("Fig. 15", "OpenIFS: scalability across nodes (TC0511L91)");

  const auto cte = arch::cte_arm();
  const auto mn4 = arch::marenostrum4();
  apps::OpenIfsConfig config;
  config.input = apps::tc0511l91();
  std::printf("memory minimum: %d CTE-Arm nodes (paper: 32)\n\n",
              apps::openifs_min_nodes(cte, config));

  report::Table table("seconds per forecast day",
                      {"nodes", "CTE-Arm", "MareNostrum 4", "slowdown"});
  bench::ScalingChart chart("OpenIFS, multi-node", 16, "nodes", "s/day");
  h.open_csv({"nodes", "cte_s", "mn4_s"});
  std::map<int, double> slowdown;  // per node count, for the headline
  for (int nodes : {8, 16, 32, 48, 64, 96, 128}) {
    const auto a = apps::run_openifs_nodes(cte, nodes, config);
    const auto b = apps::run_openifs_nodes(mn4, nodes, config);
    const bool both_fit = a.fits_memory && b.fits_memory;
    slowdown[nodes] = a.seconds_per_day / b.seconds_per_day;
    table.row({std::to_string(nodes),
               a.fits_memory ? report::fixed(a.seconds_per_day, 2) : "NP",
               b.fits_memory ? report::fixed(b.seconds_per_day, 2) : "NP",
               both_fit ? report::fixed(slowdown[nodes], 2) : "-"});
    if (a.fits_memory) chart.cte(nodes, a.seconds_per_day);
    if (b.fits_memory) chart.mn4(nodes, b.seconds_per_day);
    if (both_fit) {
      h.csv_row({static_cast<double>(nodes), a.seconds_per_day,
                 b.seconds_per_day});
    }
  }
  table.print(std::cout);
  chart.print();

  std::printf(
      "\nheadline: @32 nodes %.2fx slower (paper 3.55x); @128 nodes %.2fx "
      "(paper 2.56x)\n",
      slowdown[32], slowdown[128]);
  return 0;
}
