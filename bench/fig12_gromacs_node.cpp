// Fig. 12: Gromacs (lignocellulose-rf) scalability within one node,
// ranks x 6 OpenMP threads, days per simulated nanosecond.
#include <cstdio>
#include <iostream>
#include <map>

#include "apps/gromacs.h"
#include "arch/configs.h"
#include "harness.h"
#include "kernels/md.h"
#include "report/table.h"

using namespace ctesim;

int main(int argc, char** argv) {
  bench::Harness h("fig12_gromacs_node", "Gromacs single-node scalability");
  if (!h.parse(argc, argv)) return h.exit_status();
  h.banner("Fig. 12", "Gromacs: scalability in one node");

  const auto cte = arch::cte_arm();
  const auto mn4 = arch::marenostrum4();
  report::Table table("days / ns (ranks x 6 threads)",
                      {"cores", "CTE-Arm", "MareNostrum 4", "slowdown"});
  bench::ScalingChart chart("Gromacs, one node", 16, "cores", "days/ns");
  h.open_csv({"cores", "cte_days_per_ns", "mn4_days_per_ns"});
  std::map<int, double> slowdown;  // per rank count, for the headline
  for (int ranks : {1, 2, 4, 8}) {
    const auto a = apps::run_gromacs(cte, ranks);
    const auto b = apps::run_gromacs(mn4, ranks);
    slowdown[ranks] = a.days_per_ns / b.days_per_ns;
    table.row(std::to_string(a.cores),
              {a.days_per_ns, b.days_per_ns, slowdown[ranks]}, 3);
    chart.cte(a.cores, a.days_per_ns);
    chart.mn4(b.cores, b.days_per_ns);
    h.csv_row({static_cast<double>(a.cores), a.days_per_ns, b.days_per_ns});
  }
  table.print(std::cout);
  chart.print();

  std::printf(
      "\nheadline: 6 cores %.2fx slower (paper 3.48x); whole node %.2fx "
      "(paper 3.10x)\n",
      slowdown[1], slowdown[8]);

  // Native anchor: the real cell-list MD kernel conserves energy.
  kernels::MdSystem md(
      kernels::MdConfig{.particles = 500, .box = 10.0, .cutoff = 2.5,
                        .dt = 0.001});
  const double e0 = md.total_energy();
  md.run(50);
  std::printf("native MD anchor: 500 particles, 50 steps, energy drift "
              "%.3f%%\n",
              100.0 * (md.total_energy() - e0) / std::abs(e0));
  return 0;
}
