// Fig. 7: HPCG performance (vanilla and vendor-optimized builds) on one
// and 192 nodes of both machines, with the percentage of peak each bar
// reaches. The native mini-HPCG (same algorithm) runs as a correctness
// anchor.
#include <cstdio>
#include <iostream>

#include "arch/configs.h"
#include "harness.h"
#include "hpcb/hpcg.h"
#include "kernels/multigrid.h"
#include "report/table.h"

using namespace ctesim;

int main(int argc, char** argv) {
  bench::Harness h("fig7_hpcg", "HPCG performance");
  if (!h.parse(argc, argv)) return h.exit_status();
  h.banner("Fig. 7", "HPCG performance, one and 192 nodes");

  hpcb::HpcgModel cte(arch::cte_arm());
  hpcb::HpcgModel mn4(arch::marenostrum4());

  report::Table table("HPCG (nx=48 ny=88 nz=88, 48 ranks/node)",
                      {"machine", "build", "nodes", "GFlop/s", "%peak"});
  h.open_csv({"machine", "build", "nodes", "gflops", "peak_pct"});
  auto emit = [&](hpcb::HpcgModel& model, const char* name,
                  hpcb::HpcgBuild build, const char* build_name, int nodes) {
    const auto point = model.run(nodes, build);
    table.row({name, build_name, std::to_string(nodes),
               report::fixed(point.gflops, 1),
               report::fixed(100.0 * point.peak_fraction, 2)});
    h.csv_row({name, build_name, std::to_string(nodes),
               report::fixed(point.gflops, 3),
               report::fixed(100.0 * point.peak_fraction, 3)});
    return point;
  };
  std::vector<hpcb::HpcgPoint> cte_optimized;  // at 1 and 192 nodes
  for (int nodes : {1, 192}) {
    emit(cte, "CTE-Arm", hpcb::HpcgBuild::kVanilla, "vanilla", nodes);
    cte_optimized.push_back(
        emit(cte, "CTE-Arm", hpcb::HpcgBuild::kOptimized, "optimized", nodes));
    emit(mn4, "MareNostrum 4", hpcb::HpcgBuild::kVanilla, "vanilla", nodes);
    emit(mn4, "MareNostrum 4", hpcb::HpcgBuild::kOptimized, "optimized",
         nodes);
  }
  table.print(std::cout);

  std::printf(
      "\nheadline: CTE-Arm optimized %.2f%% (1 node) / %.2f%% (192) of peak "
      "(paper: 2.91%% / 2.96%%; Fugaku: 3.62%%)\n",
      100.0 * cte_optimized[0].peak_fraction,
      100.0 * cte_optimized[1].peak_fraction);

  // Native anchor: the actual MG-preconditioned CG converges.
  const auto mini = kernels::run_mini_hpcg(32, 32, 32, 50, 1e-9);
  std::printf(
      "native mini-HPCG 32^3: converged=%s in %d iterations (%.2e GFlop "
      "total)\n",
      mini.converged ? "yes" : "NO", mini.iterations, mini.flops / 1e9);
  return mini.converged ? 0 : 1;
}
