// Fig. 3: STREAM Triad bandwidth with hybrid MPI+OpenMP, at most one rank
// per NUMA domain (CMG on CTE-Arm, socket on MareNostrum 4).
#include <cstdio>
#include <iostream>

#include "arch/configs.h"
#include "harness.h"
#include "mem/stream_sim.h"
#include "report/table.h"

using namespace ctesim;

int main(int argc, char** argv) {
  bench::Harness h("fig3_stream_hybrid", "STREAM Triad MPI+OpenMP");
  if (!h.parse(argc, argv)) return h.exit_status();
  h.banner("Fig. 3", "STREAM Triad bandwidth with MPI+OpenMP");

  const mem::StreamSimulator cte(arch::cte_arm());
  const mem::StreamSimulator mn4(arch::marenostrum4());

  report::Table table("GB/s per MPI x OMP layout (one rank per NUMA domain)",
                      {"machine", "layout", "C", "Fortran"});
  h.open_csv({"machine", "ranks", "threads", "c_gbs", "fortran_gbs"});
  auto emit = [&](const mem::StreamSimulator& sim, const char* name,
                  int procs, int threads) {
    const double c = sim.hybrid_bandwidth(mem::StreamKernel::kTriad, procs,
                                          threads, arch::Language::kC)
                         .value();
    const double f = sim.hybrid_bandwidth(mem::StreamKernel::kTriad, procs,
                                          threads, arch::Language::kFortran)
                         .value();
    char layout[32];
    std::snprintf(layout, sizeof(layout), "%dx%d", procs, threads);
    table.row({name, layout, report::fixed(c / 1e9, 1),
               report::fixed(f / 1e9, 1)});
    h.csv_row({name, std::to_string(procs), std::to_string(threads),
               report::fixed(c / 1e9, 3), report::fixed(f / 1e9, 3)});
  };
  for (int procs : {1, 2, 3, 4}) emit(cte, "CTE-Arm", procs, 12);
  for (int procs : {1, 2}) emit(mn4, "MareNostrum 4", procs, 24);
  table.print(std::cout);

  const double best = cte.hybrid_bandwidth(mem::StreamKernel::kTriad, 4, 12,
                                           arch::Language::kFortran)
                          .value();
  const double best_c = cte.hybrid_bandwidth(mem::StreamKernel::kTriad, 4,
                                             12, arch::Language::kC)
                            .value();
  std::printf(
      "\nheadline: CTE-Arm Fortran 4x12 = %.1f GB/s (%.0f%% of peak; paper "
      "862.6, 84%%)\n          CTE-Arm C 4x12 = %.1f GB/s (paper 421.1, "
      "unexplained in the paper)\n",
      best / 1e9, 100.0 * best / arch::cte_arm().node.peak_bw().value(),
      best_c / 1e9);
  return 0;
}
