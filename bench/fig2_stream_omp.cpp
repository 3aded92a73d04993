// Fig. 2 (and Table II): STREAM Triad bandwidth, OpenMP-only, one process
// with spread thread binding, C and Fortran builds, on both machines.
#include <cstdio>
#include <iostream>

#include "arch/configs.h"
#include "harness.h"
#include "mem/stream_sim.h"
#include "report/plot.h"
#include "report/table.h"

using namespace ctesim;

int main(int argc, char** argv) {
  bench::Harness h("fig2_stream_omp", "STREAM Triad with OpenMP");
  if (!h.parse(argc, argv)) return h.exit_status();
  h.banner("Fig. 2", "STREAM Triad bandwidth with OpenMP (spread)");

  // Table II context: build configurations used in the paper.
  report::Table builds("Table II — STREAM build configurations",
                       {"build", "compiler", "key flags"});
  builds.row({"CTE-Arm OpenMP", "Fujitsu/1.2.26b",
              "-Kfast,parallel -KSVE -Kzfill=100 -Kprefetch_*"});
  builds.row({"CTE-Arm MPI+OpenMP", "Fujitsu/1.2.26b",
              "-Kfast,parallel -KSVE -Kzfill=100 -Kprefetch_*"});
  builds.row({"MareNostrum 4 OpenMP", "Intel/19.1.1.217",
              "-O3 -xHost -qopenmp"});
  builds.row({"MareNostrum 4 MPI+OpenMP", "Intel/19.1.1.217",
              "-O3 -xHost -qopenmp"});
  builds.print(std::cout);
  std::printf("\n");

  const mem::StreamSimulator cte(arch::cte_arm());
  const mem::StreamSimulator mn4(arch::marenostrum4());
  std::printf("array elements: CTE-Arm E=610e6 (min %zu), MN4 E=400e6 (min %zu)\n\n",
              cte.min_elements(), mn4.min_elements());

  report::Table table(
      "STREAM Triad GB/s vs OpenMP threads",
      {"threads", "CTE-Arm C", "CTE-Arm F", "MN4 C", "MN4 F"});
  report::LineChart chart("STREAM Triad, OpenMP only", 72, 18);
  chart.set_axis_labels("threads", "GB/s");
  std::vector<double> threads, cte_c, cte_f, mn4_c, mn4_f;
  h.open_csv({"threads", "cte_c", "cte_f", "mn4_c", "mn4_f"});
  for (int t : {1, 2, 4, 6, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48}) {
    const double a = cte.omp_bandwidth(mem::StreamKernel::kTriad, t,
                                       arch::Language::kC)
                         .value();
    const double b = cte.omp_bandwidth(mem::StreamKernel::kTriad, t,
                                       arch::Language::kFortran)
                         .value();
    const double c = mn4.omp_bandwidth(mem::StreamKernel::kTriad, t,
                                       arch::Language::kC)
                         .value();
    const double d = mn4.omp_bandwidth(mem::StreamKernel::kTriad, t,
                                       arch::Language::kFortran)
                         .value();
    table.row(std::to_string(t),
              {a / 1e9, b / 1e9, c / 1e9, d / 1e9}, 1);
    threads.push_back(t);
    cte_c.push_back(a / 1e9);
    cte_f.push_back(b / 1e9);
    mn4_c.push_back(c / 1e9);
    mn4_f.push_back(d / 1e9);
    h.csv_row({static_cast<double>(t), a / 1e9, b / 1e9, c / 1e9, d / 1e9});
  }
  table.print(std::cout);
  std::printf("\n");
  chart.series("CTE-Arm C", threads, cte_c);
  chart.series("CTE-Arm Fortran", threads, cte_f);
  chart.series("MN4 C", threads, mn4_c);
  chart.series("MN4 Fortran", threads, mn4_f);
  chart.print(std::cout);

  // All four STREAM kernels at each machine's best thread count (the
  // paper's Fig. 2 shows all kernels; Triad above is the headline curve).
  report::Table kernels_table("all STREAM kernels, GB/s (C build)",
                              {"kernel", "CTE-Arm @24thr", "MN4 @48thr"});
  for (auto k : {mem::StreamKernel::kCopy, mem::StreamKernel::kScale,
                 mem::StreamKernel::kAdd, mem::StreamKernel::kTriad}) {
    kernels_table.row(
        {mem::name_of(k),
         report::fixed(
             units::to_gbs(cte.omp_bandwidth(k, 24, arch::Language::kC)), 1),
         report::fixed(
             units::to_gbs(mn4.omp_bandwidth(k, 48, arch::Language::kC)),
             1)});
  }
  std::printf("\n");
  kernels_table.print(std::cout);

  // The paper's headline numbers.
  double cte_best = 0.0;
  int cte_best_threads = 0;
  for (int t = 1; t <= 48; ++t) {
    const double bw = cte.omp_bandwidth(mem::StreamKernel::kTriad, t,
                                        arch::Language::kC)
                          .value();
    if (bw > cte_best) {
      cte_best = bw;
      cte_best_threads = t;
    }
  }
  const double mn4_best =
      mn4.omp_bandwidth(mem::StreamKernel::kTriad, 48, arch::Language::kC)
          .value();
  std::printf(
      "\nheadline: CTE-Arm best %.1f GB/s at %d threads (%.0f%% of peak, "
      "paper: 292.0 at 24, 29%%)\n",
      cte_best / 1e9, cte_best_threads,
      100.0 * cte_best / arch::cte_arm().node.peak_bw().value());
  std::printf(
      "          MN4 best %.1f GB/s at 48 threads (paper: 201.2 at 48)\n",
      mn4_best / 1e9);
  return 0;
}
