// Fig. 11: NEMO (BENCH, ORCA1 resolution) strong scalability, 8..192
// CTE-Arm nodes vs 1..24 MareNostrum 4 nodes, log-log.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>

#include "apps/nemo.h"
#include "arch/configs.h"
#include "harness.h"
#include "kernels/stencil.h"
#include "report/table.h"
#include "trace/chrome.h"
#include "trace/recorder.h"

using namespace ctesim;

int main(int argc, char** argv) {
  bench::Harness h("fig11_nemo", "NEMO scalability");
  std::string trace_path;
  h.trace_option(
      &trace_path,
      "write a Chrome trace of the 8-node CTE-Arm run to this path");
  if (!h.parse(argc, argv)) return h.exit_status();
  h.banner("Fig. 11", "NEMO: scalability (BENCH @ ORCA1)");

  const auto cte = arch::cte_arm();
  const auto mn4 = arch::marenostrum4();
  std::printf("memory minimum: %d CTE-Arm nodes (paper: 8)\n\n",
              apps::nemo_min_nodes(cte));

  report::Table table("execution time [s]",
                      {"nodes", "CTE-Arm", "MareNostrum 4"});
  bench::ScalingChart chart("NEMO execution time", 18, "nodes", "seconds");
  h.open_csv({"machine", "nodes", "seconds"});
  std::map<int, double> cte_s, mn4_s;  // per node count, for the headline
  for (int nodes : {1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 160, 192}) {
    const auto a = apps::run_nemo(cte, nodes);
    const bool mn4_in_range = nodes <= 24;
    const auto b = mn4_in_range ? apps::run_nemo(mn4, nodes)
                                : apps::NemoResult{};
    cte_s[nodes] = a.total_time;
    mn4_s[nodes] = b.total_time;
    table.row({std::to_string(nodes),
               a.fits_memory ? report::fixed(a.total_time, 1) : "NP",
               mn4_in_range ? report::fixed(b.total_time, 1) : "-"});
    if (a.fits_memory) {
      chart.cte(nodes, a.total_time);
      h.csv_row({"cte", std::to_string(nodes), report::fixed(a.total_time, 3)});
    }
    if (mn4_in_range) {
      chart.mn4(nodes, b.total_time);
      h.csv_row({"mn4", std::to_string(nodes), report::fixed(b.total_time, 3)});
    }
  }
  table.print(std::cout);
  chart.print();

  std::printf(
      "\nheadline: MN4 is %.2fx (8 nodes) .. %.2fx (24 nodes) faster "
      "(paper: 1.70-1.79x); 48 CTE nodes = %.1f s vs 27 MN4 nodes = %.1f s "
      "(paper: equal); CTE scaling flattens near 128 nodes\n",
      cte_s[8] / mn4_s[8], cte_s[24] / mn4_s[24], cte_s[48],
      apps::run_nemo(mn4, 27).total_time);

  if (!trace_path.empty()) {
    // A dedicated traced run at NEMO's memory minimum: the many small halo
    // exchanges per step (the strong-scaling limiter) dominate the lanes.
    trace::Recorder recorder;
    apps::NemoConfig traced;
    traced.recorder = &recorder;
    apps::run_nemo(cte, 8, traced);
    trace::write_chrome_trace(recorder, trace_path);
    std::printf(
        "\ntrace: 8-node CTE-Arm run, %zu spans -> %s (open in "
        "chrome://tracing or https://ui.perfetto.dev)\n",
        recorder.spans().size(), trace_path.c_str());
  }

  // Native anchor: the ocean-dynamics pattern (conservative stencil sweep)
  // conserves the field integral in the kernel library.
  kernels::Grid3D grid(16, 16, 8, 1.0);
  grid.at(8, 8, 4) = 100.0;
  const double before = grid.sum();
  kernels::diffuse(grid, 50, 0.1);
  const double drift = std::fabs(grid.sum() - before) / before;
  std::printf("native stencil anchor: field conservation drift %.2e\n",
              drift);
  return drift < 1e-9 ? 0 : 1;
}
