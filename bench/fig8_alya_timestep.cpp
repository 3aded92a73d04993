// Fig. 8: Alya strong scalability — average time step (TestCaseB, 132M
// elements, MPI-only), CTE-Arm 12..78 nodes vs MareNostrum 4 4..16 nodes.
#include <cstdio>
#include <iostream>
#include <map>

#include "apps/alya.h"
#include "arch/configs.h"
#include "harness.h"
#include "kernels/sparse.h"
#include "report/table.h"
#include "trace/chrome.h"
#include "trace/recorder.h"

using namespace ctesim;

int main(int argc, char** argv) {
  bench::Harness h("fig8_alya_timestep", "Alya average time step");
  std::string trace_path;
  h.trace_option(
      &trace_path,
      "write a Chrome trace of the 12-node CTE-Arm run to this path");
  if (!h.parse(argc, argv)) return h.exit_status();
  h.banner("Fig. 8", "Alya: average time step (TestCaseB)");

  const auto cte = arch::cte_arm();
  const auto mn4 = arch::marenostrum4();
  std::printf("memory minimum: %d CTE-Arm nodes (paper: 12)\n\n",
              apps::alya_min_nodes(cte));

  report::Table table("seconds per time step (avg of 19 steps)",
                      {"nodes", "CTE-Arm", "MareNostrum 4"});
  bench::ScalingChart chart("Alya time step", 18, "nodes", "s/step");
  h.open_csv({"machine", "nodes", "s_per_step"});
  std::map<int, double> cte_s, mn4_s;  // per node count, for the headline
  for (int nodes : {4, 8, 12, 16, 22, 32, 44, 62, 78}) {
    const auto a = apps::run_alya(cte, nodes);
    const auto b = apps::run_alya(mn4, nodes);
    cte_s[nodes] = a.time_per_step;
    mn4_s[nodes] = b.time_per_step;
    std::string cte_cell = a.fits_memory
                               ? report::fixed(a.time_per_step, 3)
                               : std::string("NP");
    std::string mn4_cell = (b.fits_memory && nodes <= 16)
                               ? report::fixed(b.time_per_step, 3)
                               : std::string("-");
    table.row({std::to_string(nodes), cte_cell, mn4_cell});
    if (a.fits_memory) {
      chart.cte(nodes, a.time_per_step);
      h.csv_row({"cte", std::to_string(nodes),
                 report::fixed(a.time_per_step, 5)});
    }
    if (b.fits_memory && nodes <= 16) {
      chart.mn4(nodes, b.time_per_step);
      h.csv_row({"mn4", std::to_string(nodes),
                 report::fixed(b.time_per_step, 5)});
    }
  }
  table.print(std::cout);
  chart.print();

  std::printf(
      "\nheadline: @12-16 nodes CTE-Arm is %.2fx slower (paper: 3.4x); 44 "
      "CTE nodes = %.3f s vs 12 MN4 nodes = %.3f s (paper: equal at 44)\n",
      cte_s[12] / mn4_s[12], cte_s[44], mn4_s[12]);

  if (!trace_path.empty()) {
    // A dedicated traced run at the paper's memory-minimum point: the
    // assembly/solver alternation and the halo-exchange tails are exactly
    // the per-phase attribution the paper's analysis rests on.
    trace::Recorder recorder;
    apps::AlyaConfig traced;
    traced.recorder = &recorder;
    apps::run_alya(cte, 12, traced);
    trace::write_chrome_trace(recorder, trace_path);
    std::printf(
        "\ntrace: 12-node CTE-Arm run, %zu spans -> %s (open in "
        "chrome://tracing or https://ui.perfetto.dev)\n",
        recorder.spans().size(), trace_path.c_str());
  }

  // Native anchor: the solver phase's algorithm (CG on an s.p.d. system)
  // actually converges in the kernel library.
  const auto a = kernels::build_poisson27(12, 12, 12);
  std::vector<double> ones(a.rows, 1.0);
  std::vector<double> b;
  kernels::spmv(a, ones, b);
  std::vector<double> x;
  const auto cg = kernels::conjugate_gradient(a, b, x, 300, 1e-8);
  std::printf("native CG anchor: 12^3 Poisson converged=%s in %d iters\n",
              cg.converged ? "yes" : "NO", cg.iterations);
  return cg.converged ? 0 : 1;
}
