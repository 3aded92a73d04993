// Fig. 16: WRF (Iberia 4 km, 56 h, 54 output frames) scalability across
// nodes, with I/O enabled and disabled.
#include <cstdio>
#include <iostream>
#include <map>

#include "apps/wrf.h"
#include "arch/configs.h"
#include "harness.h"
#include "power/attribution.h"
#include "power/power_model.h"
#include "report/table.h"
#include "roofline/exec_model.h"

using namespace ctesim;

int main(int argc, char** argv) {
  bench::Harness h("fig16_wrf", "WRF scalability");
  if (!h.parse(argc, argv)) return h.exit_status();
  h.banner("Fig. 16", "WRF: scalability (Iberia 4 km, 56 h)");

  const auto cte = arch::cte_arm();
  const auto mn4 = arch::marenostrum4();
  apps::WrfConfig io_on;
  apps::WrfConfig io_off;
  io_off.io_enabled = false;

  report::Table table("elapsed seconds",
                      {"nodes", "CTE IO", "CTE noIO", "MN4 IO", "MN4 noIO",
                       "slowdown"});
  bench::ScalingChart chart("WRF elapsed time (IO on)", 16, "nodes",
                            "seconds");
  h.open_csv({"nodes", "cte_io", "cte_noio", "mn4_io", "mn4_noio"});
  std::map<int, double> slowdown;  // per node count, for the headline
  apps::WrfResult serial64;  // CTE-Arm, IO on, 64 nodes: the what-if base
  for (int nodes : {1, 2, 4, 8, 16, 32, 64}) {
    const auto a = apps::run_wrf(cte, nodes, io_on);
    const auto a2 = apps::run_wrf(cte, nodes, io_off);
    const auto b = apps::run_wrf(mn4, nodes, io_on);
    const auto b2 = apps::run_wrf(mn4, nodes, io_off);
    slowdown[nodes] = a.total_time / b.total_time;
    table.row(std::to_string(nodes),
              {a.total_time, a2.total_time, b.total_time, b2.total_time,
               slowdown[nodes]},
              1);
    if (nodes == 64) serial64 = a;
    chart.cte(nodes, a.total_time);
    chart.mn4(nodes, b.total_time);
    h.csv_row({static_cast<double>(nodes), a.total_time, a2.total_time,
               b.total_time, b2.total_time});
  }
  table.print(std::cout);
  chart.print();

  std::printf(
      "\nheadline: 1 node %.2fx slower (paper 2.16x); 64 nodes %.2fx "
      "(paper 2.23x); IO on/off differ little, IO-off slightly ahead\n",
      slowdown[1], slowdown[64]);

  // What-if beyond the paper: an MPI-IO style parallel frame writer.
  apps::WrfConfig pio;
  pio.parallel_io = true;
  const auto parallel64 = apps::run_wrf(cte, 64, pio);
  std::printf(
      "what-if parallel I/O @64 CTE nodes: frame writes %.1f s -> %.1f s "
      "of the %.1f s total (io::FilesystemModel)\n",
      serial64.io_time, parallel64.io_time, serial64.total_time);

  // Where the Joules of the 56 h run go: price each simulated kernel's
  // roofline breakdown through power::attribute_kernel on 8 CTE-Arm nodes.
  // The components sum to the job total by construction, so the table's
  // share column is a true partition of the run's energy.
  const int en_nodes = 8;
  const auto pm = power::default_power(cte);
  const power::DvfsState& nominal = power::dvfs_state(0);
  const roofline::ExecModel exec(cte.node, arch::default_app_compiler(cte));
  const int cores = cte.node.core_count();
  const double points_per_node = static_cast<double>(io_on.grid_x) *
                                 io_on.grid_y * io_on.levels / en_nodes;
  const double invocations =
      static_cast<double>(io_on.steps) * en_nodes;  // per step, per node
  report::Table energy("energy attribution @ 8 CTE nodes (full 56 h run)",
                       {"kernel", "core [MJ]", "mem [MJ]", "static [MJ]",
                        "total [MJ]", "share"});
  double job_total_j = 0.0;
  std::vector<std::pair<const char*, power::KernelEnergy>> rows;
  for (const auto& sig :
       {apps::wrf_dynamics_kernel(io_on), apps::wrf_physics_kernel(io_on)}) {
    const auto b = exec.analyze(sig, points_per_node, cores);
    power::KernelEnergy e = power::attribute_kernel(b, cores, cte.node, pm,
                                                    nominal);
    e.core_j = e.core_j * invocations;
    e.memory_j = e.memory_j * invocations;
    e.static_j = e.static_j * invocations;
    e.total_j = e.total_j * invocations;
    job_total_j += e.total_j.value();
    rows.emplace_back(sig.name, e);
  }
  for (const auto& [name, e] : rows) {
    energy.row(name,
               {e.core_j.value() / 1e6, e.memory_j.value() / 1e6,
                e.static_j.value() / 1e6, e.total_j.value() / 1e6,
                e.total_j.value() / job_total_j},
               2);
  }
  std::printf("\n");
  energy.print(std::cout);
  std::printf(
      "job total: %.2f MJ across %d nodes — per-kernel Joules sum to the "
      "job total (tests/test_power.cpp asserts it)\n",
      job_total_j / 1e6, en_nodes);
  return 0;
}
