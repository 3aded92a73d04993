// Table I: hardware configuration of CTE-Arm and MareNostrum 4, printed
// from the machine models (every row is computed, not hard-coded text —
// mismatches with the paper would mean the models are wrong).
#include <cstdio>
#include <iostream>

#include "arch/configs.h"
#include "harness.h"
#include "report/table.h"
#include "util/units.h"

using namespace ctesim;

namespace {

std::string freq(const arch::MachineModel& m) {
  return report::fixed(m.node.core.freq_ghz, 2);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("table1_hwconfig", "Table I hardware configuration");
  if (!h.parse(argc, argv)) return h.exit_status();
  h.banner("Table I", "hardware configuration");

  const auto cte = arch::cte_arm();
  const auto mn4 = arch::marenostrum4();

  report::Table table("Hardware configuration",
                      {"", "CTE-Arm", "MareNostrum 4"});
  auto row = [&](const char* label, std::string a, std::string b) {
    table.row({label, std::move(a), std::move(b)});
  };
  row("System integrator", cte.integrator, mn4.integrator);
  row("Core architecture", cte.core_arch, mn4.core_arch);
  row("SIMD extensions", cte.simd, mn4.simd);
  row("CPU name", cte.cpu_name, mn4.cpu_name);
  row("Frequency [GHz]", freq(cte), freq(mn4));
  row("Sockets / node", std::to_string(cte.node.sockets),
      std::to_string(mn4.node.sockets));
  row("Core / node", std::to_string(cte.node.core_count()),
      std::to_string(mn4.node.core_count()));
  row("DP Peak / core [GFlop/s]",
      report::fixed(units::to_gflops(cte.node.core.peak_vector_flops(
                        arch::Precision::kDouble)),
                    2),
      report::fixed(units::to_gflops(mn4.node.core.peak_vector_flops(
                        arch::Precision::kDouble)),
                    2));
  row("DP Peak / node [GFlop/s]",
      report::fixed(units::to_gflops(cte.node.peak_flops()), 2),
      report::fixed(units::to_gflops(mn4.node.peak_flops()), 2));
  row("L1 cache / core [kB]", std::to_string(cte.node.core.l1d_kb),
      std::to_string(mn4.node.core.l1d_kb));
  row("L2 cache / node [MB]", report::fixed(cte.node.l2_total_mb, 0),
      report::fixed(mn4.node.l2_total_mb, 0));
  row("L3 cache / node [MB]",
      cte.node.l3_total_mb > 0 ? report::fixed(cte.node.l3_total_mb, 0) : "-",
      mn4.node.l3_total_mb > 0 ? report::fixed(mn4.node.l3_total_mb, 0) : "-");
  row("Memory / node [GB]", report::fixed(cte.node.memory_gb(), 0),
      report::fixed(mn4.node.memory_gb(), 0));
  row("Memory tech.", cte.memory_tech, mn4.memory_tech);
  row("NUMA domains / node", std::to_string(cte.node.num_domains),
      std::to_string(mn4.node.num_domains));
  row("Peak memory BW [GB/s]", report::fixed(cte.node.peak_bw().value() / 1e9, 0),
      report::fixed(mn4.node.peak_bw().value() / 1e9, 0));
  row("Num. of nodes", std::to_string(cte.num_nodes),
      std::to_string(mn4.num_nodes));
  row("Interconnection", cte.interconnect.name, mn4.interconnect.name);
  row("Peak network BW [GB/s]",
      report::fixed(cte.interconnect.link_bw / 1e9, 2),
      report::fixed(mn4.interconnect.link_bw / 1e9, 2));
  table.print(std::cout);

  h.open_csv({"property", "cte_arm", "marenostrum4"});
  for (std::size_t r = 0; r < table.rows(); ++r) {
    h.csv_row({table.cell(r, 0), table.cell(r, 1), table.cell(r, 2)});
  }
  return 0;
}
