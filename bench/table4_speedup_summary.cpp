// Table IV: speedup of CTE-Arm relative to MareNostrum 4 for every
// benchmark and application, at 1/16/32/64/128/192 nodes. Speedup > 1
// means CTE-Arm is faster. NP marks runs that do not fit in memory (as in
// the paper); "-" marks configurations outside the paper's study range.
#include <cstdio>
#include <iostream>

#include "apps/alya.h"
#include "apps/gromacs.h"
#include "apps/nemo.h"
#include "apps/openifs.h"
#include "apps/wrf.h"
#include "arch/configs.h"
#include "harness.h"
#include "hpcb/hpcg.h"
#include "hpcb/hpl.h"
#include "report/table.h"

using namespace ctesim;

namespace {

std::string cell(double speedup) { return report::fixed(speedup, 2); }

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("table4_speedup_summary", "Table IV speedup summary");
  if (!h.parse(argc, argv)) return h.exit_status();
  h.banner("Table IV", "speedup of CTE-Arm relative to MareNostrum 4");

  const auto cte = arch::cte_arm();
  const auto mn4 = arch::marenostrum4();
  const int node_counts[] = {1, 16, 32, 64, 128, 192};

  report::Table table("speedup (CTE-Arm / MareNostrum 4)",
                      {"Applications", "1", "16", "32", "64", "128", "192"});
  h.open_csv({"app", "nodes", "speedup"});
  auto emit_csv = [&](const char* app, int nodes, double speedup) {
    h.csv_row({app, std::to_string(nodes), report::fixed(speedup, 4)});
  };

  // LINPACK: ratio of reported GFlop/s.
  {
    hpcb::HplModel a(cte, hpcb::hpl_config_for(cte));
    hpcb::HplModel b(mn4, hpcb::hpl_config_for(mn4));
    std::vector<std::string> row{"LINPACK"};
    for (int n : node_counts) {
      const double s = a.run(n).gflops / b.run(n).gflops;
      row.push_back(cell(s));
      emit_csv("linpack", n, s);
    }
    table.row(std::move(row));
  }
  // HPCG: the paper reports 1 and 192 nodes only.
  {
    hpcb::HpcgModel a(cte);
    hpcb::HpcgModel b(mn4);
    std::vector<std::string> row{"HPCG"};
    for (int n : node_counts) {
      if (n != 1 && n != 192) {
        row.push_back("N/A");
        continue;
      }
      const double s = a.run(n, hpcb::HpcgBuild::kOptimized).gflops /
                       b.run(n, hpcb::HpcgBuild::kOptimized).gflops;
      row.push_back(cell(s));
      emit_csv("hpcg", n, s);
    }
    table.row(std::move(row));
  }
  // Alya: memory-gated below 12 nodes; the paper studies up to 78.
  {
    std::vector<std::string> row{"Alya"};
    for (int n : node_counts) {
      if (n < apps::alya_min_nodes(cte)) {
        row.push_back("NP");
        continue;
      }
      if (n > 78) {
        row.push_back("N/A");
        continue;
      }
      const double s = apps::run_alya(mn4, n).time_per_step /
                       apps::run_alya(cte, n).time_per_step;
      row.push_back(cell(s));
      emit_csv("alya", n, s);
    }
    table.row(std::move(row));
  }
  // OpenIFS: single-node input at 1 node; multi-node input needs >= 32.
  {
    std::vector<std::string> row{"OpenIFS"};
    apps::OpenIfsConfig multi;
    multi.input = apps::tc0511l91();
    for (int n : node_counts) {
      double s = 0.0;
      if (n == 1) {
        s = apps::run_openifs_ranks(mn4, 48).seconds_per_day /
            apps::run_openifs_ranks(cte, 48).seconds_per_day;
      } else if (n >= apps::openifs_min_nodes(cte, multi) && n <= 128) {
        s = apps::run_openifs_nodes(mn4, n, multi).seconds_per_day /
            apps::run_openifs_nodes(cte, n, multi).seconds_per_day;
      } else {
        row.push_back(n < 32 ? "NP" : "N/A");
        continue;
      }
      row.push_back(cell(s));
      emit_csv("openifs", n, s);
    }
    table.row(std::move(row));
  }
  // Gromacs: 8 ranks x 6 threads per node at every scale.
  {
    std::vector<std::string> row{"Gromacs"};
    for (int n : node_counts) {
      const double s = apps::run_gromacs(mn4, n * 8).days_per_ns /
                       apps::run_gromacs(cte, n * 8).days_per_ns;
      row.push_back(cell(s));
      emit_csv("gromacs", n, s);
    }
    table.row(std::move(row));
  }
  // WRF: the paper studies 1..64 nodes.
  {
    std::vector<std::string> row{"WRF"};
    for (int n : node_counts) {
      if (n > 64) {
        row.push_back("N/A");
        continue;
      }
      const double s = apps::run_wrf(mn4, n).total_time /
                       apps::run_wrf(cte, n).total_time;
      row.push_back(cell(s));
      emit_csv("wrf", n, s);
    }
    table.row(std::move(row));
  }
  // NEMO: memory-gated below 8 CTE nodes; the paper's table has 16 only.
  {
    std::vector<std::string> row{"NEMO"};
    for (int n : node_counts) {
      if (n < apps::nemo_min_nodes(cte)) {
        row.push_back("NP");
        continue;
      }
      if (n != 16) {
        row.push_back("N/A");
        continue;
      }
      const double s = apps::run_nemo(mn4, n).total_time /
                       apps::run_nemo(cte, n).total_time;
      row.push_back(cell(s));
      emit_csv("nemo", n, s);
    }
    table.row(std::move(row));
  }
  table.print(std::cout);

  std::printf(
      "\npaper Table IV for comparison:\n"
      "  LINPACK 1.25 1.28 1.38 1.35 1.70 1.40\n"
      "  HPCG    2.50 N/A  N/A  N/A  N/A  3.24\n"
      "  Alya    NP   0.30 0.31 0.37 N/A  N/A\n"
      "  OpenIFS 0.31 NP   0.28 0.31 0.39 N/A\n"
      "  Gromacs 0.32 0.36 0.38 0.43 0.54 0.33\n"
      "  WRF     0.49 0.46 0.60 0.64 N/A  N/A\n"
      "  NEMO    NP   0.56 N/A  N/A  N/A  N/A\n"
      "(the paper's Gromacs value at 192 nodes is anomalous and not "
      "explained; we reproduce the 1..144-node trend)\n");
  return 0;
}
