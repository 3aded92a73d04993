// Strong-scaling campaign driver: pick an application and a node range on
// the command line, get the scaling table, parallel efficiency and the
// CTE-Arm/MareNostrum-4 comparison — the Section V methodology of the
// paper as a reusable tool.
//
//   example_app_scaling_study --app=nemo --min-nodes=8 --max-nodes=64
//   example_app_scaling_study --app=wrf --csv=wrf.csv
#include <cstdio>
#include <functional>
#include <memory>
#include <iostream>
#include <string>

#include "apps/alya.h"
#include "apps/gromacs.h"
#include "apps/nemo.h"
#include "apps/openifs.h"
#include "apps/wrf.h"
#include "arch/configs.h"
#include "arch/machine_io.h"
#include "report/table.h"
#include "util/cli.h"
#include "util/csv.h"

using namespace ctesim;

namespace {

/// Returns the app's principal metric (lower is better) or a negative
/// value when the configuration does not fit in memory.
using Runner = std::function<double(const arch::MachineModel&, int nodes)>;

Runner runner_for(const std::string& app) {
  if (app == "alya") {
    return [](const arch::MachineModel& m, int nodes) {
      const auto r = apps::run_alya(m, nodes);
      return r.fits_memory ? r.time_per_step : -1.0;
    };
  }
  if (app == "nemo") {
    return [](const arch::MachineModel& m, int nodes) {
      const auto r = apps::run_nemo(m, nodes);
      return r.fits_memory ? r.total_time : -1.0;
    };
  }
  if (app == "gromacs") {
    return [](const arch::MachineModel& m, int nodes) {
      return apps::run_gromacs(m, nodes * 8).days_per_ns;
    };
  }
  if (app == "openifs") {
    return [](const arch::MachineModel& m, int nodes) {
      apps::OpenIfsConfig config;
      config.input = apps::tc0511l91();
      const auto r = apps::run_openifs_nodes(m, nodes, config);
      return r.fits_memory ? r.seconds_per_day : -1.0;
    };
  }
  if (app == "wrf") {
    return [](const arch::MachineModel& m, int nodes) {
      return apps::run_wrf(m, nodes).total_time;
    };
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  std::string app = "nemo";
  std::int64_t min_nodes = 8;
  std::int64_t max_nodes = 64;
  std::string csv_path;
  std::string machine_file;
  Cli cli("app_scaling_study", "strong-scaling campaign over both machines");
  cli.option("app", &app, "alya | nemo | gromacs | openifs | wrf")
      .option("min-nodes", &min_nodes, "first node count")
      .option("max-nodes", &max_nodes, "last node count (doubling sweep)")
      .option("machine", &machine_file,
              "INI machine file replacing CTE-Arm (see examples/machines/)")
      .option("csv", &csv_path, "optional CSV output path");
  if (!cli.parse(argc, argv)) return cli.exit_status();

  const Runner run = runner_for(app);
  if (!run) {
    std::fprintf(stderr, "unknown app '%s'\n", app.c_str());
    return 1;
  }

  const auto cte = machine_file.empty() ? arch::cte_arm()
                                        : arch::load_machine_file(machine_file);
  const auto mn4 = arch::marenostrum4();
  std::printf("comparing %s against %s\n\n", cte.name.c_str(),
              mn4.name.c_str());
  report::Table table(app + " strong scaling",
                      {"nodes", "machine A", "eff%", "MN4", "eff%",
                       "slowdown"});
  std::unique_ptr<CsvWriter> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<CsvWriter>(
        csv_path, std::vector<std::string>{"nodes", "cte", "mn4"});
  }
  double cte_base = -1.0;
  double mn4_base = -1.0;
  std::int64_t base_nodes = 0;
  for (std::int64_t nodes = min_nodes; nodes <= max_nodes; nodes *= 2) {
    const double a = run(cte, static_cast<int>(nodes));
    const double b = run(mn4, static_cast<int>(nodes));
    if (a < 0.0 || b < 0.0) {
      table.row({std::to_string(nodes), a < 0 ? "NP" : report::fixed(a, 3),
                 "-", b < 0 ? "NP" : report::fixed(b, 3), "-", "-"});
      continue;
    }
    if (cte_base < 0.0) {
      cte_base = a;
      mn4_base = b;
      base_nodes = nodes;
    }
    const double scale = static_cast<double>(nodes) / base_nodes;
    table.row({std::to_string(nodes), report::fixed(a, 3),
               report::fixed(100.0 * cte_base / a / scale, 0),
               report::fixed(b, 3),
               report::fixed(100.0 * mn4_base / b / scale, 0),
               report::fixed(a / b, 2)});
    if (csv) {
      csv->row(std::vector<double>{static_cast<double>(nodes), a, b});
    }
  }
  table.print(std::cout);
  std::printf(
      "\nmetric: %s (lower is better); eff%% = parallel efficiency vs the "
      "first fitting node count.\n",
      app == "gromacs" ? "days/ns" : "seconds");
  return 0;
}
