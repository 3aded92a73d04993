// Export the built-in machine models as INI files — the starting point for
// defining your own machine: dump CTE-Arm or MareNostrum 4, edit fields,
// feed the file back to any experiment (e.g. example_app_scaling_study
// --machine=my_machine.ini).
#include <cstdio>
#include <string>

#include "arch/configs.h"
#include "arch/machine_io.h"
#include "util/cli.h"

using namespace ctesim;

int main(int argc, char** argv) {
  std::string dir = ".";
  Cli cli("export_machines", "write the built-in machines as INI files");
  cli.option("dir", &dir, "output directory");
  if (!cli.parse(argc, argv)) return cli.exit_status();

  const struct {
    const char* file;
    arch::MachineModel machine;
  } exports[] = {
      {"cte_arm.ini", arch::cte_arm()},
      {"marenostrum4.ini", arch::marenostrum4()},
  };
  for (const auto& e : exports) {
    const std::string path = dir + "/" + e.file;
    arch::save_machine_file(path, e.machine);
    std::printf("wrote %-40s (%s, %d nodes)\n", path.c_str(),
                e.machine.name.c_str(), e.machine.num_nodes);
  }
  std::printf(
      "\nEdit any field and run experiments against the file; parsing "
      "validates the machine and reports problems with line numbers.\n");
  return 0;
}
