// Table III: build configurations for all HPC applications — printed from
// the compiler models the simulation actually uses, plus the paper's
// compiler-failure narrative (Fujitsu could not build the applications).
#include <cstdio>
#include <iostream>

#include "arch/configs.h"
#include "harness.h"
#include "report/table.h"

using namespace ctesim;

int main(int argc, char** argv) {
  bench::Harness h("table3_appconfig", "application build configurations");
  if (!h.parse(argc, argv)) return h.exit_status();
  h.banner("Table III", "build configurations for all applications");

  const auto cte = arch::cte_arm();
  const auto mn4 = arch::marenostrum4();
  const auto cte_compiler = arch::default_app_compiler(cte);
  const auto mn4_compiler = arch::default_app_compiler(mn4);

  report::Table table("application builds",
                      {"application", "CTE-Arm compiler", "MN4 compiler",
                       "notes"});
  table.row({"Alya", "GNU/8.3.1-sve", "GNU/8.4.2",
             "Fujitsu compiler hangs on complex files"});
  table.row({"NEMO", "GNU/8.3.1-sve", "Intel/2017.4",
             "Fujitsu compiler errors; GNU works"});
  table.row({"Gromacs", "GNU/11.0.0", "Intel/2018.4",
             "Fujitsu fails in cmake; GMX_SIMD=ARM_SVE"});
  table.row({"OpenIFS", "GNU/8.3.1-sve", "Intel/2018.4",
             "Fujitsu builds but run fails; GNU used"});
  table.row({"WRF", "GNU/8.3.1-sve", "Intel/2017.4",
             "NetCDF/HDF5 from source on CTE-Arm"});
  table.print(std::cout);

  std::printf(
      "\nmodelled codegen quality (achieved vectorization fraction) per "
      "kernel class:\n");
  report::Table codegen("vectorization achieved by the application builds",
                        {"kernel class", "GNU on A64FX", "Intel on SKX"});
  h.open_csv({"kernel_class", "cte", "mn4"});
  for (auto cls : {arch::KernelClass::kFemAssembly,
                   arch::KernelClass::kSparseSolver,
                   arch::KernelClass::kStencil,
                   arch::KernelClass::kMdNonbonded,
                   arch::KernelClass::kSpectralTransform,
                   arch::KernelClass::kPhysics}) {
    const double cte_vec = cte_compiler.vectorization(cls, cte.node.core);
    const double mn4_vec = mn4_compiler.vectorization(cls, mn4.node.core);
    codegen.row({arch::name_of(cls), report::fixed(cte_vec, 2),
                 report::fixed(mn4_vec, 2)});
    h.csv_row({arch::name_of(cls), report::fixed(cte_vec, 3),
               report::fixed(mn4_vec, 3)});
  }
  codegen.print(std::cout);
  std::printf(
      "\nThe near-zero left column is the paper's Section VI finding: \"the "
      "compiler could not leverage the SVE unit\".\n");
  return 0;
}
