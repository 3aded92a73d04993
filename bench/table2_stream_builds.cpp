// Table II: build configurations for STREAM — and what the flags are worth.
//
// The paper's table is a build recipe; the interesting content is what the
// Fujitsu flags (-Kzfill, -Kprefetch_*) buy on HBM. This harness prints the
// recipe and then quantifies each toolchain's modelled streaming quality
// (fraction of the node's best bandwidth a stream kernel sustains).
#include <cstdio>
#include <iostream>

#include "arch/configs.h"
#include "harness.h"
#include "report/table.h"

using namespace ctesim;

int main(int argc, char** argv) {
  bench::Harness h("table2_stream_builds", "STREAM build configurations");
  if (!h.parse(argc, argv)) return h.exit_status();
  h.banner("Table II", "build configurations for STREAM");

  report::Table builds("STREAM builds (as in the paper)",
                       {"build", "compiler", "key flags"});
  builds.row({"CTE-Arm OpenMP", "Fujitsu/1.2.26b",
              "-Kfast,parallel -KA64FX -KSVE -Kopenmp -Kzfill=100 "
              "-Kprefetch_sequential=soft -Kprefetch_iteration=8"});
  builds.row({"CTE-Arm MPI+OpenMP", "Fujitsu/1.2.26b",
              "same, without -mcmodel=large"});
  builds.row({"MareNostrum 4 OpenMP", "Intel/19.1.1.217",
              "-O3 -xHost -qopenmp-link=static -qopenmp"});
  builds.row({"MareNostrum 4 MPI+OpenMP", "Intel/19.1.1.217",
              "-O3 -xHost -qopenmp-link=static -qopenmp"});
  builds.print(std::cout);

  const auto cte = arch::cte_arm();
  const auto mn4 = arch::marenostrum4();
  report::Table effect(
      "modelled streaming quality by toolchain (stream kernel class)",
      {"machine", "compiler", "vectorization", "bw sustained"});
  h.open_csv({"machine", "compiler", "vectorization", "mem_eff"});
  struct Row {
    const arch::MachineModel* machine;
    arch::CompilerModel compiler;
  };
  const Row rows[] = {
      {&cte, arch::fujitsu_compiler()},
      {&cte, arch::gnu_compiler()},
      {&mn4, arch::intel_compiler()},
      {&mn4, arch::gnu_compiler()},
  };
  for (const auto& r : rows) {
    const double vec = r.compiler.vectorization(arch::KernelClass::kStream,
                                                r.machine->node.core);
    const double mem = r.compiler.mem_efficiency(arch::KernelClass::kStream,
                                                 r.machine->node.core);
    effect.row({r.machine->name, arch::name_of(r.compiler.vendor()),
                report::fixed(vec, 2), report::fixed(100.0 * mem, 0) + "%"});
    h.csv_row({r.machine->name, arch::name_of(r.compiler.vendor()),
               report::fixed(vec, 3), report::fixed(mem, 3)});
  }
  effect.print(std::cout);
  std::printf(
      "\nReading: the paper's STREAM numbers require the Fujitsu flags — a "
      "plain GNU build (no zfill/prefetch) sustains ~62%% of the tuned "
      "bandwidth on HBM, while on DDR4 the toolchain barely matters.\n");
  return 0;
}
