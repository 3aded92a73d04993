// Fig. 1: sustained performance of the six FPU microkernel variants
// (scalar/vector x half/single/double) on one core of each machine.
//
// The simulated bars come from the core models (peak x the calibrated
// kernel efficiency); the harness also runs the *native* FMA kernel on the
// host as a sanity anchor that the kernel methodology itself is sound.
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <iostream>
#include <vector>

#include "arch/calibration.h"
#include "arch/configs.h"
#include "harness.h"
#include "kernels/fma.h"
#include "report/table.h"
#include "simmpi/world.h"

using namespace ctesim;

namespace {

struct Variant {
  const char* name;
  arch::Precision precision;
  bool vector;
};

constexpr Variant kVariants[] = {
    {"scalar-half", arch::Precision::kHalf, false},
    {"scalar-single", arch::Precision::kSingle, false},
    {"scalar-double", arch::Precision::kDouble, false},
    {"vector-half", arch::Precision::kHalf, true},
    {"vector-single", arch::Precision::kSingle, true},
    {"vector-double", arch::Precision::kDouble, true},
};

double peak(const arch::CoreModel& core, const Variant& v) {
  return (v.vector ? core.peak_vector_flops(v.precision)
                   : core.peak_scalar_flops())
      .value();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("fig1_fpu_ukernel", "FPU microkernel, one core");
  if (!h.parse(argc, argv)) return h.exit_status();
  h.banner("Fig. 1", "FPU uKernel sustained performance (one core)");

  const auto cte = arch::cte_arm();
  const auto mn4 = arch::marenostrum4();
  const double eff = arch::calib::kFpuKernelEfficiency;

  report::Table table("FPU uKernel, GFlop/s (% of theoretical peak)",
                      {"variant", "CTE-Arm", "%peak", "MareNostrum 4",
                       "%peak"});
  h.open_csv({"variant", "cte_gflops", "cte_pct", "mn4_gflops", "mn4_pct"});
  for (const auto& v : kVariants) {
    const double cte_peak = peak(cte.node.core, v);
    const double mn4_peak = peak(mn4.node.core, v);
    const double cte_sustained = cte_peak * eff;
    const double mn4_sustained = mn4_peak * eff;
    table.row({v.name, report::fixed(cte_sustained / 1e9, 2),
               report::fixed(100.0 * cte_sustained / cte_peak, 1),
               report::fixed(mn4_sustained / 1e9, 2),
               report::fixed(100.0 * mn4_sustained / mn4_peak, 1)});
    h.csv_row({0.0 + (&v - kVariants), cte_sustained / 1e9,
               100.0 * cte_sustained / cte_peak, mn4_sustained / 1e9,
               100.0 * mn4_sustained / mn4_peak});
  }
  table.print(std::cout);

  std::printf(
      "\nNote: vector-half on MareNostrum 4 runs at the single-precision\n"
      "rate (AVX-512 has no FP16 arithmetic); A64FX doubles it (SVE FP16).\n");

  // Section III-A also verifies "no variability of the performance within
  // a node running a multi-threaded version ... and no variability across
  // the nodes": the simulated per-core rates are identical by construction
  // and the per-node spread under system jitter stays below 1%.
  {
    mpi::WorldOptions options;
    options.machine = cte;
    options.compute_jitter = 0.002;  // measured-run noise floor
    mpi::World world(std::move(options),
                     mpi::Placement::per_node(cte.node, 8));
    std::vector<double> fma_s(8, 0.0);
    world.run([&fma_s](mpi::Rank& r) -> sim::Task<> {
      const double t0 = r.now_s();
      co_await r.compute(
          roofline::KernelSig{.name = "fma",
                              .cls = arch::KernelClass::kFmaThroughput,
                              .flops_per_elem = 2.0,
                              .bytes_per_elem = 0.0},
          1e9);
      fma_s[static_cast<std::size_t>(r.id())] += r.now_s() - t0;
    });
    double sum = 0.0;
    for (double t : fma_s) sum += t;
    const double mean = sum / static_cast<double>(fma_s.size());
    const double spread =
        (*std::max_element(fma_s.begin(), fma_s.end()) - mean) / mean;
    std::printf(
        "\nvariability check: multi-node FMA spread %.2f%% of mean "
        "(paper: \"no variability\" within or across nodes)\n",
        100.0 * spread);
  }

  // Native anchor: the same methodology (independent FMA chains) on the
  // host, with a closed-form correctness check.
  const auto native = kernels::fma_throughput_f64(4'000'000);
  const double expected = kernels::fma_expected_checksum_f64(4'000'000);
  std::printf(
      "\nNative host anchor: %.2f GFlop/s double FMA (checksum %s)\n",
      native.gflops,
      native.checksum == expected ? "exact" : "MISMATCH");
  return native.checksum == expected ? 0 : 1;
}
