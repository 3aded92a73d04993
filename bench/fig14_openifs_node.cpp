// Fig. 14: OpenIFS (TL255L91) scalability within one node, MPI ranks from
// 8 to 48, seconds per simulated day. The native radix-2 FFT kernel runs
// as a correctness anchor for the spectral-transform methodology.
#include <cstdio>
#include <iostream>
#include <map>

#include "apps/openifs.h"
#include "arch/configs.h"
#include "harness.h"
#include "kernels/fft.h"
#include "report/table.h"
#include "util/rng.h"

using namespace ctesim;

int main(int argc, char** argv) {
  bench::Harness h("fig14_openifs_node", "OpenIFS single-node scalability");
  if (!h.parse(argc, argv)) return h.exit_status();
  h.banner("Fig. 14", "OpenIFS: scalability in one node (TL255L91)");

  const auto cte = arch::cte_arm();
  const auto mn4 = arch::marenostrum4();
  report::Table table("seconds per forecast day",
                      {"ranks", "CTE-Arm", "MareNostrum 4", "slowdown"});
  bench::ScalingChart chart("OpenIFS, one node", 16, "MPI ranks", "s/day");
  h.open_csv({"ranks", "cte_s", "mn4_s"});
  std::map<int, double> slowdown;  // per rank count, for the headline
  for (int ranks : {8, 12, 16, 24, 32, 48}) {
    const auto a = apps::run_openifs_ranks(cte, ranks);
    const auto b = apps::run_openifs_ranks(mn4, ranks);
    slowdown[ranks] = a.seconds_per_day / b.seconds_per_day;
    table.row(std::to_string(ranks),
              {a.seconds_per_day, b.seconds_per_day, slowdown[ranks]}, 2);
    chart.cte(ranks, a.seconds_per_day);
    chart.mn4(ranks, b.seconds_per_day);
    h.csv_row({static_cast<double>(ranks), a.seconds_per_day,
               b.seconds_per_day});
  }
  table.print(std::cout);
  chart.print();

  std::printf(
      "\nheadline: 8 ranks %.2fx slower (paper 3.72x); full node %.2fx "
      "(paper 3.28x)\n",
      slowdown[8], slowdown[48]);

  // Native anchor: FFT round trip at forecast-like sizes.
  Rng rng(7);
  std::vector<kernels::Complex> signal(512);
  for (auto& v : signal) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  auto copy = signal;
  kernels::fft(copy);
  kernels::ifft(copy);
  double err = 0.0;
  for (std::size_t i = 0; i < signal.size(); ++i) {
    err = std::max(err, std::abs(copy[i] - signal[i]));
  }
  std::printf("native FFT anchor: 512-point round-trip max error %.2e\n",
              err);
  return err < 1e-10 ? 0 : 1;
}
