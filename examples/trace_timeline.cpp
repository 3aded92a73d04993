// Timeline view of a simulated run: record a trace through the
// observability subsystem (src/trace/), render an ASCII Gantt (one lane per
// rank), and export the records as a Chrome trace for chrome://tracing /
// Perfetto — the Paraver-style workflow the BSC authors
// of the paper use, in miniature.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "arch/configs.h"
#include "report/gantt.h"
#include "roofline/kernel_library.h"
#include "simmpi/world.h"
#include "trace/chrome.h"
#include "util/cli.h"

using namespace ctesim;

int main(int argc, char** argv) {
  std::string trace_path;
  std::int64_t ranks = 6;
  Cli cli("trace_timeline", "record and render an execution timeline");
  cli.option("ranks", &ranks, "number of simulated ranks")
      .option("trace", &trace_path,
              "write a Chrome trace (chrome://tracing / Perfetto)");
  if (!cli.parse(argc, argv)) return cli.exit_status();
  if (!cli.writable("trace", trace_path)) return 1;

  mpi::WorldOptions options;
  options.machine = arch::cte_arm();
  options.trace = true;
  options.compute_jitter = 0.03;
  mpi::World world(std::move(options),
                   mpi::Placement::per_node(arch::cte_arm().node,
                                            static_cast<int>(ranks)));

  // A miniature bulk-synchronous solver: unbalanced compute, a ring halo
  // exchange, then a reduction — enough structure for a readable timeline.
  world.run([](mpi::Rank& r) -> sim::Task<> {
    const int right = (r.id() + 1) % r.size();
    const int left = (r.id() - 1 + r.size()) % r.size();
    for (int step = 0; step < 3; ++step) {
      // Rank-dependent load: the timeline shows the imbalance directly.
      co_await r.compute(roofline::kernels::stream_triad(),
                         5e6 * (1.0 + 0.4 * r.id()));
      co_await r.sendrecv(right, 256 * 1024, left);
      co_await r.allreduce(8);
    }
  });

  report::Gantt gantt("3 steps of an unbalanced solver on CTE-Arm",
                      *world.recorder(), world.num_ranks(), 72);
  gantt.print(std::cout);

  std::printf(
      "\nThe staircase of '#' lanes is the injected load imbalance; the "
      "'<' tails show the fast ranks waiting in the reduction for the "
      "slowest one — the pattern that makes 'time of the slowest process' "
      "the right metric (as the paper reports for Alya).\n");

  if (!trace_path.empty()) {
    trace::write_chrome_trace(*world.recorder(), trace_path);
    std::printf(
        "Chrome trace written to %s — open in chrome://tracing or "
        "https://ui.perfetto.dev\n",
        trace_path.c_str());
  }
  return 0;
}
