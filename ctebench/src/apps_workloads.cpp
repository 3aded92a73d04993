// apps: the MPI-proxy workload, a closed loop on one thread whose op inputs
// are fixed for the run (they do not depend on --seed). Each op runs:
//
// - wide: NEMO BENCH at 192 CTE-Arm nodes (9216 ranks, exact mode),
//   OpenIFS TC0511L91 at 192 nodes (spectral-transpose alltoall) and the
//   NEMO CTE-Arm/MareNostrum 4 pair at 8 and 24 nodes that paper_err is
//   measured on;
// - long: NEMO at 8 nodes (384 ranks) over a window with a diagnostic
//   phase every 10th step, simulated exactly, then estimated through the
//   sampling executor (sampling_study's shape, shortened).
//
// The traced run times each app call with spans and, once per run, drives
// simmpi directly with the apps' communication patterns at zero compute,
// which is how the simmpi/core/net per-layer numbers are measured.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "apps/nemo.h"
#include "apps/openifs.h"
#include "arch/configs.h"
#include "arch/validate.h"
#include "common.h"
#include "net/network.h"
#include "simmpi/placement.h"
#include "simmpi/world.h"
#include "trace/chrome.h"
#include "util/hash.h"

namespace ctebench {
namespace {

using namespace ctesim;

/// Published NEMO MareNostrum 4 advantage over CTE-Arm at 8..24 nodes.
constexpr double kPaperLow = 1.70;
constexpr double kPaperHigh = 1.79;

/// Steps in the long NEMO window (sampling_study runs 10 000).
constexpr int kLongSteps = 200;
/// The long window's sampling plan seed: sampling_study's default. It is
/// fixed, not taken from --seed, because about 8 % of plan seeds put this
/// window's estimate outside its 95 % CI (see NOTES.md) and every such run
/// would fail the CI check by chance.
constexpr std::uint64_t kPlanSeed = 2;
/// Fixed per-op limit behind slo_ok_share (an op takes 4-10 s today).
constexpr double kSloSeconds = 60.0;

/// The workloads' set-up: a built-in machine, validated.
arch::MachineModel validated(arch::MachineModel machine) {
  arch::validate_or_throw(machine);
  return machine;
}

/// Relative distance of `ratio` outside [kPaperLow, kPaperHigh].
double band_distance(double ratio) {
  if (ratio > kPaperHigh) return (ratio - kPaperHigh) / kPaperHigh;
  if (ratio < kPaperLow) return (kPaperLow - ratio) / kPaperLow;
  return 0.0;
}

std::uint64_t hash_doubles(const std::vector<double>& values) {
  std::uint64_t h = kFnvOffsetBasis;
  char buf[40];
  for (double v : values) {
    std::snprintf(buf, sizeof buf, "%.17g;", v);
    h = hash64(buf, h);
  }
  return h;
}

/// NEMO's process grid and halo size at `nranks` (apps/nemo.cpp's rule).
struct NemoGrid {
  int px = 1;
  int py = 1;
  std::uint64_t halo_bytes = 0;
};

NemoGrid nemo_grid(int nranks) {
  const apps::NemoConfig c;
  NemoGrid g;
  for (int cand = 1; cand * cand <= nranks; ++cand) {
    if (nranks % cand == 0) g.px = cand;
  }
  g.py = nranks / g.px;
  const double lx = static_cast<double>(c.grid_x) / g.px;
  const double ly = static_cast<double>(c.grid_y) / g.py;
  g.halo_bytes = static_cast<std::uint64_t>((lx + ly) * c.levels * 8.0 * 4.0);
  return g;
}

std::vector<int> nemo_neighbors(const NemoGrid& g, int rank) {
  const int cx = rank % g.px;
  const int cy = rank / g.px;
  std::vector<int> n;
  if (cx > 0) n.push_back(rank - 1);
  if (cx + 1 < g.px) n.push_back(rank + 1);
  if (cy > 0) n.push_back(rank - g.px);
  if (cy + 1 < g.py) n.push_back(rank + g.px);
  return n;
}

struct DriverStats {
  double setup_s = 0.0;
  double run_s = 0.0;
  double units = 0.0;  ///< messages or alltoall pairs
  std::uint64_t events = 0;
};

/// World::run with NEMO's per-step pattern and zero compute: per step,
/// 12 halo exchanges with the 2D neighbours and 2 allreduce(8). `rec`, if
/// set, records the World's MPI spans.
DriverStats halo_driver(const arch::MachineModel& machine, int nodes,
                        int steps, trace::Recorder* rec = nullptr) {
  const apps::NemoConfig c;
  const int nranks = nodes * machine.node.core_count();
  const NemoGrid g = nemo_grid(nranks);
  DriverStats st;
  mpi::WorldOptions options;
  options.machine = machine;
  options.seed = 2000 + static_cast<std::uint64_t>(nodes);
  options.recorder = rec;
  const auto t0 = Clock::now();
  mpi::World world(std::move(options),
                   mpi::Placement::per_core(machine.node, nranks));
  st.setup_s = seconds_since(t0);
  const auto t1 = Clock::now();
  world.run([&](mpi::Rank& rank) -> sim::Task<> {
    const std::vector<int> neighbors = nemo_neighbors(g, rank.id());
    for (int s = 0; s < steps; ++s) {
      for (int k = 0; k < c.kernels_per_step; ++k) {
        co_await rank.exchange(neighbors, g.halo_bytes, /*tag=*/1);
      }
      for (int r = 0; r < c.reductions_per_step; ++r) {
        co_await rank.allreduce(8);
      }
    }
  });
  st.run_s = seconds_since(t1);
  st.events = world.engine().events_processed();
  for (int r = 0; r < nranks; ++r) {
    st.units += static_cast<double>(nemo_neighbors(g, r).size());
  }
  st.units *= static_cast<double>(c.kernels_per_step) * steps;
  return st;
}

/// Every message the World recorded in `rec`: (rank, peer, bytes), sorted.
std::vector<std::tuple<int, int, std::uint64_t>> sends(
    const trace::Recorder& rec) {
  std::vector<std::tuple<int, int, std::uint64_t>> out;
  for (const auto& s : rec.spans()) {
    if (s.name == "send") out.emplace_back(s.track.index, s.peer, s.bytes);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// nemo_grid/nemo_neighbors restate apps/nemo.cpp's decomposition, which
/// src/ does not expose. Check that they still match it: one exact NEMO
/// step at `nodes` nodes must send exactly the messages of one halo-driver
/// step. Returns why not, or an empty string.
std::string check_halo_pattern(const arch::MachineModel& machine,
                               int nodes) {
  trace::Recorder app(true);
  apps::NemoConfig one_step;
  one_step.steps = 1;
  one_step.sim_steps = 1;
  one_step.recorder = &app;
  apps::run_nemo(machine, nodes, one_step);
  trace::Recorder driver(true);
  halo_driver(machine, nodes, 1, &driver);
  const auto want = sends(app);
  if (want.empty()) return "NEMO recorded no messages";
  if (sends(driver) != want) {
    return "the halo driver's messages differ from NEMO's at " +
           std::to_string(nodes) + " nodes; follow apps/nemo.cpp";
  }
  return "";
}

/// Rank::alltoall at OpenIFS's multi-node shape (one actor per node),
/// with its per-pair transposition size and per-step transposition count.
DriverStats alltoall_driver(const arch::MachineModel& machine, int nodes,
                            int steps) {
  const apps::OpenIfsConfig c;
  const apps::OpenIfsInput input = apps::tc0511l91();
  const double cells_local = input.columns * input.levels / nodes;
  const auto bytes = static_cast<std::uint64_t>(
      std::max(1.0, cells_local * 8.0 * c.transposed_fields / nodes));
  DriverStats st;
  mpi::WorldOptions options;
  options.machine = machine;
  options.seed = 4000 + static_cast<std::uint64_t>(nodes);
  const auto t0 = Clock::now();
  mpi::World world(std::move(options),
                   mpi::Placement::hybrid(machine.node, nodes, 1,
                                          machine.node.core_count()));
  st.setup_s = seconds_since(t0);
  const int calls = steps * c.transpositions_per_step;
  const auto t1 = Clock::now();
  world.run([&](mpi::Rank& rank) -> sim::Task<> {
    for (int i = 0; i < calls; ++i) co_await rank.alltoall(bytes);
  });
  st.run_s = seconds_since(t1);
  st.events = world.engine().events_processed();
  st.units = static_cast<double>(nodes) * (nodes - 1) * calls;
  return st;
}

/// net::Network::transfer over every inter-node pair of NEMO's halo at
/// `nodes` nodes; returns ns per call.
double transfer_ns(const arch::MachineModel& machine, int nodes) {
  const int per_node = machine.node.core_count();
  const NemoGrid g = nemo_grid(nodes * per_node);
  const net::Network network(machine.interconnect, machine.num_nodes);
  double sum = 0.0;
  long long calls = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < nodes * per_node; ++r) {
    for (int peer : nemo_neighbors(g, r)) {
      if (r / per_node == peer / per_node) continue;  // shared memory
      sum += network.transfer(r / per_node, peer / per_node, g.halo_bytes)
                 .time_s;
      ++calls;
    }
  }
  const double secs = seconds_since(t0);
  if (!(sum > 0.0) || calls == 0) {
    throw std::runtime_error("transfer driver saw no inter-node halo pair");
  }
  return secs * 1e9 / static_cast<double>(calls);
}

}  // namespace

// Why: simmpi at 9216 ranks and at 384; the only sampling user; no sched.
Result run_apps(const Args& args) {
  Result result;
  const arch::MachineModel cte = validated(arch::cte_arm());
  const arch::MachineModel mn4 = validated(arch::marenostrum4());
  apps::OpenIfsConfig oifs;
  oifs.input = apps::tc0511l91();
  apps::NemoConfig exact;
  exact.steps = kLongSteps;
  exact.sim_steps = kLongSteps;  // exact: the whole window
  exact.diag_interval = 10;
  apps::NemoConfig sampled = exact;
  sampled.sampling.mode = sampling::Mode::kSampled;
  sampled.sampling.k = 8;
  sampled.sampling.warmup = 2;
  sampled.sampling.max_phases = 4;
  sampled.sampling.seed = kPlanSeed;

  // The current op's outputs: the wide runs' simulated times, then the
  // long window's exact run and its sampled estimate.
  std::vector<double> out;
  apps::NemoResult full;
  apps::NemoResult est;
  double paper_err = 0.0;
  double sampling_err = 0.0;
  const Loop loop = closed_loop(
      args, 1, result,
      [] {
        validated(arch::cte_arm());
        validated(arch::marenostrum4());
      },
      [&](std::size_t i, trace::Recorder* rec) {
        out.clear();
        Scoped op(rec, "apps.op", i);
        {
          Scoped s(rec, "apps.nemo", i);
          out.push_back(apps::run_nemo(cte, 192).total_time);
        }
        {
          Scoped s(rec, "apps.openifs", i);
          out.push_back(
              apps::run_openifs_nodes(cte, 192, oifs).seconds_per_day);
        }
        {
          Scoped s(rec, "apps.nemo_pair", i);
          for (int nodes : {8, 24}) {
            out.push_back(apps::run_nemo(cte, nodes).total_time);
            out.push_back(apps::run_nemo(mn4, nodes).total_time);
          }
        }
        {
          Scoped s(rec, "apps.nemo_exact", i);
          full = apps::run_nemo(cte, 8, exact);
        }
        Scoped s(rec, "apps.nemo_sampled", i);
        est = apps::run_nemo(cte, 8, sampled);
      },
      [&](std::size_t i, const trace::Recorder*) {
        const double r8 = out[2] / out[3];
        const double r24 = out[4] / out[5];
        paper_err = std::max(band_distance(r8), band_distance(r24));
        const double err = std::fabs(est.total_time - full.total_time);
        sampling_err = err / full.total_time;
        if (i == 0) {
          std::printf("  NEMO MN4 advantage: %.4fx at 8 nodes, %.4fx at 24 "
                      "(paper: %.2f-%.2fx)\n",
                      r8, r24, kPaperLow, kPaperHigh);
          std::printf("  NEMO 8 nodes, %d steps: exact %.6f s, sampled %.6f "
                      "+- %.6f s\n",
                      kLongSteps, full.total_time, est.total_time,
                      est.sampling.ci_half_s);
        }
        out.insert(out.end(),
                   {full.total_time, est.total_time, est.sampling.ci_half_s,
                    static_cast<double>(est.sampling.steps_simulated)});
        OpOutcome o{hash_doubles(out), true};
        if (!(out[0] > 0.0 && out[1] > 0.0 && std::isfinite(paper_err))) {
          o.ok = false;
          result.fail("op " + std::to_string(i) + ": empty result");
        }
        if (!(err <= est.sampling.ci_half_s)) {
          o.ok = false;
          result.fail("op " + std::to_string(i) +
                      ": sampled NEMO estimate outside its 95% CI of the "
                      "exact total");
        }
        return o;
      });
  finish_loop(args, loop, kSloSeconds, result);
  result.add("paper_err", paper_err, "ratio");
  result.add("sampling_err", sampling_err, "ratio");
  // Guards the decomposition the halo drivers share with NEMO.
  if (const std::string why = check_halo_pattern(cte, 8); !why.empty()) {
    result.fail(why);
  }

  if (args.trace) {
    const int nemo_nodes = 192;
    const DriverStats halo =
        halo_driver(cte, nemo_nodes, apps::NemoConfig{}.sim_steps);
    const DriverStats a2a = alltoall_driver(cte, 192, oifs.sim_steps);
    const DriverStats small = halo_driver(cte, 8, kLongSteps);
    const double nemo_s = median(durations(*loop.spans, "apps.nemo"));
    const double openifs_s = median(durations(*loop.spans, "apps.openifs"));
    result.add("apps.nemo_s", nemo_s, "s");
    result.add("apps.openifs_s", openifs_s, "s");
    result.add("simmpi.world_setup_s", halo.setup_s, "s");
    result.add("simmpi.halo_msgs", halo.units, "count");
    result.add("simmpi.halo_ns_per_msg", halo.run_s * 1e9 / halo.units, "ns");
    result.add("simmpi.alltoall_ns_per_pair", a2a.run_s * 1e9 / a2a.units,
               "ns");
    result.add("core.events_per_s",
               static_cast<double>(halo.events + a2a.events) /
                   (halo.run_s + a2a.run_s),
               "1/s");
    result.add("net.transfer_ns", transfer_ns(cte, nemo_nodes), "ns");
    result.add("apps.self_share",
               1.0 - (halo.setup_s + halo.run_s + a2a.setup_s + a2a.run_s) /
                         (nemo_s + openifs_s),
               "share");
    result.add("apps.nemo_exact_s",
               median(durations(*loop.spans, "apps.nemo_exact")), "s");
    result.add("apps.nemo_sampled_s",
               median(durations(*loop.spans, "apps.nemo_sampled")), "s");
    result.add("sampling.phases",
               static_cast<double>(est.sampling.phase_count), "count");
    result.add("sampling.steps_simulated_share",
               static_cast<double>(est.sampling.steps_simulated) /
                   static_cast<double>(est.sampling.steps_total),
               "share");
    result.add("simmpi.halo_msgs_384ranks", small.units, "count");
    result.add("simmpi.halo_ns_per_msg_384ranks",
               small.run_s * 1e9 / small.units, "ns");
    result.add("core.events_per_s_384ranks",
               static_cast<double>(small.events) / small.run_s, "1/s");
    if (!args.spans_path.empty()) {
      trace::write_chrome_trace(*loop.spans, args.spans_path);
    }
  }
  return result;
}

}  // namespace ctebench
