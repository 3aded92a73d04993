// Tests for the five application proxies against the paper's Section V
// anchors (slowdowns, memory minima, crossover points, anomalies), and for
// the step driver they share (apps/sampled_run.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "apps/alya.h"
#include "apps/gromacs.h"
#include "apps/nemo.h"
#include "apps/openifs.h"
#include "apps/sampled_run.h"
#include "apps/wrf.h"
#include "arch/configs.h"

namespace ctesim::apps {
namespace {

const arch::MachineModel& cte() {
  static const auto m = arch::cte_arm();
  return m;
}

const arch::MachineModel& mn4() {
  static const auto m = arch::marenostrum4();
  return m;
}

// ---------------------------------------------------------------- Alya --

TEST(Alya, Needs12CteNodes) {
  EXPECT_EQ(alya_min_nodes(cte()), 12);
  EXPECT_LE(alya_min_nodes(mn4()), 4);
  EXPECT_FALSE(run_alya(cte(), 11).fits_memory);
}

TEST(Alya, TimeStepRatioNear3p4) {
  // "For runs between 12 and 16 nodes, CTE-Arm is consistently 3.4x
  // slower than MareNostrum 4." (Fig. 8)
  for (int nodes : {12, 16}) {
    const auto a = run_alya(cte(), nodes);
    const auto b = run_alya(mn4(), nodes);
    EXPECT_NEAR(a.time_per_step / b.time_per_step, 3.4, 0.25) << nodes;
  }
}

TEST(Alya, AssemblyRatioNear4p96At12Nodes) {
  const auto a = run_alya(cte(), 12);
  const auto b = run_alya(mn4(), 12);
  EXPECT_NEAR(a.assembly_per_step / b.assembly_per_step, 4.96, 0.4);
}

TEST(Alya, SolverRatioNear1p79At12Nodes) {
  const auto a = run_alya(cte(), 12);
  const auto b = run_alya(mn4(), 12);
  EXPECT_NEAR(a.solver_per_step / b.solver_per_step, 1.79, 0.2);
}

TEST(Alya, CrossoverNear44Nodes) {
  // "The run with 44 A64FX nodes achieves the same elapsed time [as] 12
  // MareNostrum 4 nodes."
  const double target = run_alya(mn4(), 12).time_per_step;
  EXPECT_GT(run_alya(cte(), 36).time_per_step, target);
  EXPECT_LT(run_alya(cte(), 52).time_per_step, target);
}

TEST(Alya, AssemblyCrossoverNear62Nodes) {
  const double target = run_alya(mn4(), 12).assembly_per_step;
  EXPECT_GT(run_alya(cte(), 52).assembly_per_step, target);
  EXPECT_LT(run_alya(cte(), 72).assembly_per_step, target);
}

TEST(Alya, StrongScalingMonotone) {
  double prev = 1e30;
  for (int nodes : {12, 16, 24, 44, 78}) {
    const double t = run_alya(cte(), nodes).time_per_step;
    EXPECT_LT(t, prev);
    prev = t;
  }
}

// ---------------------------------------------------------------- NEMO --

TEST(Nemo, Needs8CteNodes) {
  EXPECT_EQ(nemo_min_nodes(cte()), 8);
  EXPECT_EQ(nemo_min_nodes(mn4()), 1);
}

TEST(Nemo, MareNostrumFasterBy1p7) {
  // "The performance of MareNostrum 4 is between 1.70x and 1.79x higher."
  for (int nodes : {8, 16, 24}) {
    const auto a = run_nemo(cte(), nodes);
    const auto b = run_nemo(mn4(), nodes);
    const double ratio = a.total_time / b.total_time;
    EXPECT_GT(ratio, 1.60) << nodes;
    EXPECT_LT(ratio, 1.90) << nodes;
  }
}

TEST(Nemo, CrossoverNear48CteVs27Mn4) {
  const double target = run_nemo(mn4(), 27).total_time;
  EXPECT_GT(run_nemo(cte(), 40).total_time, target);
  EXPECT_LT(run_nemo(cte(), 56).total_time, target);
}

TEST(Nemo, ScalingFlattensBeyond128Nodes) {
  // "the scalability on CTE-Arm flattens at around 128 nodes (problem
  // size too small for the number of nodes)": parallel efficiency
  // relative to the 8-node baseline is high at small scale and has
  // degraded substantially by 192 nodes.
  const double t8 = run_nemo(cte(), 8).total_time;
  const double t16 = run_nemo(cte(), 16).total_time;
  const double t192 = run_nemo(cte(), 192).total_time;
  const double eff16 = (t8 / t16) / 2.0;
  const double eff192 = (t8 / t192) / 24.0;
  EXPECT_GT(eff16, 0.90);
  EXPECT_LT(eff192, 0.72);
}

// ------------------------------------------------------------- Gromacs --

TEST(Gromacs, SingleNodeSlowdown) {
  // 6 cores: 3.48x; full node: 3.10x (Fig. 12).
  const auto a6 = run_gromacs(cte(), 1);
  const auto b6 = run_gromacs(mn4(), 1);
  EXPECT_NEAR(a6.days_per_ns / b6.days_per_ns, 3.48, 0.35);
  const auto a48 = run_gromacs(cte(), 8);
  const auto b48 = run_gromacs(mn4(), 8);
  EXPECT_NEAR(a48.days_per_ns / b48.days_per_ns, 3.10, 0.3);
}

TEST(Gromacs, GapNarrowsAcrossNodes) {
  // Fig. 13 / Table IV: slowdown shrinks from ~3.1x to ~1.5-1.9x.
  const double r1 = run_gromacs(cte(), 8).days_per_ns /
                    run_gromacs(mn4(), 8).days_per_ns;
  const double r144 = run_gromacs(cte(), 144 * 8).days_per_ns /
                      run_gromacs(mn4(), 144 * 8).days_per_ns;
  EXPECT_LT(r144, r1 - 0.5);
  EXPECT_LT(r144, 2.3);
  EXPECT_GT(r144, 1.3);
}

TEST(Gromacs, SixteenRankAnomaly) {
  // "the run with 16 MPI processes performs unexpectedly bad in both
  // machines" — and 12 ranks x 8 threads recovers the trend.
  for (const auto* machine : {&cte(), &mn4()}) {
    const auto r8 = run_gromacs(*machine, 8);
    const auto r16 = run_gromacs(*machine, 16);
    const auto r32 = run_gromacs(*machine, 32);
    // 16 ranks is anomalously close to (or worse than) 8 ranks' rate
    // instead of halving it.
    EXPECT_GT(r16.days_per_ns, 0.7 * r8.days_per_ns) << machine->name;
    // The trend resumes at 32 ranks.
    EXPECT_LT(r32.days_per_ns, 0.5 * r16.days_per_ns) << machine->name;
    // The alternative 12x8 layout sits on the trend (per paper).
    GromacsConfig alt;
    alt.threads_per_rank = 8;
    alt.ranks_per_node = 6;
    const auto r12x8 = run_gromacs(*machine, 12, alt);
    EXPECT_LT(r12x8.days_per_ns, r16.days_per_ns) << machine->name;
  }
}

TEST(Gromacs, HybridLayoutUsesWholeNodes) {
  const auto r = run_gromacs(cte(), 32);  // 32 ranks x 6 threads
  EXPECT_EQ(r.nodes, 4);
  EXPECT_EQ(r.cores, 192);
}

// ------------------------------------------------------------- OpenIFS --

TEST(OpenIfs, SingleNodeSlowdowns) {
  // 8 ranks: 3.72x; full node: 3.28x (Fig. 14).
  const auto a8 = run_openifs_ranks(cte(), 8);
  const auto b8 = run_openifs_ranks(mn4(), 8);
  EXPECT_NEAR(a8.seconds_per_day / b8.seconds_per_day, 3.72, 0.4);
  const auto a48 = run_openifs_ranks(cte(), 48);
  const auto b48 = run_openifs_ranks(mn4(), 48);
  EXPECT_NEAR(a48.seconds_per_day / b48.seconds_per_day, 3.28, 0.35);
}

TEST(OpenIfs, MultiNodeNeeds32CteNodes) {
  OpenIfsConfig config;
  config.input = tc0511l91();
  EXPECT_EQ(openifs_min_nodes(cte(), config), 32);
  EXPECT_FALSE(run_openifs_nodes(cte(), 24, config).fits_memory);
}

TEST(OpenIfs, MultiNodeSlowdownNarrows) {
  // 32 nodes: 3.55x; 128 nodes: 2.56x (Fig. 15).
  OpenIfsConfig config;
  config.input = tc0511l91();
  const double r32 = run_openifs_nodes(cte(), 32, config).seconds_per_day /
                     run_openifs_nodes(mn4(), 32, config).seconds_per_day;
  const double r128 = run_openifs_nodes(cte(), 128, config).seconds_per_day /
                      run_openifs_nodes(mn4(), 128, config).seconds_per_day;
  EXPECT_NEAR(r32, 3.55, 0.45);
  EXPECT_NEAR(r128, 2.56, 0.35);
  EXPECT_LT(r128, r32);
}

// ----------------------------------------------------------------- WRF --

TEST(Wrf, SlowdownNear2p2) {
  // 1 node: 2.16x; 64 nodes: 2.23x (Fig. 16).
  const double r1 =
      run_wrf(cte(), 1).total_time / run_wrf(mn4(), 1).total_time;
  const double r64 =
      run_wrf(cte(), 64).total_time / run_wrf(mn4(), 64).total_time;
  EXPECT_NEAR(r1, 2.16, 0.2);
  EXPECT_NEAR(r64, 2.23, 0.35);
}

TEST(Wrf, IoCostsLittle) {
  // "there is little difference in time between the runs that enable IO
  // and the runs that do not, giving the runs with IO disabled a slight
  // advantage."
  WrfConfig with_io;
  WrfConfig without_io;
  without_io.io_enabled = false;
  for (int nodes : {1, 16}) {
    const auto on = run_wrf(cte(), nodes, with_io);
    const auto off = run_wrf(cte(), nodes, without_io);
    EXPECT_GT(on.total_time, off.total_time) << nodes;
    EXPECT_LT(on.total_time, 1.15 * off.total_time) << nodes;
  }
}

TEST(Wrf, MareNostrumAlwaysAhead) {
  for (int nodes : {1, 4, 16, 64}) {
    EXPECT_GT(run_wrf(cte(), nodes).total_time,
              run_wrf(mn4(), nodes).total_time)
        << nodes;
  }
}

// --------------------------------------------------------- step driver --

// Four ranks, two channels, a pass over steps {0, 1, 5, 6}: rank r computes
// (r + 1) * 10 ms in channel 0 and (4 - r) * 5 ms in channel 1 at every
// step, so the ranks drift apart before the gap at step 5. The body records
// its own clock at the mark and after each lap; the driver must report the
// differences of those readings, summed per rank in step order.
struct DriverRun {
  sampling::StepRunResult res;
  std::vector<std::vector<long long>> region_starts;  ///< [rank]
  std::vector<std::vector<double>> clock;  ///< [rank][3 * position + k]
};

DriverRun run_driver(const std::vector<long long>& steps,
                     bool want_per_step) {
  constexpr int kRanks = 4;
  DriverRun run;
  run.region_starts.resize(kRanks);
  run.clock.resize(kRanks);
  mpi::WorldOptions options;
  options.machine = cte();
  run.res = run_step_pass(
      std::move(options), mpi::Placement::per_node(cte().node, kRanks),
      /*num_channels=*/2, steps, want_per_step,
      [&run](mpi::Rank& rank, StepCursor step) -> sim::Task<> {
        const auto r = static_cast<std::size_t>(rank.id());
        while (step.next()) {
          if (step.region_start()) {
            run.region_starts[r].push_back(step.step());
            co_await rank.barrier();
          }
          step.mark();
          run.clock[r].push_back(rank.now_s());
          co_await rank.compute_seconds(0.010 * (rank.id() + 1));
          step.lap(0);
          run.clock[r].push_back(rank.now_s());
          co_await rank.compute_seconds(0.005 * (kRanks - rank.id()));
          step.lap(1);
          run.clock[r].push_back(rank.now_s());
        }
      });
  return run;
}

TEST(StepDriver, PerRankStepSecondsAndSlowestRankSums) {
  const std::vector<long long> steps = {0, 1, 5, 6};
  const DriverRun run = run_driver(steps, /*want_per_step=*/true);
  const auto& per = run.res.per_rank_step;
  ASSERT_EQ(per.size(), 2u);
  ASSERT_EQ(run.res.accum.size(), 2u);
  for (std::size_t c = 0; c < 2; ++c) {
    ASSERT_EQ(per[c].size(), steps.size());
    std::vector<double> sums(4, 0.0);
    for (std::size_t i = 0; i < steps.size(); ++i) {
      ASSERT_EQ(per[c][i].size(), 4u);
      for (std::size_t r = 0; r < 4; ++r) {
        const std::vector<double>& t = run.clock[r];
        const double dt = t[3 * i + c + 1] - t[3 * i + c];
        EXPECT_EQ(per[c][i][r], dt) << c << " " << i << " " << r;
        const double nominal =
            c == 0 ? 0.010 * static_cast<double>(r + 1)
                   : 0.005 * static_cast<double>(4 - r);
        EXPECT_NEAR(dt, nominal, 1e-12);
        sums[r] += dt;
      }
    }
    EXPECT_EQ(run.res.accum[c], *std::max_element(sums.begin(), sums.end()));
  }
  // Slowest rank: rank 3 in channel 0 (4 x 40 ms), rank 0 in channel 1
  // (4 x 20 ms).
  EXPECT_NEAR(run.res.accum[0], 0.160, 1e-12);
  EXPECT_NEAR(run.res.accum[1], 0.080, 1e-12);
  EXPECT_GT(run.res.makespan_s, 0.179);  // rank 3 is busy 4 x 45 ms
}

TEST(StepDriver, BarrierRunsAtTheGapOnly) {
  const DriverRun run = run_driver({0, 1, 5, 6}, /*want_per_step=*/true);
  double slowest_before_gap = 0.0;
  for (const std::vector<double>& t : run.clock) {
    slowest_before_gap = std::max(slowest_before_gap, t[5]);
  }
  for (std::size_t r = 0; r < 4; ++r) {
    const std::vector<double>& t = run.clock[r];
    EXPECT_EQ(run.region_starts[r], std::vector<long long>{5}) << r;
    // Contiguous steps start where the rank's previous step ended...
    EXPECT_EQ(t[3], t[2]) << r;
    EXPECT_EQ(t[9], t[8]) << r;
    // ...while step 5 starts after every rank finished step 1.
    EXPECT_GE(t[6], slowest_before_gap) << r;
  }
  // The ranks drifted apart before the gap (per-step 30 ms ... 45 ms), so
  // at least rank 0 waited there.
  EXPECT_GT(run.clock[0][6], run.clock[0][5]);
}

TEST(StepDriver, ExactPassSkipsPerStepSecondsAndBarriers) {
  const DriverRun run = run_driver({0, 1, 2, 3}, /*want_per_step=*/false);
  EXPECT_TRUE(run.res.per_rank_step.empty());
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_TRUE(run.region_starts[r].empty()) << r;
  }
  EXPECT_NEAR(run.res.accum[0], 0.160, 1e-12);
  EXPECT_NEAR(run.res.accum[1], 0.080, 1e-12);
}

}  // namespace
}  // namespace ctesim::apps
