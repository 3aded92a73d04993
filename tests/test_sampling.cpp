// Tests for the representative-region sampling subsystem: signature
// ordering, deterministic phase detection, the exact-mode executor's
// byte-identity with the legacy sim_steps extrapolation (golden strings
// captured from the pre-sampling implementation), sampled estimates
// landing inside their reported confidence intervals across seeds for
// every app proxy, run-to-run determinism, and the batch RuntimeModel's
// sampled_runtime.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/alya.h"
#include "apps/gromacs.h"
#include "apps/nemo.h"
#include "apps/openifs.h"
#include "apps/wrf.h"
#include "arch/configs.h"
#include "batch/runtime.h"
#include "batch/workload.h"
#include "sampling/executor.h"
#include "sampling/phases.h"
#include "sampling/plan.h"
#include "sampling/signature.h"
#include "util/check.h"

namespace ctesim::sampling {
namespace {

/// Shortest exact decimal spelling that round-trips a double — the
/// comparison currency of the byte-identity tests (equal strings iff equal
/// bits, without tripping float-equality lint).
std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- signatures -----------------------------------------------------------

TEST(Signature, OrderingCoversEveryFeature) {
  const StepSignature base;
  StepSignature other = base;
  EXPECT_FALSE(signature_less(base, other));
  EXPECT_TRUE(signature_equal(base, other));
  other.tag = 1.0;
  EXPECT_TRUE(signature_less(base, other));
  EXPECT_FALSE(signature_equal(base, other));
  other = base;
  other.io_bytes = 1.0;
  EXPECT_TRUE(signature_less(base, other));
  other = base;
  other.flops = -1.0;
  EXPECT_TRUE(signature_less(other, base));
}

// --- phase detection ------------------------------------------------------

StepProfile periodic_profile(long long steps, long long period) {
  StepProfile p;
  p.total_steps = steps;
  p.signature = [period](long long s) {
    StepSignature sig;
    sig.flops = 100.0;
    if (s % period == 0) sig.collectives = 8.0;
    return sig;
  };
  return p;
}

TEST(Phases, ExactGroupingSeparatesStepKinds) {
  const auto phases = detect_phases(periodic_profile(100, 10), 8, 1);
  ASSERT_EQ(phases.size(), 2u);
  // Ordered by first occurrence: step 0 is the collective-heavy kind.
  EXPECT_EQ(phases[0].members.front(), 0);
  EXPECT_EQ(phases[0].members.size(), 10u);
  EXPECT_EQ(phases[1].members.size(), 90u);
  for (const auto& ph : phases) {
    for (std::size_t i = 1; i < ph.members.size(); ++i) {
      EXPECT_LT(ph.members[i - 1], ph.members[i]);
    }
  }
}

TEST(Phases, NullSignatureIsOnePhase) {
  StepProfile p;
  p.total_steps = 5;
  const auto phases = detect_phases(p, 8, 1);
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].members.size(), 5u);
}

TEST(Phases, KmeansMergeRespectsBudgetAndPartitions) {
  // 16 distinct signatures in two well-separated bands.
  StepProfile p;
  p.total_steps = 160;
  p.signature = [](long long s) {
    StepSignature sig;
    const long long kind = s % 16;
    sig.flops = kind < 8 ? 100.0 + static_cast<double>(kind)
                         : 1e6 + static_cast<double>(kind);
    return sig;
  };
  const auto phases = detect_phases(p, 2, /*seed=*/7);
  ASSERT_EQ(phases.size(), 2u);
  std::size_t total = 0;
  for (const auto& ph : phases) total += ph.members.size();
  EXPECT_EQ(total, 160u);
  // The bands must not be mixed: centroids sit in different decades.
  EXPECT_LT(phases[0].centroid.flops, 1000.0);
  EXPECT_GT(phases[1].centroid.flops, 1000.0);
}

TEST(Phases, DeterministicAcrossCalls) {
  const auto a = detect_phases(periodic_profile(200, 7), 3, 42);
  const auto b = detect_phases(periodic_profile(200, 7), 3, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].members, b[i].members);
    EXPECT_EQ(fmt(a[i].centroid.flops), fmt(b[i].centroid.flops));
  }
}

// --- executor plumbing ----------------------------------------------------

TEST(Executor, UnknownChannelIsAContractViolation) {
  Outcome out;
  out.channels.push_back({"step", 0.0, 0.0, 0.0, 0.0});
  EXPECT_NO_THROW(out.channel("step"));
  EXPECT_THROW(out.channel("nope"), ContractError);
}

TEST(Executor, SpeedupIsStepsRatio) {
  Outcome out;
  out.steps_total = 1000;
  out.steps_simulated = 40;
  EXPECT_EQ(fmt(out.speedup()), fmt(25.0));
}

// --- exact mode: byte-identity with the legacy extrapolation --------------
//
// Golden strings captured from the pre-sampling implementation (the apps'
// own slowest-rank-sum / sim_steps multiply-out). The executor's exact
// mode must reproduce them bit for bit — equal %.17g spellings iff equal
// doubles.

TEST(ExactGolden, WrfCteArm4Nodes) {
  const auto r = apps::run_wrf(arch::cte_arm(), 4);
  EXPECT_EQ(fmt(r.total_time), "446.12595194810638");
  EXPECT_EQ(fmt(r.time_per_step), "0.052837278196499998");
  EXPECT_EQ(fmt(r.io_time), "2.2928150975063937");
}

TEST(ExactGolden, WrfMareNostrum2Nodes) {
  const auto r = apps::run_wrf(arch::marenostrum4(), 2);
  EXPECT_EQ(fmt(r.total_time), "412.63441933525712");
  EXPECT_EQ(fmt(r.time_per_step), "0.048893517448499998");
  EXPECT_EQ(fmt(r.io_time), "1.9288727678571429");
}

TEST(ExactGolden, NemoCteArm8Nodes) {
  const auto r = apps::run_nemo(arch::cte_arm(), 8);
  EXPECT_EQ(fmt(r.total_time), "23.3241143475");
  EXPECT_EQ(fmt(r.time_per_step), "0.023324114347500001");
}

TEST(ExactGolden, AlyaCteArm12Nodes) {
  const auto r = apps::run_alya(arch::cte_arm(), 12);
  EXPECT_EQ(fmt(r.time_per_step), "3.0591628886949991");
  EXPECT_EQ(fmt(r.assembly_per_step), "2.3266791336999999");
  EXPECT_EQ(fmt(r.solver_per_step), "0.73248375499499896");
}

TEST(ExactGolden, GromacsCteArm8Ranks) {
  const auto r = apps::run_gromacs(arch::cte_arm(), 8);
  EXPECT_EQ(fmt(r.time_per_step), "0.26428418236739998");
  EXPECT_EQ(fmt(r.days_per_ns), "1.5294223516631944");
}

TEST(ExactGolden, OpenIfsCteArm8Ranks) {
  const auto r = apps::run_openifs_ranks(arch::cte_arm(), 8);
  EXPECT_EQ(fmt(r.seconds_per_day), "74.487937882848001");
}

TEST(ExactGolden, OpenIfsCteArm32NodesTc0511) {
  apps::OpenIfsConfig config;
  config.input = apps::tc0511l91();
  const auto r = apps::run_openifs_nodes(arch::cte_arm(), 32, config);
  EXPECT_EQ(fmt(r.seconds_per_day), "14.160830876064001");
}

// --- sampled mode: CI coverage and determinism per app proxy --------------
//
// Each app: one full exact run (every step simulated) as ground truth,
// then sampled runs across three seeds must land inside their reported
// 95% intervals. Everything is deterministic, so these are fixed
// scenarios, not statistical coin flips.

struct Estimate {
  double total = 0.0;
  double ci = 0.0;
  Outcome outcome;
};

void expect_in_ci(const char* app, std::uint64_t seed, double full,
                  const Estimate& e) {
  const double err = e.total - full;
  EXPECT_LE(std::abs(err), e.ci)
      << app << " seed=" << seed << ": err " << err << " vs ci " << e.ci;
  EXPECT_GT(e.outcome.speedup(), 1.0) << app << " seed=" << seed;
}

SamplingPlan sampled_plan(std::uint64_t seed, long long k, long long warmup) {
  SamplingPlan plan;
  plan.mode = Mode::kSampled;
  plan.k = k;
  plan.warmup = warmup;
  plan.seed = seed;
  return plan;
}

TEST(SampledCi, Nemo) {
  apps::NemoConfig full;
  full.steps = 60;
  full.sim_steps = 60;
  full.diag_interval = 10;
  const auto f = apps::run_nemo(arch::cte_arm(), 8, full);
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    apps::NemoConfig s = full;
    s.sampling = sampled_plan(seed, 8, 2);
    const auto r = apps::run_nemo(arch::cte_arm(), 8, s);
    EXPECT_EQ(r.sampling.phase_count, 2u);
    expect_in_ci("nemo", seed, f.total_time,
                 {r.total_time, r.sampling.ci_half_s, r.sampling});
  }
}

TEST(SampledCi, Wrf) {
  apps::WrfConfig full;
  full.steps = 100;
  full.sim_steps = 100;
  full.frames = 5;
  full.io_in_step = true;
  const auto f = apps::run_wrf(arch::cte_arm(), 2, full);
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    apps::WrfConfig s = full;
    s.sampling = sampled_plan(seed, 6, 3);
    const auto r = apps::run_wrf(arch::cte_arm(), 2, s);
    EXPECT_GE(r.sampling.phase_count, 2u);
    expect_in_ci("wrf", seed, f.total_time,
                 {r.total_time, r.sampling.ci_half_s, r.sampling});
  }
}

TEST(SampledCi, Alya) {
  apps::AlyaConfig full;
  full.sim_steps = 19;  // the full 19 reported steps
  const auto f = apps::run_alya(arch::cte_arm(), 12, full);
  const double full_total = f.time_per_step * 19.0;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    apps::AlyaConfig s = full;
    s.sampling = sampled_plan(seed, 6, 1);
    const auto r = apps::run_alya(arch::cte_arm(), 12, s);
    const double total = r.sampling.total_s;
    expect_in_ci("alya", seed, full_total,
                 {total, r.sampling.ci_half_s, r.sampling});
    // Both channels must be estimated.
    EXPECT_GT(r.assembly_per_step, 0.0);
    EXPECT_GT(r.solver_per_step, 0.0);
  }
}

TEST(SampledCi, Gromacs) {
  apps::GromacsConfig full;
  full.timestep_fs = 10000.0;  // 100-step nanosecond: full run is feasible
  full.sim_steps = 100;
  const auto f = apps::run_gromacs(arch::cte_arm(), 8, full);
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    apps::GromacsConfig s = full;
    s.sampling = sampled_plan(seed, 6, 2);
    const auto r = apps::run_gromacs(arch::cte_arm(), 8, s);
    EXPECT_EQ(r.sampling.phase_count, 2u);  // nstlist cadence detected
    expect_in_ci("gromacs", seed, f.sampling.total_s,
                 {r.sampling.total_s, r.sampling.ci_half_s, r.sampling});
  }
}

TEST(SampledCi, OpenIfs) {
  apps::OpenIfsConfig full;
  full.input.steps_per_day = 96;  // a finer-stepped forecast day
  full.sim_steps = 96;            // exact window covers every step
  full.radiation_interval = 4;
  const auto f = apps::run_openifs_ranks(arch::cte_arm(), 8, full);
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    apps::OpenIfsConfig s = full;
    s.sampling = sampled_plan(seed, 8, 1);
    const auto r = apps::run_openifs_ranks(arch::cte_arm(), 8, s);
    EXPECT_EQ(r.sampling.phase_count, 2u);  // radiation steps detected
    expect_in_ci("openifs", seed, f.seconds_per_day,
                 {r.seconds_per_day, r.sampling.ci_half_s, r.sampling});
  }
}

TEST(SampledDeterminism, IdenticalSeedAndPlanIsByteIdentical) {
  apps::NemoConfig config;
  config.steps = 60;
  config.diag_interval = 10;
  config.sampling = sampled_plan(7, 8, 2);
  const auto a = apps::run_nemo(arch::cte_arm(), 8, config);
  const auto b = apps::run_nemo(arch::cte_arm(), 8, config);
  EXPECT_EQ(fmt(a.total_time), fmt(b.total_time));
  EXPECT_EQ(fmt(a.sampling.ci_half_s), fmt(b.sampling.ci_half_s));
  EXPECT_EQ(a.sampling.steps_simulated, b.sampling.steps_simulated);
  EXPECT_EQ(a.sampling.phase_count, b.sampling.phase_count);
}

TEST(SampledDeterminism, DifferentSeedsDifferentWorlds) {
  // Sampled runs must not reuse the exact-mode world seed: mixing the plan
  // seed in keeps the sampled realization independent of the ground truth.
  const SamplingPlan exact;
  EXPECT_EQ(world_seed(123, exact), 123u);
  SamplingPlan sampled;
  sampled.mode = Mode::kSampled;
  sampled.seed = 1;
  const auto a = world_seed(123, sampled);
  sampled.seed = 2;
  const auto b = world_seed(123, sampled);
  EXPECT_NE(a, 123u);
  EXPECT_NE(a, b);
}

// --- batch RuntimeModel ---------------------------------------------------

TEST(BatchSampling, ExactPlanMatchesAnalyticRuntime) {
  const batch::RuntimeModel model(arch::cte_arm());
  batch::Job job;
  job.id = 11;
  job.nodes = 4;
  job.profile = batch::profile_by_name("stencil");
  job.profile.iterations = 200;
  const double analytic = model.runtime(job, model.reference_hops(4));
  const SamplingPlan exact;
  const auto out =
      model.sampled_runtime(job, model.reference_hops(4), exact);
  // The jittered steps average to the analytic mean to within the jitter
  // amplitude over 200 draws.
  EXPECT_NEAR(out.total_s, analytic,
              analytic * batch::RuntimeModel::kStepJitter);
  EXPECT_EQ(out.steps_simulated, 200);
}

TEST(BatchSampling, SampledPlanCoversExactAcrossSeeds) {
  const batch::RuntimeModel model(arch::cte_arm());
  batch::Job job;
  job.id = 3;
  job.nodes = 2;
  job.profile = batch::profile_by_name("spmv");
  job.profile.iterations = 500;
  const double hops = model.reference_hops(2);
  const SamplingPlan exact;
  const double full = model.sampled_runtime(job, hops, exact).total_s;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const auto out =
        model.sampled_runtime(job, hops, sampled_plan(seed, 16, 0));
    EXPECT_LE(std::abs(out.total_s - full), out.ci_half_s)
        << "seed " << seed;
    EXPECT_LT(out.steps_simulated, 50);
  }
}

TEST(BatchSampling, FixedRuntimeJobIsOneStep) {
  const batch::RuntimeModel model(arch::cte_arm());
  batch::Job job;
  job.id = 1;
  job.nodes = 1;
  job.fixed_runtime_s = 123.5;
  const auto out = model.sampled_runtime(job, 0.0, SamplingPlan{});
  EXPECT_EQ(out.steps_total, 1);
  // One step, jittered: within the jitter amplitude of the fixed runtime.
  EXPECT_NEAR(out.total_s, 123.5,
              123.5 * batch::RuntimeModel::kStepJitter);
}

}  // namespace
}  // namespace ctesim::sampling
