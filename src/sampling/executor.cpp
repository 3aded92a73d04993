#include "sampling/executor.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "trace/recorder.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time.h"

namespace ctesim::sampling {

const char* name_of(Mode mode) {
  return mode == Mode::kExact ? "exact" : "sampled";
}

double Outcome::speedup() const {
  if (steps_simulated <= 0) return 1.0;
  return static_cast<double>(steps_total) /
         static_cast<double>(steps_simulated);
}

const ChannelEstimate& Outcome::channel(std::string_view name) const {
  for (const ChannelEstimate& c : channels) {
    if (c.name == name) return c;
  }
  CTESIM_EXPECTS(false && "unknown sampling channel");
  return channels.front();
}

namespace {

/// Evenly spaced representatives (seeded fractional offset) from a phase's
/// member list.
std::vector<long long> pick_representatives(const std::vector<long long>& members,
                                            int k, std::uint64_t seed,
                                            std::size_t phase_index) {
  Rng rng(hash_combine(hash_combine(kFnvOffsetBasis, seed),
                       0x72657073ULL + phase_index));
  const std::size_t m = members.size();
  const std::size_t count = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(1, k)), m);
  std::vector<long long> reps;
  reps.reserve(count);
  // Jittered systematic sampling: one representative drawn uniformly
  // inside each of `count` equal segments. Plain even spacing would alias
  // with any periodic structure inside the stratum (e.g. a phase-blind
  // plan sampling a run whose every 10th step is a diagnostic step lands
  // every representative on the same residue — a systematically wrong
  // estimate no CI can confess to); the per-segment jitter keeps the
  // spread of even spacing while breaking that alignment.
  for (std::size_t j = 0; j < count; ++j) {
    auto idx = static_cast<std::size_t>(
        (static_cast<double>(j) + rng.uniform()) * static_cast<double>(m) /
        static_cast<double>(count));
    idx = std::min(idx, m - 1);
    reps.push_back(members[idx]);
  }
  std::sort(reps.begin(), reps.end());
  reps.erase(std::unique(reps.begin(), reps.end()), reps.end());
  return reps;
}

void emit_trace(trace::Recorder* recorder, const SamplingPlan& plan,
                const Outcome& out) {
  if (recorder == nullptr || !recorder->enabled()) return;
  const sim::Time end = sim::from_seconds(out.makespan_s);
  recorder->span(trace::Track::global(), "sampling", "run",
                 std::string(name_of(plan.mode)), 0, end);
  recorder->counter(trace::Track::global(), "sampling",
                    "sampling.steps_total", end,
                    static_cast<double>(out.steps_total));
  recorder->counter(trace::Track::global(), "sampling",
                    "sampling.steps_simulated", end,
                    static_cast<double>(out.steps_simulated));
  recorder->counter(trace::Track::global(), "sampling", "sampling.phases",
                    end, static_cast<double>(out.phase_count));
  recorder->counter(trace::Track::global(), "sampling",
                    "sampling.ci_half_s", end, out.ci_half_s);
}

}  // namespace

Outcome run_plan(const StepProfile& profile, const SamplingPlan& plan,
                 const StepRunner& runner, trace::Recorder* recorder) {
  CTESIM_EXPECTS(profile.total_steps >= 1);
  CTESIM_EXPECTS(!profile.channels.empty());

  Outcome out;
  out.mode = plan.mode;
  out.steps_total = profile.total_steps;
  const std::size_t nch = profile.channels.size();
  out.channels.resize(nch);
  for (std::size_t c = 0; c < nch; ++c) {
    out.channels[c].name = profile.channels[c].name;
  }

  if (plan.mode == Mode::kExact) {
    const long long window = std::clamp<long long>(
        profile.exact_window, 1, profile.total_steps);
    std::vector<long long> steps(static_cast<std::size_t>(window));
    std::iota(steps.begin(), steps.end(), 0LL);
    const StepRunResult res = runner(steps, /*want_per_step=*/false);
    CTESIM_EXPECTS(res.accum.size() == nch);
    for (std::size_t c = 0; c < nch; ++c) {
      // Legacy arithmetic order, bit-for-bit: the old apps computed
      // slowest-rank sum / sim_steps [* scale] and then multiplied by the
      // full step count. Do not reassociate.
      double mean = res.accum[c] / static_cast<double>(window);
      mean = mean * profile.channels[c].scale;
      out.channels[c].mean_step_s = mean;
      out.channels[c].total_s =
          mean * static_cast<double>(profile.total_steps);
      out.total_s += out.channels[c].total_s;
    }
    out.steps_simulated = window;
    out.makespan_s = res.makespan_s;
    emit_trace(recorder, plan, out);
    return out;
  }

  // --- sampled mode -------------------------------------------------------
  const auto phases = detect_phases(profile, plan.max_phases, plan.seed);
  out.phase_count = phases.size();
  const int warmup = static_cast<int>(std::min<long long>(
      std::max(0, plan.warmup), profile.total_steps));

  // Each representative is simulated as a region: `warmup` contiguous
  // predecessor steps rebuild the pipeline skew a cold-started step would
  // miss (halo-coupled apps advance at a steady-state rate that a single
  // aligned step underestimates), then the representative itself is
  // measured. Overlapping regions merge in the sorted union.
  std::vector<std::vector<long long>> reps(phases.size());
  std::vector<long long> steps;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    reps[p] = pick_representatives(phases[p].members, plan.k, plan.seed, p);
    for (const long long r : reps[p]) {
      for (long long s = std::max<long long>(0, r - warmup); s <= r; ++s) {
        steps.push_back(s);
      }
    }
  }
  std::sort(steps.begin(), steps.end());
  steps.erase(std::unique(steps.begin(), steps.end()), steps.end());

  const StepRunResult res = runner(steps, /*want_per_step=*/true);
  CTESIM_EXPECTS(res.per_rank_step.size() == nch);
  for (std::size_t c = 0; c < nch; ++c) {
    CTESIM_EXPECTS(res.per_rank_step[c].size() == steps.size());
  }
  const std::size_t nranks =
      steps.empty() ? 0 : res.per_rank_step[0][0].size();
  CTESIM_EXPECTS(nranks > 0);
  const auto position_of = [&steps](long long step) {
    const auto it = std::lower_bound(steps.begin(), steps.end(), step);
    CTESIM_EXPECTS(it != steps.end() && *it == step);
    return static_cast<std::size_t>(it - steps.begin());
  };

  // Each channel reports its slowest rank (the paper's "elapsed time of
  // the slowest process", per phase): extrapolate every rank's full run
  // from its own samples, then keep the rank with the largest estimate.
  // Ranks are extrapolated separately BEFORE the max — taking per-step
  // maxes first and summing those would systematically overestimate.
  std::vector<VarianceTerm> all_terms;
  for (std::size_t c = 0; c < nch; ++c) {
    double best_total = 0.0;
    std::vector<VarianceTerm> best_terms;
    for (std::size_t r = 0; r < nranks; ++r) {
      double total_r = 0.0;
      std::vector<VarianceTerm> terms;
      for (std::size_t p = 0; p < phases.size(); ++p) {
        RunningStats st;
        for (const long long s : reps[p]) {
          st.add(res.per_rank_step[c][position_of(s)][r]);
        }
        const double w = profile.channels[c].scale *
                         static_cast<double>(phases[p].members.size());
        total_r += w * st.mean();
        VarianceTerm term;
        term.weight = w;
        term.var = st.count() >= 2 ? st.variance() : 0.0;
        term.n = st.count();
        terms.push_back(term);
      }
      if (r == 0 || total_r > best_total) {
        best_total = total_r;
        best_terms = std::move(terms);
      }
    }
    const double var_c = weighted_sum_variance(best_terms);
    const double df_c = welch_satterthwaite_df(best_terms);
    ChannelEstimate& est = out.channels[c];
    est.total_s = best_total;
    est.mean_step_s = best_total / static_cast<double>(profile.total_steps);
    est.df = df_c;
    if (var_c > 0.0) {
      est.ci_half_s =
          student_t_975(static_cast<std::size_t>(df_c)) * std::sqrt(var_c);
    }
    out.total_s += best_total;
    all_terms.insert(all_terms.end(), best_terms.begin(), best_terms.end());
  }
  const double var_all = weighted_sum_variance(all_terms);
  out.df = welch_satterthwaite_df(all_terms);
  if (var_all > 0.0) {
    out.ci_half_s =
        student_t_975(static_cast<std::size_t>(out.df)) * std::sqrt(var_all);
  }
  out.steps_simulated = static_cast<long long>(steps.size());
  out.makespan_s = res.makespan_s;
  emit_trace(recorder, plan, out);
  return out;
}

}  // namespace ctesim::sampling
