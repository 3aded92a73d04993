// Shared plumbing of the ctebench workloads: run arguments, the result
// every workload fills, host-time spans (recorded with ctesim's own
// trace::Recorder), and the latency statistics the end-to-end metrics are
// built from.
//
// Host time is read only here and in the workload files — never inside
// ctesim's src/, whose simulation path stays wall-clock free.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace/recorder.h"
#include "util/time.h"

namespace ctebench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Set-up samples taken before a closed loop's first op; one more follows
/// every op, so setup_s sees the whole run's host speed.
inline constexpr int kSetupReps = 100;
/// Host time one set-up sample fills with back-to-back set-ups.
inline constexpr double kSetupSampleSeconds = 0.01;

/// Server shape shared by server_mix and the environment record.
inline constexpr int kServerWorkers = 2;
inline constexpr int kClientConnections = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string spans_path;
};

/// Host picoseconds since the first call: the time axis of ctebench's
/// spans, stored as trace::Recorder's integer-picosecond sim::Time so every
/// recorder in the process shares one axis.
ctesim::sim::Time host_now();

/// RAII span around one call into a layer, on `track` of `rec`. A null
/// recorder records nothing, so the timed runs pay one branch per boundary.
/// `id` (the op or request index) becomes the span's detail.
class Scoped {
 public:
  Scoped(ctesim::trace::Recorder* rec, const char* name, std::size_t id,
         ctesim::trace::Track track = ctesim::trace::Track::global());
  ~Scoped();
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  ctesim::trace::Recorder* rec_;
  ctesim::trace::Track track_;
};

/// Host seconds of every completed span called `name`, in completion order.
std::vector<double> durations(const ctesim::trace::Recorder& rec,
                              std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. `metrics` holds both the end-to-end and
/// the per-layer metrics; run.py selects the set BENCHMARK.json asks for.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< one line per failed check
  std::uint64_t digest = 0;           ///< FNV of the simulated outputs

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) { failures.push_back(std::move(why)); }
};

/// Median of a non-empty sample.
double median(std::vector<double> values);

/// The highest percentile (at most p99) with at least ten samples beyond
/// it; with fewer than 20 samples, the maximum. `*q_out` gets the quantile.
double tail(std::vector<double> values, double* q_out);

/// study_s, latency_p99_ms and slo_ok_share over per-op seconds. An op
/// that failed (ok[i] false) counts as missing the `slo_s` limit.
void add_op_metrics(Result& result, const std::vector<double>& op_s,
                    const std::vector<bool>& ok, double slo_s);

/// What the untimed inspection of one op found.
struct OpOutcome {
  std::uint64_t digest = 0;  ///< of the op's simulated outputs
  bool ok = true;            ///< the op's own checks passed
};

/// Everything a closed loop measured, one entry per op.
struct Loop {
  std::vector<double> seconds;
  std::vector<bool> traced;
  std::vector<bool> ok;
  std::vector<int> input;              ///< op i ran input i % cycle
  std::vector<std::uint64_t> digests;  ///< per input, from its first op
  std::vector<double> setup_s;         ///< set-up samples
  /// The traced ops' spans, one track (global) for the loop's one thread.
  std::unique_ptr<ctesim::trace::Recorder> spans =
      std::make_unique<ctesim::trace::Recorder>(true);
};

/// The closed loop of the study workloads. `setup()` repeats the
/// workload's set-up on throwaway objects and is sampled with
/// setup_sample_seconds() before the loop and after every op. `run(i, rec)`
/// does op i's timed work, with spans in `rec` (null when untraced);
/// `check(i, rec)` then inspects it untimed (digest, checks, layer
/// replays). Op i runs
/// input i % cycle, and an op whose digest differs from the first op of
/// its input fails. Ops run until `args.seconds` have passed and at least
/// two cycles ran; the traced run alternates whole cycles untraced and
/// traced.
Loop closed_loop(
    const Args& args, int cycle, Result& result,
    const std::function<void()>& setup,
    const std::function<void(std::size_t, ctesim::trace::Recorder*)>& run,
    const std::function<OpOutcome(std::size_t, const ctesim::trace::Recorder*)>&
        check);

/// setup_s as the median set-up sample; attempted and failed over every
/// op; study_s, latency_p99_ms and slo_ok_share over the untraced ops;
/// trace.overhead_study_ms in a traced run; the digest over every input.
void finish_loop(const Args& args, const Loop& loop, double slo_s,
                 Result& result);

/// Host seconds of one `setup`, as the mean over back-to-back calls that
/// fill kSetupSampleSeconds, so that clock reads, the allocator and single
/// cold calls do not dominate a sample.
double setup_sample_seconds(const std::function<void()>& setup);

/// Peak resident set size of this process, MB.
double peak_rss_mb();

/// Print "  <label> = <value> <unit>" so every number is named in stdout.
void print_line(const std::string& label, double value,
                const std::string& unit);

// --- workloads -------------------------------------------------------------

Result run_batch_cluster(const Args& args);
Result run_apps(const Args& args);
Result run_server_mix(const Args& args);

}  // namespace ctebench
