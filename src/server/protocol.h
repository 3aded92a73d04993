// Wire protocol of ctesim-as-a-service: one JSON object per line in both
// directions (newline-delimited, UTF-8). Three operations:
//
//   {"op":"ping"}                      -> {"op":"ping","status":"ok"}
//   {"op":"stats"}                     -> live server introspection
//   {"op":"simulate", ...}             -> run (or replay from cache) a
//                                         capacity-planning what-if study
//
// A simulate request names a machine (a built-in model or an inline INI
// description, see arch/machine_io.h), a synthetic workload (the
// batch::WorkloadConfig knobs), the queue/placement policies and a seed.
// Unknown fields are an error — silent typos must not change a study.
//
// Replies are deterministic: an identical resolved request serializes to
// identical bytes on every platform (fixed field order, fixed float
// formatting), which is what makes exact result caching possible. Errors
// are typed: {"op":"error","status":"error","code":<code>,"message":...}
// with code one of bad_request | oversized | overloaded | timeout |
// shutting_down | internal.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "batch/metrics.h"
#include "batch/queue.h"
#include "batch/workload.h"
#include "sampling/plan.h"
#include "sched/allocator.h"

namespace ctesim::server {

enum class Op {
  kPing,
  kStats,
  kSimulate,
};

/// A fully-parsed simulate request, defaults filled in.
struct SimulateSpec {
  /// Built-in machine name ("cte-arm", "marenostrum4"); ignored when
  /// `machine_ini` is set.
  std::string machine = "cte-arm";
  /// Inline INI machine description (arch::parse_machine_string).
  std::string machine_ini;
  batch::WorkloadConfig workload;
  batch::QueuePolicy queue = batch::QueuePolicy::kEasyBackfill;
  sched::Policy placement = sched::Policy::kContiguous;
  std::uint64_t seed = 1;
  /// Queue-wait deadline in real milliseconds; 0 = the server default. A
  /// request still waiting for a worker past its deadline is answered with
  /// a typed "timeout" error instead of running late.
  double deadline_ms = 0.0;
  /// DVFS ladder index every job runs at (power::dvfs_states(); 0 =
  /// nominal). Downclocked states stretch compute-bound runtimes and cut
  /// active power — the what-if knob energy studies sweep.
  int dvfs_state = 0;
  /// Cluster power cap in watts, 0 = uncapped (batch::ClusterOptions).
  double power_cap_w = 0.0;
  /// Let capped backfill candidates start at a deeper DVFS state.
  bool dvfs_backfill = false;
  /// Representative-region sampling of the per-job runtime estimates
  /// ("sampling":"sampled" plus the sampling_k / sampling_warmup /
  /// sampling_phases / sampling_seed knobs). Exact (the default) leaves the
  /// request — and its cache key and reply — exactly as before the knob
  /// existed; sampled requests carry the plan in the cache key, so a
  /// sampled reply can never be served where an exact one was asked for.
  sampling::SamplingPlan sampling;
};

struct Request {
  Op op = Op::kPing;
  SimulateSpec sim;  ///< meaningful when op == kSimulate
};

/// Malformed or invalid request text; maps to a "bad_request" reply.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Largest expected span, in simulated seconds, of a simulate request's
/// workload: jobs x mean_interarrival_s + max_runtime_s x walltime_pad_max
/// beyond it is a bad request (a fixed share of the int64-picosecond
/// clock's range; see protocol.cpp).
double workload_span_limit_s();

/// Parse and validate one request line. Throws ProtocolError on anything
/// other than a well-formed request: bad JSON, a non-object document, an
/// unknown op, unknown or wrongly-typed fields, out-of-range values.
Request parse_request(const std::string& line);

/// Canonical serialization of the workload half of the cache key: every
/// resolved field of (workload, queue, placement) in fixed order with fixed
/// formatting. The seed is deliberately NOT part of it — the cache key
/// keeps it as its own component.
std::string canonical_workload(const SimulateSpec& spec);

// --- reply builders (single line, no trailing newline) ---------------------

std::string ping_reply();
std::string error_reply(const std::string& code, const std::string& message);

/// Aggregate of the per-job sampled-runtime estimates a sampled request
/// adds to its reply ("sampling":{...} with CI fields). Jobs are
/// independent, so the CI half-widths combine in quadrature.
struct SamplingSummary {
  double total_node_s = 0.0;    ///< sum over jobs of runtime x nodes
  double ci_half_node_s = 0.0;  ///< 95% half-width of total_node_s
  std::uint64_t steps_total = 0;
  std::uint64_t steps_simulated = 0;
};

/// The simulate reply: echoes the cache-key triple, then the cluster
/// metrics and the engine event count of the run. Byte-deterministic.
/// `sampling` adds the CI block of a sampled request; null (every exact
/// request) keeps the reply byte-identical to pre-sampling servers.
std::string simulate_reply(std::uint64_t config_hash,
                           std::uint64_t workload_hash, std::uint64_t seed,
                           const batch::ClusterMetrics& metrics,
                           std::uint64_t engine_events,
                           const SamplingSummary* sampling = nullptr);

}  // namespace ctesim::server
