#include "server/protocol.h"

#include <cmath>
#include <sstream>

#include "power/power_model.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/time.h"

namespace ctesim::server {

namespace {

[[noreturn]] void bad(const std::string& what) { throw ProtocolError(what); }

double require_number(const json::Value& v, const std::string& field) {
  if (v.type != json::Value::Type::kNumber) {
    bad("field '" + field + "' must be a number");
  }
  return v.number;
}

std::string require_string(const json::Value& v, const std::string& field) {
  if (v.type != json::Value::Type::kString) {
    bad("field '" + field + "' must be a string");
  }
  return v.string;
}

int require_int(const json::Value& v, const std::string& field, int lo,
                int hi) {
  const double d = require_number(v, field);
  if (d != std::floor(d) || d < lo || d > hi) {
    bad("field '" + field + "' must be an integer in [" +
        std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return static_cast<int>(d);
}

double require_range(const json::Value& v, const std::string& field,
                     double lo, double hi) {
  const double d = require_number(v, field);
  if (!(d >= lo && d <= hi)) {
    bad("field '" + field + "' out of range");
  }
  return d;
}

/// Share of the simulated clock's range (int64 picoseconds, 2^63 ps or
/// about 106.75 days) that a workload's expected span may fill. The span
/// is the mean arrival span plus the longest wall time one job can ask
/// for, jobs x mean_interarrival_s + max_runtime_s x walltime_pad_max.
/// The rest of the range absorbs exponential arrival tails and queueing:
/// the sum of n exponential gaps passes 4x its mean with probability
/// e^-4 (1.8%) at n = 1 and far less for more jobs. A run that still
/// passes the end of the clock gets sim::from_seconds' error reply.
constexpr double kClockShare = 0.25;
constexpr double kClockRangeS = 0x1p63 / static_cast<double>(sim::kSecond);

}  // namespace

double workload_span_limit_s() { return kClockShare * kClockRangeS; }

Request parse_request(const std::string& line) {
  json::Value doc;
  try {
    doc = json::parse(line);
  } catch (const std::runtime_error& e) {
    bad(e.what());
  }
  if (!doc.is_object()) bad("request must be a JSON object");

  const json::Value* op = doc.find("op");
  if (!op) bad("missing field 'op'");
  const std::string op_name = require_string(*op, "op");

  Request request;
  if (op_name == "ping") {
    request.op = Op::kPing;
  } else if (op_name == "stats") {
    request.op = Op::kStats;
  } else if (op_name == "simulate") {
    request.op = Op::kSimulate;
  } else {
    bad("unknown op '" + op_name + "'");
  }

  if (request.op != Op::kSimulate) {
    for (const auto& [key, value] : doc.object) {
      if (key != "op") bad("unknown field '" + key + "' for op " + op_name);
    }
    return request;
  }

  SimulateSpec& spec = request.sim;
  batch::WorkloadConfig& w = spec.workload;
  bool sampling_knob_given = false;  // any sampling_* sub-knob
  for (const auto& [key, value] : doc.object) {
    if (key == "op") {
      continue;
    } else if (key == "machine") {
      spec.machine = require_string(value, key);
    } else if (key == "machine_ini") {
      spec.machine_ini = require_string(value, key);
    } else if (key == "jobs") {
      w.num_jobs = require_int(value, key, 1, 1000000);
    } else if (key == "mean_interarrival_s") {
      w.mean_interarrival_s = require_range(value, key, 1e-6, 1e9);
    } else if (key == "burst_fraction") {
      w.burst_fraction = require_range(value, key, 0.0, 1.0);
    } else if (key == "min_nodes") {
      w.min_nodes = require_int(value, key, 1, 1 << 20);
    } else if (key == "max_nodes") {
      w.max_nodes = require_int(value, key, 1, 1 << 20);
    } else if (key == "min_runtime_s") {
      w.min_runtime_s = require_range(value, key, 1e-3, 1e9);
    } else if (key == "max_runtime_s") {
      w.max_runtime_s = require_range(value, key, 1e-3, 1e9);
    } else if (key == "walltime_pad_min") {
      w.walltime_pad_min = require_range(value, key, 1.0, 100.0);
    } else if (key == "walltime_pad_max") {
      w.walltime_pad_max = require_range(value, key, 1.0, 100.0);
    } else if (key == "queue") {
      const std::string name = require_string(value, key);
      if (name == "easy") {
        spec.queue = batch::QueuePolicy::kEasyBackfill;
      } else if (name == "fcfs") {
        spec.queue = batch::QueuePolicy::kFcfs;
      } else {
        bad("field 'queue' must be easy or fcfs");
      }
    } else if (key == "placement") {
      const std::string name = require_string(value, key);
      if (name == "contiguous") {
        spec.placement = sched::Policy::kContiguous;
      } else if (name == "linear") {
        spec.placement = sched::Policy::kLinear;
      } else if (name == "random") {
        spec.placement = sched::Policy::kRandom;
      } else {
        bad("field 'placement' must be contiguous, linear or random");
      }
    } else if (key == "seed") {
      // Doubles carry integers exactly to 2^53; enough seed space, and it
      // keeps the wire format plain JSON numbers.
      const double d = require_number(value, key);
      if (d != std::floor(d) || d < 0 || d > 9007199254740992.0) {
        bad("field 'seed' must be a non-negative integer <= 2^53");
      }
      spec.seed = static_cast<std::uint64_t>(d);
    } else if (key == "deadline_ms") {
      spec.deadline_ms = require_range(value, key, 0.0, 1e9);
    } else if (key == "dvfs_state") {
      const int last =
          static_cast<int>(power::dvfs_states().size()) - 1;
      spec.dvfs_state = require_int(value, key, 0, last);
    } else if (key == "power_cap_w") {
      spec.power_cap_w = require_range(value, key, 0.0, 1e12);
    } else if (key == "dvfs_backfill") {
      if (value.type != json::Value::Type::kBool) {
        bad("field 'dvfs_backfill' must be a boolean");
      }
      spec.dvfs_backfill = value.boolean;
    } else if (key == "sampling") {
      const std::string name = require_string(value, key);
      if (name == "exact") {
        spec.sampling.mode = sampling::Mode::kExact;
      } else if (name == "sampled") {
        spec.sampling.mode = sampling::Mode::kSampled;
      } else {
        bad("field 'sampling' must be exact or sampled");
      }
    } else if (key == "sampling_k") {
      spec.sampling.k = require_int(value, key, 1, 4096);
      sampling_knob_given = true;
    } else if (key == "sampling_warmup") {
      spec.sampling.warmup =
          static_cast<long long>(require_int(value, key, 0, 64));
      sampling_knob_given = true;
    } else if (key == "sampling_phases") {
      spec.sampling.max_phases =
          static_cast<std::size_t>(require_int(value, key, 1, 64));
      sampling_knob_given = true;
    } else if (key == "sampling_seed") {
      const double d = require_number(value, key);
      if (d != std::floor(d) || d < 0 || d > 9007199254740992.0) {
        bad("field 'sampling_seed' must be a non-negative integer <= 2^53");
      }
      spec.sampling.seed = static_cast<std::uint64_t>(d);
      sampling_knob_given = true;
    } else {
      bad("unknown field '" + key + "'");
    }
  }
  if (w.max_nodes < w.min_nodes) {
    bad("max_nodes must be >= min_nodes");
  }
  if (w.max_runtime_s < w.min_runtime_s) {
    bad("max_runtime_s must be >= min_runtime_s");
  }
  if (w.walltime_pad_max < w.walltime_pad_min) {
    bad("walltime_pad_max must be >= walltime_pad_min");
  }
  const double span_s = static_cast<double>(w.num_jobs) *
                            w.mean_interarrival_s +
                        w.max_runtime_s * w.walltime_pad_max;
  if (span_s > workload_span_limit_s()) {
    std::ostringstream os;
    os << "jobs x mean_interarrival_s + max_runtime_s x walltime_pad_max = "
       << span_s << " s exceeds " << workload_span_limit_s()
       << " s (" << kClockShare << " of the simulated clock's range)";
    bad(os.str());
  }
  if (!spec.machine_ini.empty() && doc.find("machine")) {
    bad("give either 'machine' or 'machine_ini', not both");
  }
  if (sampling_knob_given && spec.sampling.mode != sampling::Mode::kSampled) {
    bad("sampling_* knobs require \"sampling\":\"sampled\"");
  }
  return request;
}

std::string canonical_workload(const SimulateSpec& spec) {
  const batch::WorkloadConfig& w = spec.workload;
  std::ostringstream os;
  os << "jobs=" << w.num_jobs
     << ";mean_interarrival_s=" << json::number(w.mean_interarrival_s)
     << ";burst_fraction=" << json::number(w.burst_fraction)
     << ";min_nodes=" << w.min_nodes << ";max_nodes=" << w.max_nodes
     << ";min_runtime_s=" << json::number(w.min_runtime_s)
     << ";max_runtime_s=" << json::number(w.max_runtime_s)
     << ";walltime_pad_min=" << json::number(w.walltime_pad_min)
     << ";walltime_pad_max=" << json::number(w.walltime_pad_max)
     << ";queue=" << batch::name_of(spec.queue)
     << ";placement=" << sched::name_of(spec.placement)
     << ";dvfs_state=" << spec.dvfs_state
     << ";power_cap_w=" << json::number(spec.power_cap_w)
     << ";dvfs_backfill=" << (spec.dvfs_backfill ? 1 : 0);
  // Appended only for sampled requests: exact keys keep their pre-sampling
  // spelling (cached replies survive the upgrade), and a sampled request
  // can never hash onto an exact one's cache slot.
  if (spec.sampling.mode != sampling::Mode::kExact) {
    os << ";sampling=" << sampling::name_of(spec.sampling.mode)
       << ";sampling_k=" << spec.sampling.k
       << ";sampling_warmup=" << spec.sampling.warmup
       << ";sampling_phases=" << spec.sampling.max_phases
       << ";sampling_seed=" << spec.sampling.seed;
  }
  return os.str();
}

std::string ping_reply() { return R"({"op":"ping","status":"ok"})"; }

std::string error_reply(const std::string& code,
                        const std::string& message) {
  return std::string(R"({"op":"error","status":"error","code":")") +
         json::escape(code) + R"(","message":")" + json::escape(message) +
         "\"}";
}

std::string simulate_reply(std::uint64_t config_hash,
                           std::uint64_t workload_hash, std::uint64_t seed,
                           const batch::ClusterMetrics& m,
                           std::uint64_t engine_events,
                           const SamplingSummary* sampling) {
  std::ostringstream os;
  os << R"({"op":"simulate","status":"ok","config_hash":")"
     << hash_hex(config_hash) << R"(","workload_hash":")"
     << hash_hex(workload_hash) << R"(","seed":)" << seed
     << R"(,"engine_events":)" << engine_events << R"(,"metrics":{)"
     << R"("jobs":)" << m.jobs << R"(,"killed":)" << m.killed
     << R"(,"interrupted":)" << m.interrupted << R"(,"failed":)" << m.failed
     << R"(,"makespan_s":)" << json::number(m.makespan_s)
     << R"(,"utilization":)" << json::number(m.utilization)
     << R"(,"goodput":)" << json::number(m.goodput)
     << R"(,"availability":)" << json::number(m.availability)
     << R"(,"wasted_node_h":)" << json::number(m.wasted_node_h)
     << R"(,"mean_attempts":)" << json::number(m.mean_attempts)
     << R"(,"mean_wait_s":)" << json::number(m.mean_wait_s)
     << R"(,"p95_wait_s":)" << json::number(m.p95_wait_s)
     << R"(,"p99_wait_s":)" << json::number(m.p99_wait_s)
     << R"(,"mean_bounded_slowdown":)" << json::number(m.mean_bounded_slowdown)
     << R"(,"p95_bounded_slowdown":)" << json::number(m.p95_bounded_slowdown)
     << R"(,"p99_bounded_slowdown":)" << json::number(m.p99_bounded_slowdown)
     << R"(,"mean_hops":)" << json::number(m.mean_hops)
     << R"(,"mean_placement_slowdown":)"
     << json::number(m.mean_placement_slowdown)
     << R"(,"time_avg_fragmentation":)"
     << json::number(m.time_avg_fragmentation)
     << R"(,"energy_to_solution_j":)" << json::number(m.energy_to_solution_j)
     << R"(,"edp_js":)" << json::number(m.edp_js)
     << R"(,"mean_power_w":)" << json::number(m.mean_power_w)
     << R"(,"peak_power_w":)" << json::number(m.peak_power_w)
     << R"(,"wasted_energy_j":)" << json::number(m.wasted_energy_j)
     << R"(,"capped_starts":)" << m.capped_starts
     << R"(,"downclocked_jobs":)" << m.downclocked_jobs << "}";
  if (sampling) {
    const double speedup =
        sampling->steps_simulated > 0
            ? static_cast<double>(sampling->steps_total) /
                  static_cast<double>(sampling->steps_simulated)
            : 1.0;
    os << R"(,"sampling":{"total_node_s":)"
       << json::number(sampling->total_node_s) << R"(,"ci_half_node_s":)"
       << json::number(sampling->ci_half_node_s) << R"(,"steps_total":)"
       << sampling->steps_total << R"(,"steps_simulated":)"
       << sampling->steps_simulated << R"(,"speedup":)"
       << json::number(speedup) << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace ctesim::server
