// batch_cluster: closed loop, one thread. Each op generates a fresh
// 600-job stream (cluster_throughput's: Poisson, 16 s mean gap, 30 %
// bursts) and runs it through batch::run_cluster on the 192-node CTE-Arm
// model with EASY backfill, contiguous placement and power accounting on,
// then batch::summarize.
//
// The traced run replays each traced op's recorded JobRecords through the
// layers run_cluster reaches only internally (sched, net, the runtime
// model) and reruns the stream without power and with a recorder to price
// those two options.
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/configs.h"
#include "arch/validate.h"
#include "batch/cluster.h"
#include "batch/metrics.h"
#include "batch/runtime.h"
#include "batch/workload.h"
#include "common.h"
#include "power/power_model.h"
#include "sched/allocator.h"
#include "trace/chrome.h"
#include "trace/recorder.h"
#include "util/hash.h"

namespace ctebench {
namespace {

using namespace ctesim;

/// Distinct streams per run; op i runs stream i mod kStreams, so every
/// input repeats within a run and the repeat check has something to do.
constexpr int kStreams = 8;
constexpr int kJobs = 600;
/// Fixed per-op limit behind slo_ok_share (an op takes ~0.5 s today).
constexpr double kSloSeconds = 5.0;

struct Machine {
  arch::MachineModel machine;
  batch::RuntimeModel model;
  power::PowerModel power;
  explicit Machine(const arch::MachineModel& m)
      : machine(m), model(m), power(power::default_power(m)) {}
};

std::unique_ptr<Machine> setup() {
  arch::MachineModel m = arch::cte_arm();
  arch::validate_or_throw(m);
  auto out = std::make_unique<Machine>(m);
  power::validate_or_throw(out->power);
  return out;
}

std::uint64_t stream_seed(std::uint64_t seed, int stream) {
  return hash_combine(hash_combine(kFnvOffsetBasis, seed),
                      static_cast<std::uint64_t>(stream));
}

batch::ClusterOptions options_for(const Machine& m, std::uint64_t seed) {
  batch::ClusterOptions o;
  o.placement = sched::Policy::kContiguous;
  o.queue = batch::QueuePolicy::kEasyBackfill;
  o.seed = seed;
  o.power = &m.power;
  return o;
}

std::uint64_t digest_of(const batch::ClusterResult& r,
                        const batch::ClusterMetrics& m) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%d %d %.17g %.17g %.17g %.17g %.17g %.17g %.17g %llu",
                m.jobs, m.killed, m.makespan_s, m.utilization, m.mean_wait_s,
                m.p99_wait_s, m.mean_bounded_slowdown, m.mean_hops,
                m.energy_to_solution_j,
                static_cast<unsigned long long>(r.engine_events));
  std::uint64_t h = hash64(buf);
  for (const auto& rec : r.records) {
    std::snprintf(buf, sizeof buf, "%d %.17g %.17g", rec.job.id, rec.start_s,
                  rec.end_s);
    h = hash64(buf, h);
    for (int n : rec.alloc_nodes) {
      h = hash_combine(h, static_cast<unsigned>(n));
    }
  }
  return h;
}

struct Replay {
  bool match = true;
  std::string mismatch;
  long long allocate_calls = 0;
  long long allocate_empty = 0;
  double allocate_s = 0.0;
  long long fragmentation_calls = 0;
  double fragmentation_s = 0.0;
  long long hops_calls = 0;
  double hops_s = 0.0;
  double runtime_model_s = 0.0;
};

/// Replay the run's start/end sequence through a fresh allocator. The
/// fragmentation timeline holds one sample per state change, in dispatch
/// order, with the busy-node count after it; each sample's busy delta names
/// the job that started (+nodes) or ended (-nodes) at that instant. Ties
/// between same-sized jobs at one instant go to the lowest id (starts) or
/// the earliest start (ends), the order the engine dispatches them in.
void replay_allocator(const batch::RuntimeModel& model,
                      const batch::ClusterResult& run, Replay* out) {
  std::map<double, std::vector<int>> starts;
  std::map<double, std::vector<int>> ends;
  for (std::size_t i = 0; i < run.records.size(); ++i) {
    starts[run.records[i].start_s].push_back(static_cast<int>(i));
    ends[run.records[i].end_s].push_back(static_cast<int>(i));
  }
  std::vector<char> started(run.records.size(), 0);
  std::vector<char> ended(run.records.size(), 0);
  sched::Allocator alloc(model.topology());
  int busy = 0;
  const auto fail = [&](const std::string& why) {
    if (out->match) out->mismatch = why;
    out->match = false;
  };
  for (const batch::FragSample& s : run.frag_timeline) {
    const int delta = s.busy_nodes - busy;
    busy = s.busy_nodes;
    int pick = -1;
    if (delta > 0) {
      for (int i : starts[s.time_s]) {
        const auto& rec = run.records[static_cast<std::size_t>(i)];
        if (!started[static_cast<std::size_t>(i)] && rec.job.nodes == delta &&
            (pick < 0 || rec.job.id < run.records[static_cast<std::size_t>(
                                                      pick)].job.id)) {
          pick = i;
        }
      }
      if (pick < 0) {
        fail("no recorded start matches a +" + std::to_string(delta) +
             "-node step");
        return;
      }
      const auto& rec = run.records[static_cast<std::size_t>(pick)];
      started[static_cast<std::size_t>(pick)] = 1;
      const auto t0 = Clock::now();
      const auto nodes =
          alloc.allocate(static_cast<std::uint64_t>(rec.job.id),
                         rec.job.nodes, sched::Policy::kContiguous);
      out->allocate_s += seconds_since(t0);
      ++out->allocate_calls;
      if (nodes.empty()) ++out->allocate_empty;
      if (nodes != rec.alloc_nodes) {
        fail("job " + std::to_string(rec.job.id) +
             ": replayed allocation differs from the recorded nodes");
      }
    } else if (delta < 0) {
      for (int i : ends[s.time_s]) {
        const auto& rec = run.records[static_cast<std::size_t>(i)];
        if (started[static_cast<std::size_t>(i)] &&
            !ended[static_cast<std::size_t>(i)] && rec.job.nodes == -delta &&
            (pick < 0 ||
             rec.start_s <
                 run.records[static_cast<std::size_t>(pick)].start_s)) {
          pick = i;
        }
      }
      if (pick < 0) {
        fail("no recorded end matches a " + std::to_string(delta) +
             "-node step");
        return;
      }
      ended[static_cast<std::size_t>(pick)] = 1;
      alloc.release(static_cast<std::uint64_t>(
          run.records[static_cast<std::size_t>(pick)].job.id));
    } else {
      fail("a state change without a busy-node change");
      return;
    }
    const auto t0 = Clock::now();
    const double frag = alloc.fragmentation();
    out->fragmentation_s += seconds_since(t0);
    ++out->fragmentation_calls;
    if (frag != s.fragmentation) {
      fail("replayed fragmentation differs from the recorded timeline");
    }
  }
}

/// TorusTopology::hops over every pair of every recorded allocation, and
/// RuntimeModel::runtime for each job at its recorded mean hops. The hop
/// replay must reproduce each record's mean_hops exactly.
void replay_hops_and_runtime(const batch::RuntimeModel& model,
                             const batch::ClusterResult& run, Replay* out) {
  const net::TorusTopology& topo = model.topology();
  const auto t0 = Clock::now();
  for (const auto& rec : run.records) {
    const auto& n = rec.alloc_nodes;
    double total = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < n.size(); ++i) {
      for (std::size_t j = i + 1; j < n.size(); ++j) {
        total += topo.hops(n[i], n[j]);
        ++pairs;
      }
    }
    out->hops_calls += static_cast<long long>(pairs);
    const double mean = pairs ? total / static_cast<double>(pairs) : 0.0;
    if (mean != rec.mean_hops && out->match) {
      out->match = false;
      out->mismatch = "job " + std::to_string(rec.job.id) +
                      ": replayed hops differ from the recorded mean_hops";
    }
  }
  out->hops_s = seconds_since(t0);
  const auto t1 = Clock::now();
  for (const auto& rec : run.records) {
    if (!(model.runtime(rec.job, rec.mean_hops) > 0.0) && out->match) {
      out->match = false;
      out->mismatch = "job " + std::to_string(rec.job.id) +
                      ": non-positive modeled runtime";
    }
  }
  out->runtime_model_s = seconds_since(t1);
}

}  // namespace

// Why: placement (sched+net) dominates; simmpi idle, its no-change case.
Result run_batch_cluster(const Args& args) {
  Result result;
  const std::unique_ptr<Machine> m = setup();

  batch::WorkloadConfig config;
  config.num_jobs = kJobs;
  config.mean_interarrival_s = 16.0;
  config.burst_fraction = 0.3;

  // The current op's inputs and outputs.
  batch::ClusterOptions options;
  std::vector<batch::Job> jobs;
  batch::ClusterResult run;
  batch::ClusterMetrics metrics;
  // The first untraced run of each stream, for the allocator replay check.
  std::vector<std::optional<batch::ClusterResult>> firsts(kStreams);

  // Per traced op: the layer replays.
  std::vector<double> alloc_us, frag_us, hops_ns, runtime_us, self_share;
  std::vector<double> events_per_s, power_share, recorder_share;
  long long alloc_calls = 0, alloc_empty = 0, frag_calls = 0, hops_calls = 0;
  std::uint64_t events = 0;

  Loop loop = closed_loop(
      args, kStreams, result, [] { setup(); },
      [&](std::size_t i, trace::Recorder* rec) {
        const auto stream = static_cast<int>(i % kStreams);
        options = options_for(*m, stream_seed(args.seed, stream));
        Scoped op(rec, "batch_cluster.op", i);
        {
          Scoped s(rec, "batch.generate", i);
          jobs = batch::generate(config, m->model, options.seed);
        }
        {
          Scoped s(rec, "batch.run_cluster", i);
          run = batch::run_cluster(m->model, jobs, options);
        }
        Scoped s(rec, "batch.summarize", i);
        metrics = batch::summarize(run, m->machine.num_nodes);
      },
      [&](std::size_t i, const trace::Recorder* rec) {
        OpOutcome o{digest_of(run, metrics), metrics.jobs == kJobs};
        if (!o.ok) result.fail("op " + std::to_string(i) + ": job count");
        if (!rec) {
          if (!firsts[i % kStreams]) firsts[i % kStreams] = std::move(run);
          return o;
        }
        Replay rp;
        replay_allocator(m->model, run, &rp);
        replay_hops_and_runtime(m->model, run, &rp);
        if (!rp.match) {
          o.ok = false;
          result.fail("op " + std::to_string(i) + ": layer replay: " +
                      rp.mismatch);
        }
        const double cluster_s = durations(*rec, "batch.run_cluster").back();
        if (events == 0) {  // counts come from the first traced stream
          alloc_calls = rp.allocate_calls;
          alloc_empty = rp.allocate_empty;
          frag_calls = rp.fragmentation_calls;
          hops_calls = rp.hops_calls;
          events = run.engine_events;
        }
        alloc_us.push_back(rp.allocate_s * 1e6);
        frag_us.push_back(rp.fragmentation_s * 1e6);
        hops_ns.push_back(rp.hops_s * 1e9 /
                          static_cast<double>(rp.hops_calls));
        runtime_us.push_back(rp.runtime_model_s * 1e6);
        self_share.push_back(1.0 - (rp.allocate_s + rp.fragmentation_s +
                                    rp.hops_s + rp.runtime_model_s) /
                                       cluster_s);
        events_per_s.push_back(static_cast<double>(run.engine_events) /
                               cluster_s);

        auto no_power = options;
        no_power.power = nullptr;
        const auto t1 = Clock::now();
        batch::run_cluster(m->model, jobs, no_power);
        const double unpowered_s = seconds_since(t1);
        power_share.push_back((cluster_s - unpowered_s) / unpowered_s);

        trace::Recorder recorder(true);
        auto recorded = options;
        recorded.recorder = &recorder;
        const auto t2 = Clock::now();
        batch::run_cluster(m->model, jobs, recorded);
        recorder_share.push_back((seconds_since(t2) - cluster_s) / cluster_s);
        return o;
      });

  // The allocator replay check, once per stream of the untraced ops.
  if (!args.trace) {
    for (int s = 0; s < kStreams; ++s) {
      Replay rp;
      replay_allocator(m->model, *firsts[s], &rp);
      if (rp.match) continue;
      result.fail("stream " + std::to_string(s) +
                  ": allocator replay: " + rp.mismatch);
      for (std::size_t i = 0; i < loop.ok.size(); ++i) {
        if (loop.input[i] == s) loop.ok[i] = false;
      }
    }
  }
  finish_loop(args, loop, kSloSeconds, result);

  if (args.trace) {
    const trace::Recorder& spans = *loop.spans;
    result.add("batch.generate_s", median(durations(spans, "batch.generate")),
               "s");
    result.add("batch.run_cluster_s",
               median(durations(spans, "batch.run_cluster")), "s");
    result.add("batch.summarize_s",
               median(durations(spans, "batch.summarize")), "s");
    result.add("sched.allocate_calls", static_cast<double>(alloc_calls),
               "count");
    result.add("sched.allocate_us", median(alloc_us), "us");
    result.add("sched.allocate_empty_share",
               static_cast<double>(alloc_empty) /
                   static_cast<double>(alloc_calls),
               "share");
    result.add("sched.fragmentation_calls", static_cast<double>(frag_calls),
               "count");
    result.add("sched.fragmentation_us", median(frag_us), "us");
    result.add("net.hops_calls", static_cast<double>(hops_calls), "count");
    result.add("net.hops_ns", median(hops_ns), "ns");
    result.add("batch.runtime_model_us", median(runtime_us), "us");
    result.add("batch.self_share", median(self_share), "share");
    result.add("core.events", static_cast<double>(events), "count");
    result.add("core.events_per_s", median(events_per_s), "1/s");
    result.add("power.overhead_share", median(power_share), "share");
    result.add("trace.recorder_overhead_share", median(recorder_share),
               "share");
    if (!args.spans_path.empty()) {
      trace::write_chrome_trace(spans, args.spans_path);
    }
  }
  return result;
}

}  // namespace ctebench
