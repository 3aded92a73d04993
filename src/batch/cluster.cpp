#include "batch/cluster.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "fault/validate.h"
#include "io/filesystem.h"
#include "power/attribution.h"
#include "trace/recorder.h"
#include "util/check.h"
#include "util/log.h"
#include "util/time.h"

namespace ctesim::batch {

namespace {

/// Mix the run seed with the job id so the random placement policy draws an
/// independent, order-free stream per job (splitmix-style finalizer).
/// Retries fold the attempt number in, so a requeued job redraws its nodes.
std::uint64_t placement_seed(std::uint64_t seed, int job_id, int attempt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL *
                               (static_cast<std::uint64_t>(job_id) + 1);
  z ^= 0x94d049bb133111ebULL * static_cast<std::uint64_t>(attempt);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Per-job state that survives across attempts (requeues).
struct JobState {
  int attempts_started = 0;
  int interruptions = 0;
  double done_fraction = 0.0;  ///< checkpoint-preserved share of the work
  double first_start_s = 0.0;
  bool ever_started = false;
  double busy_node_s = 0.0;
  double useful_node_s = 0.0;
  double wasted_node_s = 0.0;
  double energy_j = 0.0;         ///< all attempts (power layer on)
  double wasted_energy_j = 0.0;  ///< killed / unpreserved share of energy_j
};

/// One attempt of one job, currently holding nodes.
struct Attempt {
  Job job;
  std::vector<int> nodes;  ///< sorted by the allocator
  double mean_hops = 0.0;
  double placement_slowdown = 1.0;
  double start_s = 0.0;
  double full_runtime_s = 0.0;  ///< whole-job work on this placement
  double work_s = 0.0;          ///< pure work this attempt must complete
  double eff_required_s = 0.0;  ///< restart + work + checkpoint writes
  double eff_done_s = 0.0;      ///< progress on the attempt-duration clock
  double last_update_s = 0.0;   ///< sim time of the last progress accrual
  double rate = 1.0;  ///< progress per wall second (degradation slows it)
  bool restarting = false;
  fault::CheckpointCost ckpt;
  std::uint64_t epoch = 0;  ///< invalidates stale completion events
  /// Per-node power draw, constant for the attempt (power layer on).
  /// Degradation stretches the attempt in time but not in watts, so the
  /// cluster draw never rises after a start — the allocation-time cap
  /// check is sufficient on a fault-free machine.
  power::JobDraw draw;
  double freq_scale = 1.0;  ///< DVFS point this attempt runs at
};

}  // namespace

ClusterResult run_cluster(const RuntimeModel& model,
                          const std::vector<Job>& jobs,
                          const ClusterOptions& options) {
  const int total_nodes = model.machine().num_nodes;
  for (const Job& job : jobs) {
    CTESIM_EXPECTS(job.nodes >= 1 && job.nodes <= total_nodes);
    CTESIM_EXPECTS(job.arrival_s >= 0.0 && job.walltime_s > 0.0);
  }
  CTESIM_EXPECTS(options.max_retries >= 0);
  CTESIM_EXPECTS(options.requeue_backoff_s >= 0.0);
  fault::validate_or_throw(options.checkpoint);
  if (options.faults) options.faults->validate_or_throw(total_nodes);
  if (options.power) power::validate_or_throw(*options.power);
  CTESIM_EXPECTS(options.dvfs.freq_scale > 0.0 &&
                 options.dvfs.freq_scale <= 1.0);
  CTESIM_EXPECTS(options.power_cap_w >= 0.0);
  // A cap (and cap-driven downclocking) is meaningless without coefficients.
  CTESIM_EXPECTS(options.power_cap_w <= 0.0 || options.power != nullptr);
  CTESIM_EXPECTS(!options.dvfs_backfill || options.power != nullptr);

  sim::Engine engine;
  sched::Allocator allocator(model.topology());
  JobQueue queue(options.queue, total_nodes);
  const io::FilesystemModel fs = io::production_filesystem(model.machine());

  std::map<int, Attempt> running;        // job id -> live attempt
  std::map<int, JobState> job_states;    // job id -> cross-attempt state
  std::map<int, std::vector<double>> active_degradations;  // node -> factors
  std::set<int> down_nodes;
  std::uint64_t next_epoch = 0;
  double total_wasted_node_s = 0.0;
  int total_interruptions = 0;
  ClusterResult result;
  result.records.reserve(jobs.size());

  trace::Recorder* rec = options.recorder;
  const bool tracing = rec && rec->enabled();
  if (tracing) engine.set_recorder(rec);

  const auto now_s = [&] { return sim::to_seconds(engine.now()); };

  // --- energy accounting ----------------------------------------------
  // The cluster draw is piecewise constant between events: running
  // attempts each contribute a constant per-node draw, every in-service
  // unallocated node draws the idle floor, drained nodes draw nothing.
  // advance_energy() integrates the standing draw up to `now` and must run
  // before any power-affecting state change (start, end, fail, repair);
  // repeated calls at one timestamp are no-ops.
  const power::PowerModel* pm = options.power;
  const bool powered = pm != nullptr;
  const double idle_node_w =
      powered ? pm->node_idle(model.machine().node).value() : 0.0;
  double cluster_cpu_w = 0.0;
  double cluster_mem_w = 0.0;
  double cluster_net_w = 0.0;
  double last_power_t = 0.0;
  EnergyTotals energy;

  const auto cluster_draw_w = [&] {
    return cluster_cpu_w + cluster_mem_w + cluster_net_w +
           allocator.free_nodes() * idle_node_w;
  };

  const auto advance_energy = [&] {
    if (!powered) return;
    const double t = now_s();
    const double dt = t - last_power_t;
    if (dt > 0.0) {
      energy.cpu_j += cluster_cpu_w * dt;
      energy.mem_j += cluster_mem_w * dt;
      energy.net_j += cluster_net_w * dt;
      energy.idle_j += allocator.free_nodes() * idle_node_w * dt;
    }
    last_power_t = t;
  };

  const auto add_draw = [&](const Attempt& a) {
    if (!powered) return;
    cluster_cpu_w += a.job.nodes * a.draw.cpu_w.value();
    cluster_mem_w += a.job.nodes * a.draw.mem_w.value();
    cluster_net_w += a.job.nodes * a.draw.net_w.value();
  };

  const auto remove_draw = [&](const Attempt& a) {
    if (!powered) return;
    cluster_cpu_w -= a.job.nodes * a.draw.cpu_w.value();
    cluster_mem_w -= a.job.nodes * a.draw.mem_w.value();
    cluster_net_w -= a.job.nodes * a.draw.net_w.value();
  };

  const auto sample = [&] {
    const int busy = total_nodes - allocator.free_nodes() -
                     allocator.drained_count();
    const double power_w = powered ? cluster_draw_w() : 0.0;
    if (powered) energy.peak_w = std::max(energy.peak_w, power_w);
    // One component BFS per sample: the timeline and the counter share it.
    const double fragmentation = allocator.fragmentation();
    result.frag_timeline.push_back({now_s(), fragmentation, busy,
                                    allocator.drained_count(), power_w});
    if (tracing) {
      const auto track = trace::Track::global();
      const sim::Time now = engine.now();
      rec->counter(track, "batch", "queue_depth", now,
                   static_cast<double>(queue.size()));
      rec->counter(track, "batch", "busy_nodes", now,
                   static_cast<double>(busy));
      rec->counter(track, "batch", "utilization", now,
                   static_cast<double>(busy) / total_nodes);
      rec->counter(track, "batch", "fragmentation", now, fragmentation);
      rec->counter(track, "batch", "running_jobs", now,
                   static_cast<double>(running.size()));
      rec->counter(track, "fault", "down_nodes", now,
                   static_cast<double>(down_nodes.size()));
      rec->counter(track, "fault", "wasted_work", now, total_wasted_node_s);
      rec->counter(track, "fault", "interrupted_jobs", now,
                   static_cast<double>(total_interruptions));
      if (powered) {
        rec->counter(track, "power", "cluster_watts", now, power_w);
        rec->counter(track, "power", "energy_j", now,
                     energy.cpu_j + energy.mem_j + energy.net_j +
                         energy.idle_j);
        rec->counter(track, "power", "capped_jobs", now,
                     static_cast<double>(energy.capped_starts));
      }
    }
  };

  /// Combined receive-degradation factor over an allocation (1 = healthy).
  const auto combined_factor = [&](const std::vector<int>& nodes) {
    double factor = 1.0;
    for (const int n : nodes) {
      const auto it = active_degradations.find(n);
      if (it == active_degradations.end()) continue;
      for (const double f : it->second) factor *= f;
    }
    return factor;
  };

  /// Progress rate of an attempt: degradation inflates the communication
  /// share of the runtime, exactly like placement scatter does.
  const auto rate_for = [&](const Attempt& a) {
    const double f = combined_factor(a.nodes);
    if (f >= 1.0) return 1.0;
    const double cf = a.job.profile.comm_fraction;
    return 1.0 / (1.0 + cf * (1.0 / f - 1.0));
  };

  const auto accrue = [&](Attempt& a) {
    const double t = now_s();
    a.eff_done_s =
        std::min(a.eff_required_s, a.eff_done_s + a.rate * (t - a.last_update_s));
    a.last_update_s = t;
  };

  const auto finalize = [&](const Attempt& a, EndReason reason,
                            double end_s) {
    const JobState& st = job_states[a.job.id];
    JobRecord record;
    record.job = a.job;
    record.start_s = a.start_s;
    record.end_s = end_s;
    record.alloc_nodes = a.nodes;
    record.mean_hops = a.mean_hops;
    record.placement_slowdown = a.placement_slowdown;
    record.end_reason = reason;
    record.attempts = st.attempts_started;
    record.interruptions = st.interruptions;
    record.first_start_s = st.first_start_s;
    record.busy_node_s = st.busy_node_s;
    record.useful_node_s = st.useful_node_s;
    record.wasted_node_s = st.wasted_node_s;
    record.energy_j = st.energy_j;
    record.wasted_energy_j = st.wasted_energy_j;
    record.dvfs_freq_scale = a.freq_scale;
    result.records.push_back(record);
  };

  std::function<void()> try_start;

  /// Schedule (or re-schedule after a rate change) the end of an attempt:
  /// completion when the remaining progress fits the wall-time budget, a
  /// wall-time kill otherwise. Stale events are voided by the epoch.
  const auto schedule_attempt_end = [&](Attempt& a) {
    a.epoch = ++next_epoch;
    const double t = now_s();
    const double remaining = (a.eff_required_s - a.eff_done_s) / a.rate;
    // (start - t) + walltime, not (start + walltime) - t: at t == start the
    // former is exactly the wall-time request, bit-for-bit.
    const double until_kill = (a.start_s - t) + a.job.walltime_s;
    const bool killed = remaining > until_kill;
    engine.schedule_in(
        sim::from_seconds(std::max(0.0, killed ? until_kill : remaining)),
        [&, id = a.job.id, epoch = a.epoch, killed] {
          const auto it = running.find(id);
          if (it == running.end() || it->second.epoch != epoch) return;
          Attempt& att = it->second;
          advance_energy();
          accrue(att);
          JobState& st = job_states[id];
          const double end = now_s();
          const double elapsed = end - att.start_s;
          st.busy_node_s += elapsed * att.job.nodes;
          if (powered) {
            const double attempt_j =
                att.job.nodes * att.draw.total().value() * elapsed;
            st.energy_j += attempt_j;
            if (killed) {
              st.wasted_energy_j += attempt_j;
              energy.wasted_j += attempt_j;
            }
          }
          if (killed) {
            st.wasted_node_s += elapsed * att.job.nodes;
            total_wasted_node_s += elapsed * att.job.nodes;
            CTESIM_WARN << "batch: job " << id << " wall-time killed at "
                        << att.job.walltime_s << " s (needed "
                        << att.eff_required_s << " s, overran its request by "
                        << 100.0 * (att.eff_required_s / att.job.walltime_s -
                                    1.0)
                        << "%)";
          } else {
            st.useful_node_s += att.work_s * att.job.nodes;
          }
          if (tracing) {
            const auto track = trace::Track::job(id);
            rec->end(track, engine.now());  // closes the "run" span
            rec->instant(track, "batch", killed ? "killed" : "finish", "",
                         engine.now());
          }
          finalize(att, killed ? EndReason::kWalltimeKilled
                               : EndReason::kCompleted,
                   end);
          remove_draw(att);
          allocator.release(static_cast<std::uint64_t>(id));
          running.erase(it);
          sample();
          try_start();
        });
  };

  /// Would starting `job` at DVFS state `s` keep the cluster under the
  /// power cap? Estimated with the compact reference runtime — placement
  /// scatter only stretches the actual runtime, which can only *lower* the
  /// traffic-rate (memory) draw, so the estimate is an upper bound and the
  /// cap holds for whatever allocation the job ends up with.
  const auto fits_cap = [&](const Job& job, const power::DvfsState& s) {
    const double est_runtime =
        model.reference_runtime(job, s.freq_scale);
    const power::JobDraw d = power::job_draw(
        model.machine().node, *pm, s, model.traffic_bytes_per_node(job),
        est_runtime, job.profile.comm_fraction);
    // The job's nodes stop drawing the idle floor when they go busy.
    const double delta_w = job.nodes * (d.total().value() - idle_node_w);
    return cluster_draw_w() + delta_w <= options.power_cap_w;
  };

  // The EASY planner's view of the running jobs, rebuilt on every pass of
  // try_start; kept here so its storage is reused.
  std::vector<Reservation> reservations;
  try_start = [&] {
    advance_energy();
    while (true) {
      const double t = now_s();
      reservations.clear();
      for (const auto& [id, a] : running) {
        reservations.push_back({id, a.start_s + a.job.walltime_s,
                                a.job.nodes});
      }
      const int pos =
          queue.next_startable(t, allocator.free_nodes(), reservations);
      if (pos < 0) break;

      // Power-aware gate: the queue said the job fits the *nodes*; check it
      // also fits the *watts* before committing the allocation. An empty
      // machine is exempt — a head job that alone exceeds the cap must
      // still run eventually or the queue deadlocks.
      power::DvfsState dstate = options.dvfs;
      bool downclocked = false;
      if (powered && options.power_cap_w > 0.0 &&
          !(running.empty() && pos == 0)) {
        const Job& candidate = queue.at(pos);
        if (!fits_cap(candidate, dstate)) {
          bool rescued = false;
          if (options.dvfs_backfill) {
            // Energy-aware backfill: walk the ladder below the configured
            // point and take the first (shallowest) state that fits —
            // deeper states draw strictly less, so the walk is monotone.
            for (const power::DvfsState& s : power::dvfs_states()) {
              if (s.freq_scale >= dstate.freq_scale) continue;
              if (fits_cap(candidate, s)) {
                dstate = s;
                rescued = true;
                downclocked = true;
                break;
              }
            }
          }
          if (!rescued) {
            // Deferred, not rejected: re-evaluated when the next completion
            // or repair frees watts.
            ++energy.capped_starts;
            break;
          }
        }
      }

      const Job job = queue.pop(pos);
      JobState& st = job_states[job.id];
      const auto nodes = allocator.allocate(
          static_cast<std::uint64_t>(job.id), job.nodes, options.placement,
          placement_seed(options.seed, job.id, st.attempts_started));
      CTESIM_ENSURES(static_cast<int>(nodes.size()) == job.nodes);

      Attempt a;
      a.job = job;
      a.nodes = nodes;
      a.start_s = t;
      a.last_update_s = t;
      a.mean_hops = allocator.mean_pairwise_hops(nodes);
      a.placement_slowdown = model.slowdown(job, a.mean_hops);
      a.freq_scale = dstate.freq_scale;
      a.full_runtime_s = model.runtime(job, a.mean_hops, dstate.freq_scale);
      a.work_s = (1.0 - st.done_fraction) * a.full_runtime_s;
      a.ckpt = fault::resolve(options.checkpoint, fs, job.nodes);
      a.restarting = st.attempts_started > 0;
      a.eff_required_s =
          fault::attempt_duration(a.work_s, a.ckpt, a.restarting);
      a.rate = rate_for(a);
      if (powered) {
        a.draw = power::job_draw(
            model.machine().node, *pm, dstate,
            model.traffic_bytes_per_node(job), a.full_runtime_s,
            job.profile.comm_fraction);
        add_draw(a);
        if (downclocked) ++energy.downclocked_jobs;
      }
      if (!st.ever_started) {
        st.ever_started = true;
        st.first_start_s = t;
      }
      ++st.attempts_started;

      if (tracing) {
        const auto track = trace::Track::job(job.id);
        rec->end(track, engine.now());  // closes the "queued" span
        rec->begin(track, "batch", "run",
                   std::string(job.profile.name) + " " +
                       std::to_string(job.nodes) + " nodes" +
                       (a.restarting ? " (retry)" : ""),
                   engine.now());
      }
      Attempt& placed = running.emplace(job.id, std::move(a)).first->second;
      schedule_attempt_end(placed);
      sample();
    }
  };

  /// A node died: interrupt its job (restart from the last checkpoint,
  /// requeue within the retry budget) and drain the node from service.
  const auto handle_node_fail = [&](int node) {
    advance_energy();
    const double t = now_s();
    int victim = -1;
    for (const auto& [id, a] : running) {
      if (std::binary_search(a.nodes.begin(), a.nodes.end(), node)) {
        victim = id;
        break;
      }
    }
    if (victim >= 0) {
      Attempt& a = running.find(victim)->second;
      accrue(a);
      JobState& st = job_states[victim];
      const double preserved = fault::preserved_work(a.eff_done_s, a.work_s,
                                                     a.ckpt, a.restarting);
      const double elapsed = t - a.start_s;
      st.busy_node_s += elapsed * a.job.nodes;
      st.useful_node_s += preserved * a.job.nodes;
      st.wasted_node_s += (elapsed - preserved) * a.job.nodes;
      total_wasted_node_s += (elapsed - preserved) * a.job.nodes;
      if (powered) {
        const double attempt_j =
            a.job.nodes * a.draw.total().value() * elapsed;
        st.energy_j += attempt_j;
        // The checkpoint preserved `preserved` of `elapsed` seconds of
        // progress; the energy of the rest bought nothing.
        const double wasted_j =
            elapsed > 0.0 ? attempt_j * (elapsed - preserved) / elapsed
                          : 0.0;
        st.wasted_energy_j += wasted_j;
        energy.wasted_j += wasted_j;
        remove_draw(a);
      }
      st.done_fraction += preserved / a.full_runtime_s;
      ++st.interruptions;
      ++total_interruptions;
      if (tracing) {
        const auto track = trace::Track::job(victim);
        rec->end(track, engine.now());  // closes the "run" span
        rec->instant(track, "fault", "node_failure",
                     "node " + std::to_string(node), engine.now());
      }
      const Job job = a.job;
      allocator.release(static_cast<std::uint64_t>(victim));
      if (st.attempts_started > options.max_retries) {
        finalize(a, EndReason::kNodeFailure, t);
        running.erase(victim);
      } else {
        running.erase(victim);
        engine.schedule_in(sim::from_seconds(options.requeue_backoff_s),
                           [&, job] {
                             if (tracing) {
                               const auto track = trace::Track::job(job.id);
                               rec->instant(track, "fault", "requeue", "",
                                            engine.now());
                               rec->begin(track, "batch", "queued",
                                          job.profile.name, engine.now());
                             }
                             queue.push(job);
                             try_start();
                           });
      }
    }
    allocator.drain(node);
    down_nodes.insert(node);
    if (tracing) {
      const auto track = trace::Track::node(node);
      rec->instant(track, "fault", "fail", "", engine.now());
      rec->begin(track, "fault", "down", "", engine.now());
    }
    sample();
  };

  const auto handle_node_repair = [&](int node) {
    advance_energy();
    allocator.return_to_service(node);
    down_nodes.erase(node);
    if (tracing) {
      const auto track = trace::Track::node(node);
      rec->end(track, engine.now());  // closes the "down" span
      rec->instant(track, "fault", "repair", "", engine.now());
    }
    sample();
    try_start();
  };

  /// A degradation window opened or closed on `node`: recompute the
  /// progress rate of the job holding it (if any) and reschedule its end.
  const auto handle_degradation = [&](int node, double factor, bool start) {
    auto& factors = active_degradations[node];
    if (start) {
      factors.push_back(factor);
    } else {
      const auto it = std::find(factors.begin(), factors.end(), factor);
      CTESIM_EXPECTS(it != factors.end());
      factors.erase(it);
    }
    if (tracing) {
      rec->instant(trace::Track::node(node), "fault",
                   start ? "degrade_start" : "degrade_end",
                   std::to_string(factor), engine.now());
    }
    for (auto& [id, a] : running) {
      if (!std::binary_search(a.nodes.begin(), a.nodes.end(), node)) {
        continue;
      }
      accrue(a);
      a.rate = rate_for(a);
      schedule_attempt_end(a);
      break;
    }
  };

  for (const Job& job : jobs) {
    engine.schedule_at(sim::from_seconds(job.arrival_s), [&, job] {
      if (tracing) {
        const auto track = trace::Track::job(job.id);
        rec->instant(track, "batch", "submit", job.profile.name,
                     engine.now());
        rec->begin(track, "batch", "queued", job.profile.name, engine.now());
      }
      queue.push(job);
      try_start();
    });
  }
  if (options.faults) {
    for (const fault::FaultEvent& e : options.faults->events()) {
      engine.schedule_at(sim::from_seconds(e.time_s), [&, e] {
        switch (e.kind) {
          case fault::FaultKind::kNodeFail:
            handle_node_fail(e.node);
            break;
          case fault::FaultKind::kNodeRepair:
            handle_node_repair(e.node);
            break;
          case fault::FaultKind::kDegradeStart:
            handle_degradation(e.node, e.factor, true);
            break;
          case fault::FaultKind::kDegradeEnd:
            handle_degradation(e.node, e.factor, false);
            break;
        }
      });
    }
  }
  engine.run();
  result.engine_events = engine.events_processed();
  CTESIM_ENSURES(running.empty());

  // Jobs still queued when every event has drained can never run: the
  // failed (and never repaired) part of the machine left too few in-service
  // nodes. They end as node-failure casualties at the final time.
  while (!queue.empty()) {
    const Job job = queue.pop(0);
    const double t = now_s();
    if (tracing) {
      const auto track = trace::Track::job(job.id);
      rec->end(track, engine.now());  // closes the "queued" span
      rec->instant(track, "fault", "abandoned", "machine too small",
                   engine.now());
    }
    Attempt a;
    a.job = job;
    a.start_s = t;
    finalize(a, EndReason::kNodeFailure, t);
  }
  // Close the "down" span of nodes that never came back.
  if (tracing) {
    for (const int node : down_nodes) {
      rec->end(trace::Track::node(node), engine.now());
    }
  }
  CTESIM_ENSURES(result.records.size() == jobs.size());

  std::sort(result.records.begin(), result.records.end(),
            [](const JobRecord& a, const JobRecord& b) {
              return a.job.id < b.job.id;
            });
  double first_arrival = 0.0;
  double last_end = 0.0;
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    const JobRecord& r = result.records[i];
    if (i == 0 || r.job.arrival_s < first_arrival) {
      first_arrival = r.job.arrival_s;
    }
    last_end = std::max(last_end, r.end_s);
  }
  result.makespan_s =
      result.records.empty() ? 0.0 : last_end - first_arrival;
  if (powered) {
    // Integration stopped at the last event; the machine idles forever
    // after, so the window is exactly [0, last event].
    energy.total_j =
        energy.cpu_j + energy.mem_j + energy.net_j + energy.idle_j;
    result.has_power = true;
    result.energy = energy;
  }
  return result;
}

}  // namespace ctesim::batch
