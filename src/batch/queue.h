// Batch queue policies: FCFS and EASY backfill.
//
// The queue decides *when* a job may start; node *placement* stays with
// sched::Allocator. EASY backfill (Lifka '95, the policy CTE-Arm's PJM-like
// production schedulers run) lets small jobs jump ahead as long as they
// cannot delay the head-of-queue job's reservation, computed from the
// running jobs' wall-time limits — the scheduler never knows actual
// runtimes in advance.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "batch/job.h"

namespace ctesim::batch {

enum class QueuePolicy {
  kFcfs,          ///< strict arrival order; head blocks everything behind it
  kEasyBackfill,  ///< aggressive backfill with a head-of-queue reservation
};

const char* name_of(QueuePolicy policy);

/// A running job's claim as the queue planner sees it.
struct Reservation {
  int job_id = 0;
  double predicted_end_s = 0.0;  ///< start + wall-time request
  int nodes = 0;
};

class JobQueue {
 public:
  JobQueue(QueuePolicy policy, int total_nodes);

  /// Enqueue in arrival order. The job must fit the machine at all.
  void push(const Job& job);

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }
  const Job& head() const;

  /// Queue position of the next job allowed to start now, or -1.
  /// FCFS: the head iff `free_nodes` suffice. EASY: the head iff it fits;
  /// otherwise the first later job that both fits now and cannot delay the
  /// head (finishes by the shadow time, or only uses nodes the head won't
  /// need then).
  int next_startable(double now_s, int free_nodes,
                     const std::vector<Reservation>& running) const;

  /// Earliest time the head could start if every running job ran to its
  /// wall-time limit (the EASY reservation). Exposed for tests; requires a
  /// non-empty queue. Returns now_s when the head already fits.
  double shadow_time(double now_s, int free_nodes,
                     const std::vector<Reservation>& running) const;

  /// The job at `position` (from next_startable), without removing it —
  /// the power-aware scheduler peeks before committing nodes and power.
  const Job& at(int position) const;

  /// Remove and return the job at `position` (from next_startable).
  Job pop(int position);

 private:
  QueuePolicy policy_;
  int total_nodes_;
  std::deque<Job> queue_;
  /// shadow_time's working copy of the reservations, reused across scans
  /// (a JobQueue is not shared between threads).
  mutable std::vector<Reservation> ends_;
};

}  // namespace ctesim::batch
