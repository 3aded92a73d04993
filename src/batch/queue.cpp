#include "batch/queue.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace ctesim::batch {

const char* name_of(QueuePolicy policy) {
  switch (policy) {
    case QueuePolicy::kFcfs:
      return "fcfs";
    case QueuePolicy::kEasyBackfill:
      return "easy";
  }
  return "?";
}

JobQueue::JobQueue(QueuePolicy policy, int total_nodes)
    : policy_(policy), total_nodes_(total_nodes) {
  CTESIM_EXPECTS(total_nodes >= 1);
}

void JobQueue::push(const Job& job) {
  CTESIM_EXPECTS(job.nodes >= 1 && job.nodes <= total_nodes_);
  CTESIM_EXPECTS(job.walltime_s > 0.0);
  queue_.push_back(job);
}

const Job& JobQueue::head() const {
  CTESIM_EXPECTS(!queue_.empty());
  return queue_.front();
}

double JobQueue::shadow_time(double now_s, int free_nodes,
                             const std::vector<Reservation>& running) const {
  CTESIM_EXPECTS(!queue_.empty());
  const int needed = queue_.front().nodes;
  if (needed <= free_nodes) return now_s;
  // The smallest predicted end T with free + (nodes ending by T) >= needed:
  // a weighted selection over a reused copy, so a scan neither allocates
  // nor sorts. Each round splits the candidates around the middle one's
  // end; the answer is that end, or lies among the earlier or later ends.
  ends_.assign(running.begin(), running.end());
  int missing = needed - free_nodes;
  auto lo = ends_.begin();
  auto hi = ends_.end();
  while (lo != hi) {
    const double pivot = lo[(hi - lo) / 2].predicted_end_s;
    const auto before = std::partition(lo, hi, [pivot](const Reservation& r) {
      return r.predicted_end_s < pivot;
    });
    const auto after =
        std::partition(before, hi, [pivot](const Reservation& r) {
          return r.predicted_end_s == pivot;
        });
    int earlier = 0;
    for (auto it = lo; it != before; ++it) earlier += it->nodes;
    if (earlier >= missing) {
      hi = before;
      continue;
    }
    missing -= earlier;
    for (auto it = before; it != after; ++it) missing -= it->nodes;
    if (missing <= 0) return std::max(now_s, pivot);
    lo = after;
  }
  // Unreachable on a dedicated machine (free + running == total >= needed),
  // but keep the planner total: the head then never backfill-blocks.
  return std::numeric_limits<double>::infinity();
}

int JobQueue::next_startable(double now_s, int free_nodes,
                             const std::vector<Reservation>& running) const {
  if (queue_.empty()) return -1;
  if (queue_.front().nodes <= free_nodes) return 0;
  if (policy_ == QueuePolicy::kFcfs) return -1;

  // EASY: reserve the head at its shadow time, then let later jobs start
  // only if they cannot push that reservation back.
  const double shadow = shadow_time(now_s, free_nodes, running);
  // Nodes free at the shadow instant once the head has taken its share —
  // a backfill job no wider than this can run *through* the shadow time
  // without touching the head's reservation.
  int free_at_shadow = free_nodes;
  for (const Reservation& r : running) {
    if (r.predicted_end_s <= shadow) free_at_shadow += r.nodes;
  }
  const int extra = free_at_shadow - queue_.front().nodes;

  for (std::size_t i = 1; i < queue_.size(); ++i) {
    const Job& job = queue_[i];
    if (job.nodes > free_nodes) continue;
    const bool ends_before_shadow = now_s + job.walltime_s <= shadow;
    if (ends_before_shadow || job.nodes <= extra) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

const Job& JobQueue::at(int position) const {
  CTESIM_EXPECTS(position >= 0 &&
                 position < static_cast<int>(queue_.size()));
  return queue_[static_cast<std::size_t>(position)];
}

Job JobQueue::pop(int position) {
  CTESIM_EXPECTS(position >= 0 &&
                 position < static_cast<int>(queue_.size()));
  const auto it = queue_.begin() + position;
  Job job = *it;
  queue_.erase(it);
  return job;
}

}  // namespace ctesim::batch
