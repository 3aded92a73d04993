// Job-scheduler node allocation on a torus.
//
// The paper notes (Section II) that CTE-Arm's scheduler is topology-aware:
// it allocates nodes "to exploit proximity and reduce the latency of
// messages" — and later complains (Section VI, item iv) that users cannot
// pin specific nodes. This module models the allocation policies so their
// effect on application communication can be quantified (see
// bench/ablation_placement): contiguous torus blocks vs first-free linear
// allocation vs random scatter on a partially busy machine.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/topology.h"
#include "util/rng.h"

namespace ctesim::sched {

enum class Policy {
  kContiguous,  ///< BFS-grown compact block (topology-aware scheduler)
  kLinear,      ///< lowest-index free nodes (topology-oblivious)
  kRandom,      ///< uniformly scattered free nodes (worst case)
};

const char* name_of(Policy policy);

class Allocator {
 public:
  /// Manages allocations over `topology` (not owned; must outlive).
  explicit Allocator(const net::TorusTopology& topology);

  /// Mark nodes busy (existing jobs) without tracking a job id.
  void occupy(const std::vector<int>& nodes);

  /// Allocate `count` free nodes under `policy`. Returns the node list
  /// (empty if not enough free nodes) and marks them busy.
  std::vector<int> allocate(int count, Policy policy,
                            std::uint64_t seed = 1);

  /// Like allocate(count, ...) but records ownership under `job_id` so the
  /// batch scheduler can release by job instead of by node list. `job_id`
  /// must not already own an allocation. Returns empty (and records
  /// nothing) if not enough free nodes.
  std::vector<int> allocate(std::uint64_t job_id, int count, Policy policy,
                            std::uint64_t seed = 1);

  /// Release previously allocated/occupied nodes.
  void release(const std::vector<int>& nodes);

  /// Release every node owned by `job_id` (which must own an allocation —
  /// callers cannot release nodes they don't hold).
  void release(std::uint64_t job_id);

  bool owns(std::uint64_t job_id) const;
  const std::vector<int>& nodes_of(std::uint64_t job_id) const;

  /// Take `node` out of service (a failure or an operator drain). The node
  /// must be free — the batch runtime releases a victim job before
  /// draining its node — and stays unallocatable until returned. Draining
  /// an already-drained node is bookkeeping drift (CTESIM_CHECKS).
  void drain(int node);

  /// Return a drained node to service (a repair). Returning a node that is
  /// not drained is bookkeeping drift (CTESIM_CHECKS).
  void return_to_service(int node);

  bool is_drained(int node) const;
  int drained_count() const;  ///< O(1)
  /// Nodes currently in service (total minus drained), busy or free.
  int in_service_nodes() const;

  int free_nodes() const;  ///< O(1)
  bool is_busy(int node) const;

  /// Size of the largest connected block of free nodes (torus adjacency).
  /// 0 when the machine is full. Stops once no block it has not reached
  /// could be larger.
  int largest_free_block() const;

  /// Fragmentation in [0,1]: 1 - largest_free_block/free_nodes. 0 means all
  /// free nodes form one block (or the machine is full — nothing to
  /// fragment); values near 1 mean the free capacity is confetti that only
  /// small jobs can use contiguously.
  double fragmentation() const;

  /// Mean pairwise hop distance of a node set — the quality metric a
  /// topology-aware scheduler optimizes. 0 for fewer than two nodes.
  /// Computed from per-dimension coordinate histograms, bit-identical to
  /// summing TorusTopology::hops over every pair.
  double mean_pairwise_hops(const std::vector<int>& nodes) const;

  /// A placement scan is dense when free² < count·n / kDenseDivisor:
  /// ranking every free node then costs less than walking to the ball's
  /// last node. Calibrated on BM_AllocateContiguous* shapes
  /// (docs/ENGINE.md §6). Either scan returns the same nodes.
  static constexpr std::int64_t kDenseDivisor = 2;

  /// Work of contiguous placements so far: visit-order positions read
  /// (busy nodes included, pruned seeds too) plus free nodes ranked by a
  /// dense scan. A placement that takes every free node adds nothing.
  std::uint64_t positions_walked() const { return positions_walked_; }

 private:
  std::vector<int> allocate_contiguous(int count);
  std::vector<int> allocate_linear(int count);
  std::vector<int> allocate_random(int count, std::uint64_t seed);

  /// Scores the ball of every free seed in 0, stride, 2*stride, ... and
  /// leaves the best in best_. False when no tried seed was free.
  ///
  /// A seed's ball is the first `count` free nodes of its BFS order, busy
  /// and drained nodes walked too. The torus is vertex-transitive and the
  /// neighbour order commutes with translation, so that order is order_
  /// translated by the seed's coordinates: no BFS runs per seed. Each ball
  /// is scored as it grows, by exact int64 hop totals.
  ///
  /// Work that cannot change the result is skipped (docs/ENGINE.md §6):
  /// - with few free nodes (free² < count·n / kDenseDivisor) a dense scan
  ///   ranks each free node's visit position by rank_ into mask_ instead
  ///   of reading every busy position;
  /// - a seed's walk up to its first busy position is seed 0's walk on
  ///   an empty machine, so scoring resumes from prefix_total_ and
  ///   prefix_near_ there;
  /// - a seed whose first `count` positions are all free (a clean seed)
  ///   totals prefix_total_[count]; after the first one, later clean
  ///   seeds can only tie, and ties go to the lower seed, so they are
  ///   skipped.
  bool scan_seeds(int count, int stride);

  /// Grows prefix_total_ and prefix_near_ to cover balls of `count`.
  void extend_prefix(int count);

  /// Sum of hops over all unordered pairs of `nodes`, exact.
  std::int64_t total_pairwise_hops(const std::vector<int>& nodes) const;

  /// Nodes whose state is exactly `state` (a recount for the O(1)
  /// counters' checks).
  int count_in_state(std::uint8_t state) const;

  /// A fresh mark for seen_, so a BFS starts without clearing it.
  std::uint32_t next_stamp() const;

  /// BFS from `start` through the nodes `admit` accepts, in neighbour
  /// order, marking seen_ with `stamp`. Leaves the visit order in queue_
  /// and returns its length.
  template <typename Admit>
  int bfs(int start, std::uint32_t stamp, Admit admit) const;

  /// A node is allocatable iff neither busy nor drained.
  bool unavailable(int node) const {
    return state_[static_cast<std::size_t>(node)] != 0;
  }

  static constexpr std::uint8_t kBusy = 1;
  static constexpr std::uint8_t kDrained = 2;  ///< failed / draining

  const net::TorusTopology* topology_;
  int num_dims_;
  /// Node-major torus coordinates: coords_[node * num_dims_ + d].
  std::vector<int> coords_;
  /// Node-major neighbours, 2 per dimension in (-1, +1) order — the
  /// order the BFS visits them in.
  std::vector<int> neighbours_;
  /// The BFS visit order from node 0 as coordinate offsets,
  /// position-major: order_[i * num_dims_ + d]. Seed s visits
  /// c(s) + order_[i] (mod dims) at position i.
  std::vector<int> order_;
  /// Prefix sums of the dims: dimension d owns near_[dim_at_[d] + x] for
  /// x < L_d, and shift_/wrap_[2 * dim_at_[d] + j] for j < 2 * L_d.
  std::vector<int> dim_at_;
  std::vector<int> shift_;  ///< (j mod L_d) * stride_d: a node-id term
  std::vector<int> wrap_;   ///< wrap distance of j mod L_d along d
  /// Per near_ slot (dimension d, coordinate x): d, and the wrap_ index
  /// that an offset o along d is subtracted from to get wrap(x - o).
  std::vector<int> slot_dim_;
  std::vector<int> slot_wrap_;
  /// Inverse of order_: rank_[node] is the visit position of the offset
  /// whose node id (as an offset from node 0) is `node`.
  std::vector<int> rank_;
  /// Seed 0's walk on an empty machine, up to the largest count asked:
  /// prefix_total_[j] is the hop total of its first j nodes, and row j of
  /// prefix_near_ (near_.size() entries) is near_ after those j nodes.
  /// Capacity for every count is reserved by the constructor.
  std::vector<std::int64_t> prefix_total_;
  std::vector<std::int64_t> prefix_near_;
  std::vector<std::uint8_t> state_;  ///< per node: 0 (free), kBusy or kDrained
  int free_count_;
  int drained_count_ = 0;
  std::uint64_t positions_walked_ = 0;
  std::map<std::uint64_t, std::vector<int>> owned_;

  // Scratch reused by every BFS, walk and score, so placement allocates
  // nothing per seed. Const queries use it too, hence mutable: an
  // Allocator is not shared between threads.
  mutable std::vector<std::uint32_t> seen_;  ///< BFS mark per node
  mutable std::uint32_t stamp_ = 0;
  mutable std::vector<int> queue_;  ///< flat BFS queue, n slots
  mutable std::vector<std::int64_t> counts_;  ///< nodes per coordinate value
  mutable std::vector<int> touched_;  ///< coordinate values counted
  /// Per dimension: the hops along d from each offset coordinate to the
  /// ball grown so far.
  std::vector<std::int64_t> near_;
  /// Per dimension: 2 * dim_at_[d] + c_d of the seed (a walk), or
  /// 2 * dim_at_[d] + L_d - c_d (a dense scan, which subtracts the seed).
  std::vector<int> row_;
  std::vector<int> free_;  ///< the free nodes of a dense scan
  /// Dense scan: bit p set when visit position p holds a free node, and
  /// that node in at_position_[p].
  std::vector<std::uint64_t> mask_;
  std::vector<int> at_position_;
  std::vector<int> ball_;
  std::vector<int> best_;
};

}  // namespace ctesim::sched
