// Rank placement: which node, NUMA domain and how many cores/threads each
// simulated MPI rank owns. Mirrors the layouts used in the paper:
//   - fill_nodes: MPI-only, one rank per core (applications, HPCG)
//   - one rank per CMG/socket (hybrid STREAM, LINPACK on CTE-Arm)
//   - hybrid: R ranks per node × T threads (Gromacs 8×6)
//   - per_node: one aggregated rank per node (fast large-scale sweeps; the
//     communication structure across nodes is unchanged)
// and the two rank-neighbour patterns the workloads exchange halos over.
#pragma once

#include <vector>

#include "arch/node.h"
#include "util/check.h"

namespace ctesim::mpi {

struct RankSlot {
  int node = 0;     ///< node index in the machine
  int domain = 0;   ///< NUMA domain within the node (-1 = spans domains)
  int cores = 1;    ///< cores this rank's threads occupy
};

class Placement {
 public:
  /// `ranks_per_node` ranks on each node, each with cores/ranks_per_node
  /// cores, packed domain by domain. nranks must fill nodes completely
  /// except possibly the last.
  static Placement fill_nodes(const arch::NodeModel& node, int nranks,
                              int ranks_per_node);

  /// One rank per core (MPI-only full population).
  static Placement per_core(const arch::NodeModel& node, int nranks);

  /// One rank per NUMA domain.
  static Placement per_domain(const arch::NodeModel& node, int nnodes);

  /// One rank per node owning all cores (aggregated-node granularity).
  static Placement per_node(const arch::NodeModel& node, int nnodes);

  /// `ranks_per_node` ranks × `threads_per_rank` threads each.
  static Placement hybrid(const arch::NodeModel& node, int nranks,
                          int ranks_per_node, int threads_per_rank);

  /// One whole-node rank on each of the given (not necessarily
  /// contiguous) nodes — topology-aware placement for network studies.
  static Placement one_per_node_at(const arch::NodeModel& node,
                                   const std::vector<int>& nodes);

  int num_ranks() const { return static_cast<int>(slots_.size()); }
  const RankSlot& slot(int rank) const {
    CTESIM_EXPECTS(rank >= 0 && rank < num_ranks());
    return slots_[rank];
  }
  int node_of(int rank) const { return slot(rank).node; }
  int nodes_used() const { return nodes_used_; }
  int ranks_per_node() const { return ranks_per_node_; }

 private:
  Placement(std::vector<RankSlot> slots, int ranks_per_node);

  std::vector<RankSlot> slots_;
  int nodes_used_ = 0;
  int ranks_per_node_ = 1;
};

/// A px x py process grid; rank r sits at column r % px, row r / px.
struct Grid2d {
  int px = 1;
  int py = 1;

  /// The near-square grid of `nranks`: px the largest divisor with
  /// px * px <= nranks, py = nranks / px (so px <= py). The rule the paper
  /// states for HPL's P x Q grid.
  static Grid2d near_square(int nranks);

  /// `rank`'s neighbours on the non-periodic grid, in exchange order
  /// -x, +x, -y, +y.
  std::vector<int> neighbors(int rank) const;
};

/// Neighbours of `rank` in a ~cubic decomposition of `nranks` ranks: the
/// ranks at +-1, +-s and +-s*s for s = round(cbrt(nranks)), in that order,
/// skipping those outside [0, nranks), and stopping once `max_count` were
/// found.
std::vector<int> cube_neighbors(int rank, int nranks, int max_count);

}  // namespace ctesim::mpi
