#include "simmpi/placement.h"

#include <algorithm>
#include <cmath>

namespace ctesim::mpi {

Placement::Placement(std::vector<RankSlot> slots, int ranks_per_node)
    : slots_(std::move(slots)), ranks_per_node_(ranks_per_node) {
  CTESIM_EXPECTS(!slots_.empty());
  int max_node = 0;
  for (const auto& s : slots_) max_node = std::max(max_node, s.node);
  nodes_used_ = max_node + 1;
}

Placement Placement::fill_nodes(const arch::NodeModel& node, int nranks,
                                int ranks_per_node) {
  CTESIM_EXPECTS(nranks >= 1);
  CTESIM_EXPECTS(ranks_per_node >= 1 &&
                 ranks_per_node <= node.core_count());
  const int cores_per_rank = std::max(1, node.core_count() / ranks_per_node);
  std::vector<RankSlot> slots(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    const int local = r % ranks_per_node;
    const int first_core = local * cores_per_rank;
    slots[static_cast<std::size_t>(r)] = RankSlot{
        .node = r / ranks_per_node,
        .domain = (first_core / node.domain.cores) % node.num_domains,
        .cores = cores_per_rank,
    };
  }
  return Placement(std::move(slots), ranks_per_node);
}

Placement Placement::per_core(const arch::NodeModel& node, int nranks) {
  return fill_nodes(node, nranks, node.core_count());
}

Placement Placement::per_domain(const arch::NodeModel& node, int nnodes) {
  CTESIM_EXPECTS(nnodes >= 1);
  return fill_nodes(node, nnodes * node.num_domains, node.num_domains);
}

Placement Placement::per_node(const arch::NodeModel& node, int nnodes) {
  CTESIM_EXPECTS(nnodes >= 1);
  return fill_nodes(node, nnodes, 1);
}

Placement Placement::one_per_node_at(const arch::NodeModel& node,
                                     const std::vector<int>& nodes) {
  CTESIM_EXPECTS(!nodes.empty());
  std::vector<RankSlot> slots;
  slots.reserve(nodes.size());
  for (int n : nodes) {
    CTESIM_EXPECTS(n >= 0);
    slots.push_back(RankSlot{.node = n, .domain = -1,
                             .cores = node.core_count()});
  }
  return Placement(std::move(slots), /*ranks_per_node=*/1);
}

Placement Placement::hybrid(const arch::NodeModel& node, int nranks,
                            int ranks_per_node, int threads_per_rank) {
  CTESIM_EXPECTS(ranks_per_node * threads_per_rank <= node.core_count());
  std::vector<RankSlot> slots(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    const int local = r % ranks_per_node;
    const int first_core = local * threads_per_rank;
    slots[static_cast<std::size_t>(r)] = RankSlot{
        .node = r / ranks_per_node,
        .domain = (first_core / node.domain.cores) % node.num_domains,
        .cores = threads_per_rank,
    };
  }
  return Placement(std::move(slots), ranks_per_node);
}

Grid2d Grid2d::near_square(int nranks) {
  Grid2d grid;
  for (int cand = 1; cand * cand <= nranks; ++cand) {
    if (nranks % cand == 0) grid.px = cand;
  }
  grid.py = nranks / grid.px;
  return grid;
}

std::vector<int> Grid2d::neighbors(int rank) const {
  const int cx = rank % px;
  const int cy = rank / px;
  std::vector<int> out;
  if (cx > 0) out.push_back(rank - 1);
  if (cx + 1 < px) out.push_back(rank + 1);
  if (cy > 0) out.push_back(rank - px);
  if (cy + 1 < py) out.push_back(rank + px);
  return out;
}

std::vector<int> cube_neighbors(int rank, int nranks, int max_count) {
  const int stride =
      std::max(1, static_cast<int>(std::round(std::cbrt(nranks))));
  std::vector<int> out;
  for (int delta :
       {1, -1, stride, -stride, stride * stride, -stride * stride}) {
    const int nb = rank + delta;
    if (nb >= 0 && nb < nranks && nb != rank) out.push_back(nb);
    if (static_cast<int>(out.size()) == max_count) break;
  }
  return out;
}

}  // namespace ctesim::mpi
