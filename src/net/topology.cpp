#include "net/topology.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"

namespace ctesim::net {

TorusTopology::TorusTopology(std::vector<int> dims) : dims_(std::move(dims)) {
  CTESIM_EXPECTS(!dims_.empty());
  total_ = 1;
  for (int d : dims_) {
    CTESIM_EXPECTS(d >= 1);
    total_ *= d;
  }
}

std::vector<int> TorusTopology::coordinates(int node) const {
  CTESIM_EXPECTS(node >= 0 && node < total_);
  std::vector<int> coords(dims_.size());
  // Row-major: last dimension varies fastest.
  for (std::size_t i = dims_.size(); i-- > 0;) {
    coords[i] = node % dims_[i];
    node /= dims_[i];
  }
  return coords;
}

int TorusTopology::node_at(const std::vector<int>& coords) const {
  CTESIM_EXPECTS(coords.size() == dims_.size());
  int node = 0;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    CTESIM_EXPECTS(coords[i] >= 0 && coords[i] < dims_[i]);
    node = node * dims_[i] + coords[i];
  }
  return node;
}

int TorusTopology::dim_distance(int src, int dst, std::size_t dim) const {
  CTESIM_EXPECTS(dim < dims_.size());
  CTESIM_EXPECTS(src >= 0 && src < total_ && dst >= 0 && dst < total_);
  int stride = 1;
  for (std::size_t i = dim + 1; i < dims_.size(); ++i) stride *= dims_[i];
  const int size = dims_[dim];
  const int direct = std::abs(src / stride % size - dst / stride % size);
  return std::min(direct, size - direct);
}

int TorusTopology::hops(int src, int dst) const {
  if (src == dst) return 0;
  CTESIM_EXPECTS(src >= 0 && src < total_ && dst >= 0 && dst < total_);
  // Decode both row-major coordinates in step, last dimension first.
  int hops = 0;
  for (std::size_t i = dims_.size(); i-- > 0;) {
    const int size = dims_[i];
    const int direct = std::abs(src % size - dst % size);
    hops += std::min(direct, size - direct);  // shortest wrap direction
    src /= size;
    dst /= size;
  }
  return hops;
}

std::string TorusTopology::describe() const {
  std::ostringstream os;
  os << dims_.size() << "D torus [";
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i) os << "x";
    os << dims_[i];
  }
  os << "]";
  return os.str();
}

FatTreeTopology::FatTreeTopology(int num_nodes, int nodes_per_edge_switch)
    : num_nodes_(num_nodes), nodes_per_edge_switch_(nodes_per_edge_switch) {
  CTESIM_EXPECTS(num_nodes >= 1);
  CTESIM_EXPECTS(nodes_per_edge_switch >= 1);
}

int FatTreeTopology::edge_switch_of(int node) const {
  CTESIM_EXPECTS(node >= 0 && node < num_nodes_);
  return node / nodes_per_edge_switch_;
}

int FatTreeTopology::hops(int src, int dst) const {
  if (src == dst) return 0;
  return edge_switch_of(src) == edge_switch_of(dst) ? 1 : 3;
}

std::string FatTreeTopology::describe() const {
  std::ostringstream os;
  os << "fat-tree (" << nodes_per_edge_switch_ << " nodes/edge switch)";
  return os.str();
}

}  // namespace ctesim::net
