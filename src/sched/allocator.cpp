#include "sched/allocator.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <limits>

#include "util/assert.h"
#include "util/check.h"

namespace ctesim::sched {

const char* name_of(Policy policy) {
  switch (policy) {
    case Policy::kContiguous:
      return "contiguous";
    case Policy::kLinear:
      return "linear";
    case Policy::kRandom:
      return "random";
  }
  return "?";
}

template <typename Admit>
int Allocator::bfs(int start, std::uint32_t stamp, Admit admit) const {
  const std::size_t degree = 2 * static_cast<std::size_t>(num_dims_);
  std::size_t head = 0;
  std::size_t tail = 0;
  queue_[tail++] = start;
  seen_[static_cast<std::size_t>(start)] = stamp;
  while (head < tail) {
    const int* nb =
        &neighbours_[static_cast<std::size_t>(queue_[head++]) * degree];
    for (std::size_t k = 0; k < degree; ++k) {
      if (seen_[static_cast<std::size_t>(nb[k])] != stamp && admit(nb[k])) {
        seen_[static_cast<std::size_t>(nb[k])] = stamp;
        queue_[tail++] = nb[k];
      }
    }
  }
  return static_cast<int>(tail);
}

Allocator::Allocator(const net::TorusTopology& topology)
    : topology_(&topology),
      num_dims_(static_cast<int>(topology.dims().size())),
      state_(static_cast<std::size_t>(topology.num_nodes()), 0),
      free_count_(topology.num_nodes()),
      seen_(static_cast<std::size_t>(topology.num_nodes()), 0),
      queue_(static_cast<std::size_t>(topology.num_nodes())) {
  const int n = topology.num_nodes();
  const std::vector<int>& dims = topology.dims();
  const auto num_dims = static_cast<std::size_t>(num_dims_);
  coords_.resize(static_cast<std::size_t>(n) * num_dims);
  neighbours_.reserve(2 * coords_.size());
  for (int node = 0; node < n; ++node) {
    // Row-major: last dimension varies fastest.
    int* c = &coords_[static_cast<std::size_t>(node) * num_dims];
    for (int d = num_dims_, rest = node; d-- > 0;) {
      c[d] = rest % dims[static_cast<std::size_t>(d)];
      rest /= dims[static_cast<std::size_t>(d)];
    }
    int stride = n;
    for (int d = 0; d < num_dims_; ++d) {
      const int size = dims[static_cast<std::size_t>(d)];
      stride /= size;
      for (const int dir : {-1, +1}) {
        const int moved = (c[d] + dir + size) % size;
        neighbours_.push_back(node + (moved - c[d]) * stride);
      }
    }
  }

  // Node 0 sits at the origin, so its BFS order read as coordinates is
  // the offset order every seed's walk translates.
  bfs(0, next_stamp(), [](int) { return true; });
  order_.reserve(coords_.size());
  rank_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int offset = queue_[static_cast<std::size_t>(i)];
    const int* c = &coords_[static_cast<std::size_t>(offset) * num_dims];
    order_.insert(order_.end(), c, c + num_dims_);
    rank_[static_cast<std::size_t>(offset)] = i;
  }
  dim_at_.push_back(0);
  int stride = n;
  for (std::size_t d = 0; d < num_dims; ++d) {
    const int size = dims[d];
    const int at = static_cast<int>(shift_.size());  // 2 * dim_at_[d]
    stride /= size;
    for (int j = 0; j < 2 * size; ++j) {
      shift_.push_back(j % size * stride);
      wrap_.push_back(std::min(j % size, size - j % size));
    }
    for (int x = 0; x < size; ++x) {
      slot_dim_.push_back(static_cast<int>(d));
      // wrap_[at + size + x - o] is wrap(x - o).
      slot_wrap_.push_back(at + size + x);
    }
    dim_at_.push_back(dim_at_.back() + size);
  }
  near_.assign(slot_dim_.size(), 0);
  row_.resize(num_dims);
  // Room for every count up front, so a placement that extends the
  // prefix tables allocates nothing; rows are touched only when built.
  prefix_total_.reserve(static_cast<std::size_t>(n) + 1);
  prefix_total_.assign(1, 0);
  prefix_near_.reserve((static_cast<std::size_t>(n) + 1) * near_.size());
  prefix_near_.assign(near_.size(), 0);
  free_.reserve(static_cast<std::size_t>(n));
  mask_.assign((static_cast<std::size_t>(n) + 63) / 64, 0);
  at_position_.resize(static_cast<std::size_t>(n));

  counts_.assign(static_cast<std::size_t>(
                     *std::max_element(dims.begin(), dims.end())),
                 0);
  touched_.reserve(counts_.size());
  ball_.reserve(static_cast<std::size_t>(n));
  best_.reserve(static_cast<std::size_t>(n));
}

void Allocator::occupy(const std::vector<int>& nodes) {
  for (int n : nodes) {
    CTESIM_EXPECTS(n >= 0 && n < topology_->num_nodes());
    CTESIM_EXPECTS(!unavailable(n));
    state_[static_cast<std::size_t>(n)] = kBusy;
    --free_count_;
  }
}

void Allocator::drain(int node) {
  CTESIM_EXPECTS(node >= 0 && node < topology_->num_nodes());
  CTESIM_EXPECTS(!is_busy(node));
  CTESIM_ASSERT(!is_drained(node),
                "double drain: the node is already out of service — the "
                "fault script and the allocator state drifted");
  state_[static_cast<std::size_t>(node)] = kDrained;
  --free_count_;
  ++drained_count_;
}

void Allocator::return_to_service(int node) {
  CTESIM_EXPECTS(node >= 0 && node < topology_->num_nodes());
  CTESIM_ASSERT(is_drained(node),
                "returning an in-service node: the repair has no matching "
                "drain — the fault script and the allocator state drifted");
  state_[static_cast<std::size_t>(node)] = 0;
  ++free_count_;
  --drained_count_;
}

bool Allocator::is_drained(int node) const {
  CTESIM_EXPECTS(node >= 0 && node < topology_->num_nodes());
  return (state_[static_cast<std::size_t>(node)] & kDrained) != 0;
}

int Allocator::count_in_state(std::uint8_t state) const {
  return static_cast<int>(std::count(state_.begin(), state_.end(), state));
}

int Allocator::drained_count() const {
  CTESIM_DCHECK(drained_count_ == count_in_state(kDrained),
                "drained counter drifted from the node states");
  return drained_count_;
}

int Allocator::in_service_nodes() const {
  return topology_->num_nodes() - drained_count();
}

void Allocator::release(const std::vector<int>& nodes) {
  for (int n : nodes) {
    CTESIM_EXPECTS(n >= 0 && n < topology_->num_nodes());
    CTESIM_EXPECTS(is_busy(n));
    state_[static_cast<std::size_t>(n)] = 0;
    ++free_count_;
  }
}

std::vector<int> Allocator::allocate(std::uint64_t job_id, int count,
                                     Policy policy, std::uint64_t seed) {
  CTESIM_EXPECTS(!owns(job_id));
  std::vector<int> nodes = allocate(count, policy, seed);
  if (!nodes.empty()) owned_[job_id] = nodes;
  return nodes;
}

void Allocator::release(std::uint64_t job_id) {
  const auto it = owned_.find(job_id);
  CTESIM_EXPECTS(it != owned_.end());
  // Bookkeeping invariant: a job's recorded nodes were marked busy when it
  // was placed; a clear mark here means the two maps drifted (e.g. a raw
  // release() bypassed the ownership record) — a double release in effect.
  for (const int n : it->second) {
    CTESIM_ASSERT(is_busy(n),
                  "double release: a node recorded for this job is no "
                  "longer marked busy");
  }
  release(it->second);
  owned_.erase(it);
}

bool Allocator::owns(std::uint64_t job_id) const {
  return owned_.count(job_id) != 0;
}

const std::vector<int>& Allocator::nodes_of(std::uint64_t job_id) const {
  const auto it = owned_.find(job_id);
  CTESIM_EXPECTS(it != owned_.end());
  return it->second;
}

std::uint32_t Allocator::next_stamp() const {
  if (++stamp_ == 0) {  // wrapped: forget every old mark
    std::fill(seen_.begin(), seen_.end(), 0);
    stamp_ = 1;
  }
  return stamp_;
}

int Allocator::largest_free_block() const {
  // Connected components over free nodes with torus adjacency.
  const int n = topology_->num_nodes();
  const std::uint32_t stamp = next_stamp();
  const auto free = [this](int node) { return !unavailable(node); };
  int best = 0;
  // A block not found yet holds at most the free nodes not yet reached.
  int unreached = free_count_;
  for (int start = 0; start < n && best < unreached; ++start) {
    if (unavailable(start) || seen_[static_cast<std::size_t>(start)] == stamp) {
      continue;
    }
    const int size = bfs(start, stamp, free);
    best = std::max(best, size);
    unreached -= size;
  }
  return best;
}

double Allocator::fragmentation() const {
  const int free = free_nodes();
  if (free == 0) return 0.0;
  return 1.0 - static_cast<double>(largest_free_block()) /
                   static_cast<double>(free);
}

int Allocator::free_nodes() const {
  CTESIM_DCHECK(free_count_ == count_in_state(0),
                "free counter drifted from the node states");
  return free_count_;
}

bool Allocator::is_busy(int node) const {
  CTESIM_EXPECTS(node >= 0 && node < topology_->num_nodes());
  return (state_[static_cast<std::size_t>(node)] & kBusy) != 0;
}

std::vector<int> Allocator::allocate(int count, Policy policy,
                                     std::uint64_t seed) {
  CTESIM_EXPECTS(count >= 1);
  if (count > free_nodes()) return {};
  std::vector<int> nodes;
  switch (policy) {
    case Policy::kContiguous:
      nodes = allocate_contiguous(count);
      break;
    case Policy::kLinear:
      nodes = allocate_linear(count);
      break;
    case Policy::kRandom:
      nodes = allocate_random(count, seed);
      break;
  }
  CTESIM_ENSURES(static_cast<int>(nodes.size()) == count);
  for (int n : nodes) state_[static_cast<std::size_t>(n)] = kBusy;
  free_count_ -= count;
  return nodes;
}

std::vector<int> Allocator::allocate_linear(int count) {
  std::vector<int> nodes;
  for (int n = 0; n < topology_->num_nodes() &&
                  static_cast<int>(nodes.size()) < count;
       ++n) {
    if (!unavailable(n)) nodes.push_back(n);
  }
  return nodes;
}

std::vector<int> Allocator::allocate_random(int count, std::uint64_t seed) {
  std::vector<int> free;
  for (int n = 0; n < topology_->num_nodes(); ++n) {
    if (!unavailable(n)) free.push_back(n);
  }
  Rng rng(seed);
  // Fisher-Yates prefix shuffle of the free list.
  for (int i = 0; i < count; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(i, static_cast<std::int64_t>(free.size()) - 1));
    std::swap(free[static_cast<std::size_t>(i)], free[j]);
  }
  free.resize(static_cast<std::size_t>(count));
  std::sort(free.begin(), free.end());
  return free;
}

std::vector<int> Allocator::allocate_contiguous(int count) {
  // Every seed's ball of the whole free set is that set: no scan.
  if (count == free_nodes()) return allocate_linear(count);
  // Grow a BFS ball around each candidate seed and keep the ball with the
  // smallest mean pairwise hops (the scheduler's block placement). Large
  // machines try a stride sample of seeds; when every sampled seed is
  // busy, every seed is tried.
  const int n = topology_->num_nodes();
  const int stride = n > 512 ? n / 256 : 1;
  if (!scan_seeds(count, stride) && stride > 1) scan_seeds(count, 1);
  CTESIM_ENSURES(!best_.empty());
  std::vector<int> nodes(best_);
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

void Allocator::extend_prefix(int count) {
  const auto num_dims = static_cast<std::size_t>(num_dims_);
  const std::size_t slots = near_.size();
  auto j = prefix_total_.size() - 1;
  if (static_cast<std::size_t>(count) <= j) return;
  prefix_near_.resize((static_cast<std::size_t>(count) + 1) * slots);
  for (; j < static_cast<std::size_t>(count); ++j) {
    // Admit position j of seed 0's walk, as scan_seeds does on a machine
    // with nothing busy.
    const int* o = &order_[j * num_dims];
    const std::int64_t* row = &prefix_near_[j * slots];
    std::int64_t total = prefix_total_[j];
    for (std::size_t d = 0; d < num_dims; ++d) {
      total += row[static_cast<std::size_t>(dim_at_[d] + o[d])];
    }
    prefix_total_.push_back(total);
    std::int64_t* next = &prefix_near_[(j + 1) * slots];
    for (std::size_t k = 0; k < slots; ++k) {
      next[k] = row[k] + wrap_[static_cast<std::size_t>(
                             slot_wrap_[k] -
                             o[static_cast<std::size_t>(slot_dim_[k])])];
    }
  }
}

// The walk below is the hottest loop of a batch study. Starting it on a
// cache-line boundary keeps its speed independent of how much unrelated
// code the linker places in front of it: without the pin, code-size
// changes elsewhere in the library moved the loop it replaced and swung
// ctebench batch_cluster's study time by ~25%.
[[gnu::aligned(64)]] bool Allocator::scan_seeds(int count, int stride) {
  const int n = topology_->num_nodes();
  const auto num_dims = static_cast<std::size_t>(num_dims_);
  const std::size_t slots = near_.size();
  // Every ball of one scan has `count` nodes, so ordering balls by mean
  // hops is ordering them by exact hop totals. No ball totals below
  // `pairs` (distinct nodes are at least one hop apart), so the first
  // ball that reaches it cannot be beaten strictly.
  const std::int64_t pairs = std::int64_t{count} * (count - 1) / 2;
  std::int64_t best_total = std::numeric_limits<std::int64_t>::max();
  best_.clear();
  extend_prefix(count);
  // Ranking the F free nodes costs F per seed; a walk reads about
  // count * n / F positions to fill a ball.
  const std::int64_t free = free_count_;
  const bool dense = free * free * kDenseDivisor < std::int64_t{count} * n;
  if (dense) {
    free_.clear();
    for (int node = 0; node < n; ++node) {
      if (!unavailable(node)) free_.push_back(node);
    }
  }
  bool clean_scored = false;

  std::int64_t total = 0;
  // Scores the node at offset `o` into the ball; true when the seed is
  // done (it cannot win, or its ball is full and the best so far). Totals
  // only grow, so a seed whose partial total reaches the best cannot win
  // (ties go to the lower seed).
  // Inlined into both scans: a call would keep `total` in memory.
  const auto admit = [&](const int* o,
                         int node) __attribute__((always_inline)) {
    for (std::size_t d = 0; d < num_dims; ++d) {
      total += near_[static_cast<std::size_t>(dim_at_[d] + o[d])];
    }
    if (total >= best_total) return true;
    ball_.push_back(node);
    if (static_cast<int>(ball_.size()) == count) {
      best_total = total;
      best_.swap(ball_);
      return true;
    }
    // One flat pass over every dimension's slots, so the loop's trip
    // count is the same for every node and its branch predicts.
    for (std::size_t k = 0; k < slots; ++k) {
      near_[k] += wrap_[static_cast<std::size_t>(
          slot_wrap_[k] - o[static_cast<std::size_t>(slot_dim_[k])])];
    }
    return false;
  };

  for (int seed = 0; seed < n && best_total > pairs; seed += stride) {
    if (unavailable(seed)) continue;
    const int* c = &coords_[static_cast<std::size_t>(seed) * num_dims];
    ball_.clear();
    // The seed's clean prefix: positions 0..k-1 hold free nodes.
    int k = 0;
    if (dense) {
      for (std::size_t d = 0; d < num_dims; ++d) {
        row_[d] = dim_at_[d] + dim_at_[d + 1] - c[d];
      }
      for (const int node : free_) {
        const int* f = &coords_[static_cast<std::size_t>(node) * num_dims];
        int offset = 0;
        for (std::size_t d = 0; d < num_dims; ++d) {
          offset += shift_[static_cast<std::size_t>(row_[d] + f[d])];
        }
        const auto p =
            static_cast<std::size_t>(rank_[static_cast<std::size_t>(offset)]);
        mask_[p >> 6] |= std::uint64_t{1} << (p & 63);
        at_position_[p] = node;
      }
      std::size_t w = 0;
      // Some position is not free (count < free < n), so the scan stops.
      while (mask_[w] == ~std::uint64_t{0}) ++w;
      k = std::min(count,
                   static_cast<int>(64 * w) + std::countr_one(mask_[w]));
      ball_.insert(ball_.end(), at_position_.begin(),
                   at_position_.begin() + k);
    } else {
      for (std::size_t d = 0; d < num_dims; ++d) {
        row_[d] = 2 * dim_at_[d] + c[d];
      }
      for (const int* o = order_.data(); k < count; ++k, o += num_dims) {
        int node = 0;
        for (std::size_t d = 0; d < num_dims; ++d) {
          node += shift_[static_cast<std::size_t>(row_[d] + o[d])];
        }
        if (unavailable(node)) break;
        ball_.push_back(node);
      }
    }

    // Up to position k the walk is seed 0's empty-machine walk, so its
    // total and near_ are the prefix tables' row k. A walk has read k + 1
    // positions here (the last one busy), a dense scan k free ones.
    std::uint64_t read = static_cast<std::uint64_t>(k) + (dense ? 0 : 1);
    if (k == count) {
      if (!clean_scored && prefix_total_[static_cast<std::size_t>(k)] <
                               best_total) {
        best_total = prefix_total_[static_cast<std::size_t>(k)];
        best_.swap(ball_);
      }
      clean_scored = true;
      read = static_cast<std::uint64_t>(k);
    } else if (prefix_total_[static_cast<std::size_t>(k)] < best_total) {
      total = prefix_total_[static_cast<std::size_t>(k)];
      std::copy_n(&prefix_near_[static_cast<std::size_t>(k) * slots], slots,
                  near_.begin());
      if (dense) {
        // The masked positions past k, in order.
        bool done = false;
        std::uint64_t from = ~std::uint64_t{0} << (k & 63);
        for (auto w = static_cast<std::size_t>(k) >> 6;
             !done && w < mask_.size(); ++w, from = ~std::uint64_t{0}) {
          for (std::uint64_t bits = mask_[w] & from; bits != 0 && !done;
               bits &= bits - 1) {
            const auto p = 64 * w + static_cast<std::size_t>(
                                        std::countr_zero(bits));
            done = admit(&order_[p * num_dims], at_position_[p]);
            ++read;
          }
        }
        CTESIM_DCHECK(done, "a dense scan ran out of free nodes");
      } else {
        int i = k + 1;
        for (const int* o = &order_[static_cast<std::size_t>(i) * num_dims];
             i < n; ++i, o += num_dims) {
          int node = 0;
          for (std::size_t d = 0; d < num_dims; ++d) {
            node += shift_[static_cast<std::size_t>(row_[d] + o[d])];
          }
          if (!unavailable(node) && admit(o, node)) break;
        }
        CTESIM_DCHECK(
            i < n, "a free seed's ball must fill while count <= free_nodes()");
        read = static_cast<std::uint64_t>(i) + 1;
      }
    }
    if (dense) {
      std::fill(mask_.begin(), mask_.end(), 0);
      read += free_.size();
    }
    positions_walked_ += read;
  }
  return !best_.empty();
}

std::int64_t Allocator::total_pairwise_hops(
    const std::vector<int>& nodes) const {
  // Torus hops are a sum of per-dimension wrap distances, so the pairwise
  // total splits by dimension: with cnt[v] nodes at coordinate v,
  //   sum over value pairs {a, b} of cnt[a] * cnt[b] * wrap(|a - b|).
  // Pairs that share a coordinate add 0, exactly as in the pairwise loop.
  const std::vector<int>& dims = topology_->dims();
  std::int64_t total = 0;
  for (int d = 0; d < num_dims_; ++d) {
    const int size = dims[static_cast<std::size_t>(d)];
    for (const int node : nodes) {
      const int v = coords_[static_cast<std::size_t>(node * num_dims_ + d)];
      if (counts_[static_cast<std::size_t>(v)]++ == 0) touched_.push_back(v);
    }
    for (std::size_t i = 0; i < touched_.size(); ++i) {
      const int a = touched_[i];
      for (std::size_t j = i + 1; j < touched_.size(); ++j) {
        const int b = touched_[j];
        const int direct = std::abs(a - b);
        total += counts_[static_cast<std::size_t>(a)] *
                 counts_[static_cast<std::size_t>(b)] *
                 std::min(direct, size - direct);
      }
    }
    for (const int v : touched_) counts_[static_cast<std::size_t>(v)] = 0;
    touched_.clear();
  }
  return total;
}

double Allocator::mean_pairwise_hops(const std::vector<int>& nodes) const {
  if (nodes.size() < 2) return 0.0;
  for (const int n : nodes) {
    CTESIM_EXPECTS(n >= 0 && n < topology_->num_nodes());
  }
  // The total is an exact integer, so this is the same double as summing
  // hops(i, j) pair by pair.
  const std::size_t pairs = nodes.size() * (nodes.size() - 1) / 2;
  return static_cast<double>(total_pairwise_hops(nodes)) /
         static_cast<double>(pairs);
}

}  // namespace ctesim::sched
