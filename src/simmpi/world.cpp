#include "simmpi/world.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/check.h"

namespace ctesim::mpi {

namespace {

// Collective tag layout: base + group context * kOpsPerContext + op.
constexpr int kCollTagBase = 1 << 20;
constexpr int kOpsPerContext = 16;
constexpr int kMaxContexts = 4096;

enum CollOp {
  kOpBarrier = 0,
  kOpBcast,
  kOpReduce,
  kOpAllreduce,
  kOpAllgather,
  kOpAlltoall,
  kOpGather,
  kOpScatter,
  kOpReduceScatter,
};

int coll_tag(const Group& group, CollOp op) {
  return kCollTagBase + group.context() * kOpsPerContext + op;
}

int highest_power_of_two_le(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

sim::Task<> run_rank(World::RankFn body, Rank* rank) {
  co_await body(*rank);
}

}  // namespace

Group::Group(std::vector<int> members, int context)
    : members_(std::move(members)), context_(context) {
  CTESIM_EXPECTS(!members_.empty());
  for (int v = 0; v < size(); ++v) {
    const bool inserted =
        index_.emplace(members_[static_cast<std::size_t>(v)], v).second;
    CTESIM_EXPECTS(inserted);  // members must be distinct
  }
}

World::World(WorldOptions options, Placement placement)
    : options_(std::move(options)),
      placement_(std::move(placement)),
      network_(options_.machine.interconnect,
               std::max(options_.machine.num_nodes, placement_.nodes_used())),
      exec_(options_.machine.node,
            options_.compiler.value_or(
                arch::default_app_compiler(options_.machine))) {
  CTESIM_EXPECTS(placement_.nodes_used() <= options_.machine.num_nodes);
  network_.set_jitter(options_.network_jitter);
  const int n = placement_.num_ranks();
  mailboxes_.resize(static_cast<std::size_t>(n));
  Rng root(options_.seed);
  jitter_.reserve(static_cast<std::size_t>(n));
  ranks_.reserve(static_cast<std::size_t>(n));
  std::vector<int> everyone(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    jitter_.push_back(root.split());
    ranks_.emplace_back(new Rank(*this, r));
    everyone[static_cast<std::size_t>(r)] = r;
  }
  world_group_.reset(new Group(std::move(everyone), /*context=*/0));
  if (options_.recorder) {
    recorder_ = options_.recorder;
  } else if (options_.trace) {
    owned_recorder_ = std::make_unique<trace::Recorder>(true);
    recorder_ = owned_recorder_.get();
  }
  if (recorder_) engine_.set_recorder(recorder_);
  if (options_.congestion) {
    congestion_.reset(new net::CongestionModel(network_));
    if (recorder_) congestion_->set_recorder(recorder_);
  }
  // All ranks of a node stream concurrently (SPMD); each one's bandwidth
  // is an equal share of what their combined cores can draw.
  const arch::NodeModel& node = options_.machine.node;
  const int rpn = placement_.ranks_per_node();
  const int active_cores =
      std::min(node.core_count(), rpn * placement_.slot(0).cores);
  rank_bw_share_ = node.best_bw(active_cores) / rpn;
}

World::~World() = default;

Group World::create_group(std::vector<int> members) {
  for (int m : members) {
    CTESIM_EXPECTS(m >= 0 && m < num_ranks());
  }
  CTESIM_EXPECTS(next_group_context_ < kMaxContexts);
  return Group(std::move(members), next_group_context_++);
}

sim::Channel<Message>& World::mailbox(int dst, int src, int tag) {
  CTESIM_EXPECTS(dst >= 0 && dst < num_ranks());
  CTESIM_EXPECTS(src >= 0 && src < num_ranks());
  CTESIM_EXPECTS(tag >= 0 && tag < (1 << 24));
  const std::uint64_t key =
      (static_cast<std::uint64_t>(src) << 24) | static_cast<std::uint64_t>(tag);
  Mailboxes& box = mailboxes_[static_cast<std::size_t>(dst)];
  const std::size_t n = box.keys.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (box.keys[i] == key) return box.channels[i];
  }
  box.keys.push_back(key);
  return box.channels.emplace_back(engine_);
}

void World::record(int rank, sim::Time start, sim::Time end, const char* kind,
                   const char* detail, std::uint64_t bytes, int peer) {
  if (!recorder_ || !recorder_->enabled()) return;
  recorder_->span(trace::Track::rank(rank), "mpi", kind, detail, start, end,
                  bytes, peer);
}

double World::run(const RankFn& body) {
  CTESIM_EXPECTS(!ran_);
  ran_ = true;
  for (auto& rank : ranks_) {
    engine_.spawn(run_rank(body, rank.get()));
  }
  engine_.run();
  if (engine_.unfinished_processes() != 0) {
    throw std::runtime_error(
        "ctesim::mpi::World: simulation deadlocked (" +
        std::to_string(engine_.unfinished_processes()) +
        " ranks blocked, e.g. a receive with no matching send)");
  }
  return sim::to_seconds(engine_.now());
}

void World::add_phase_time(int rank, const std::string& phase,
                           double seconds) {
  CTESIM_EXPECTS(rank >= 0 && rank < num_ranks());
  auto& times = phase_times_[phase];
  times.resize(static_cast<std::size_t>(num_ranks()), 0.0);
  times[static_cast<std::size_t>(rank)] += seconds;
}

double World::phase_max(const std::string& phase) const {
  auto it = phase_times_.find(phase);
  if (it == phase_times_.end()) return 0.0;
  return *std::max_element(it->second.begin(), it->second.end());
}

std::vector<double> World::phase_times(const std::string& phase) const {
  auto it = phase_times_.find(phase);
  if (it == phase_times_.end()) return {};
  return it->second;
}

double World::phase_avg(const std::string& phase) const {
  auto it = phase_times_.find(phase);
  if (it == phase_times_.end() || it->second.empty()) return 0.0;
  double sum = 0.0;
  for (double t : it->second) sum += t;
  return sum / static_cast<double>(it->second.size());
}

std::vector<std::string> World::phase_names() const {
  std::vector<std::string> names;
  names.reserve(phase_times_.size());
  for (const auto& [name, times] : phase_times_) names.push_back(name);
  return names;
}

// --------------------------------------------------------------- Rank ----

Rank::DepositResult Rank::deposit(int dst, std::uint64_t bytes, int tag) {
  CTESIM_EXPECTS(dst >= 0 && dst < size());
  const sim::Time now = world_->engine_.now();
  const int src_node = node();
  const int dst_node = world_->placement_.node_of(dst);
  sim::Time arrival;
  sim::Time sender_done;
  if (src_node == dst_node) {
    const arch::NodeModel& nm = world_->machine().node;
    CTESIM_EXPECTS(nm.shm_bw > 0.0);
    const double t =
        nm.shm_latency + static_cast<double>(bytes) / nm.shm_bw;
    arrival = now + sim::from_seconds(t);
    // The copy occupies the sender too (shared-memory transport).
    sender_done = arrival;
  } else {
    const auto transfer = world_->network_.transfer(src_node, dst_node, bytes,
                                                    sim::to_seconds(now));
    arrival = world_->congestion_
                  ? world_->congestion_->transfer_at(src_node, dst_node,
                                                     bytes, now)
                  : now + sim::from_seconds(transfer.time_s);
    if (transfer.rendezvous) {
      // Large message: sender stays coupled until delivery completes.
      sender_done = arrival;
    } else {
      // Eager: sender pays injection overhead + wire occupancy only.
      const auto& spec = world_->network_.spec();
      const double inject =
          0.5 * spec.base_latency_s +
          static_cast<double>(bytes) / (spec.link_bw * spec.eff_bw_factor);
      sender_done = now + sim::from_seconds(inject);
    }
  }
  world_->mailbox(dst, id_, tag).push(Message{bytes, arrival}, arrival);
  world_->record(id_, now, sender_done, "send", "", bytes, dst);
  return {arrival, sender_done};
}

P2P Rank::send(int dst, std::uint64_t bytes, int tag) {
  return P2P(*this, bytes, tag).to(dst);
}

P2P Rank::recv(int src, int tag) { return P2P(*this, 0, tag).from(src); }

P2P Rank::sendrecv(int dst, std::uint64_t send_bytes, int src, int tag) {
  // Full duplex: post the outgoing message, then block on the incoming one;
  // settle any residual sender-side occupancy afterwards.
  return P2P(*this, send_bytes, tag).to(dst).from(src);
}

P2P Rank::exchange(std::span<const int> neighbors, std::uint64_t bytes_each,
                   int tag) {
  return P2P(*this, bytes_each, tag).neighbors(neighbors);
}

Request Rank::isend(int dst, std::uint64_t bytes, int tag) {
  const DepositResult d = deposit(dst, bytes, tag);
  return Request{d.sender_done};
}

// ------------------------------------------------------------------ P2P --

bool P2P::await_ready() {
  for (int i = 0; i < num_srcs_; ++i) {
    CTESIM_EXPECTS(src(i) >= 0 && src(i) < rank_->size());
  }
  recv_start_ = latest_send_ = rank_->world_->engine_.now();
  for (int i = 0; i < num_dsts_; ++i) {
    const Rank::DepositResult d = rank_->deposit(dst(i), bytes_, tag_);
    latest_send_ = std::max(latest_send_, d.sender_done);
  }
  return receive_next();
}

bool P2P::receive_next() {
  World& world = *rank_->world_;
  while (next_src_ < num_srcs_) {
    not_before = recv_start_;
    if (!world.mailbox(rank_->id_, src(next_src_), tag_).try_receive(*this)) {
      return false;  // the hand-off calls on_handoff, at >= the cursor
    }
    received();
  }
  return finish();
}

void P2P::received() {
  const sim::Time end = std::max(recv_start_, value->arrival);
  rank_->world_->record(rank_->id_, recv_start_, end, "recv", "",
                        value->bytes, src(next_src_));
  recv_start_ = end;
  ++next_src_;
}

void P2P::on_handoff(sim::Channel<Message>::Waiter& waiter) {
  // Fired at max(cursor, arrival): the end of this source's recv span.
  P2P& p2p = static_cast<P2P&>(waiter);
  p2p.received();
  if (p2p.receive_next()) p2p.handle.resume();
}

bool P2P::finish() {
  sim::Engine& engine = rank_->world_->engine_;
  const sim::Time done = std::max(recv_start_, latest_send_);
  if (done > engine.now()) {
    engine.schedule_at(done, [this] { handle.resume(); });
    return false;
  }
  return true;
}

// ---------------------------------------------------------- collectives --

sim::Task<> Rank::barrier() { return barrier(world_->world_group()); }

sim::Task<> Rank::barrier(const Group& group) {
  const int p = group.size();
  const int me = group.vrank_of(id_);
  CTESIM_EXPECTS(me >= 0);
  const int tag = coll_tag(group, kOpBarrier);
  for (int k = 1; k < p; k <<= 1) {
    const int to = group.global((me + k) % p);
    const int from = group.global((me - k % p + p) % p);
    co_await sendrecv(to, 1, from, tag);
  }
}

sim::Task<> Rank::bcast(int root, std::uint64_t bytes) {
  return bcast(world_->world_group(), root, bytes);
}

sim::Task<> Rank::bcast(const Group& group, int root_vrank,
                        std::uint64_t bytes) {
  const int p = group.size();
  CTESIM_EXPECTS(root_vrank >= 0 && root_vrank < p);
  if (p == 1) co_return;
  const int me = group.vrank_of(id_);
  CTESIM_EXPECTS(me >= 0);
  const int tag = coll_tag(group, kOpBcast);
  const int relative = (me - root_vrank + p) % p;
  int mask = 1;
  while (mask < p) {
    if (relative & mask) {
      const int src = (relative - mask + root_vrank) % p;
      co_await recv(group.global(src), tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < p) {
      const int dst = (relative + mask + root_vrank) % p;
      co_await send(group.global(dst), bytes, tag);
    }
    mask >>= 1;
  }
}

sim::Task<> Rank::reduce(int root, std::uint64_t bytes) {
  return reduce(world_->world_group(), root, bytes);
}

sim::Task<> Rank::reduce(const Group& group, int root_vrank,
                         std::uint64_t bytes) {
  const int p = group.size();
  CTESIM_EXPECTS(root_vrank >= 0 && root_vrank < p);
  if (p == 1) co_return;
  const int me = group.vrank_of(id_);
  CTESIM_EXPECTS(me >= 0);
  const int tag = coll_tag(group, kOpReduce);
  const int relative = (me - root_vrank + p) % p;
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((relative & mask) == 0) {
      const int src_rel = relative | mask;
      if (src_rel < p) {
        co_await recv(group.global((src_rel + root_vrank) % p), tag);
      }
    } else {
      co_await send(group.global((relative - mask + root_vrank) % p), bytes,
                    tag);
      break;
    }
  }
}

sim::Task<> Rank::allreduce(std::uint64_t bytes) {
  return allreduce(world_->world_group(), bytes);
}

sim::Task<> Rank::allreduce(const Group& group, std::uint64_t bytes) {
  const int p = group.size();
  if (p == 1) co_return;
  if (bytes > world_->options_.allreduce_ring_threshold && p > 2) {
    co_await ring_allreduce(group, bytes);
    co_return;
  }
  // Rabenseifner-style fold to a power of two, recursive doubling, unfold.
  const int me = group.vrank_of(id_);
  CTESIM_EXPECTS(me >= 0);
  const int tag = coll_tag(group, kOpAllreduce);
  const int p2 = highest_power_of_two_le(p);
  const int rem = p - p2;
  int newrank;
  if (me < 2 * rem) {
    if (me % 2 == 0) {
      co_await send(group.global(me + 1), bytes, tag);
      newrank = -1;  // folded away for the doubling phase
    } else {
      co_await recv(group.global(me - 1), tag);
      newrank = me / 2;
    }
  } else {
    newrank = me - rem;
  }
  if (newrank >= 0) {
    for (int mask = 1; mask < p2; mask <<= 1) {
      const int partner_new = newrank ^ mask;
      const int partner =
          partner_new < rem ? partner_new * 2 + 1 : partner_new + rem;
      const int peer = group.global(partner);
      co_await sendrecv(peer, bytes, peer, tag);
    }
  }
  if (me < 2 * rem) {
    if (me % 2 == 1) {
      co_await send(group.global(me - 1), bytes, tag);
    } else {
      co_await recv(group.global(me + 1), tag);
    }
  }
}

sim::Task<> Rank::ring_allreduce(const Group& group, std::uint64_t bytes) {
  // Bandwidth-optimal: reduce-scatter ring then allgather ring, 2(P-1)
  // steps of bytes/P each.
  const int p = group.size();
  const int me = group.vrank_of(id_);
  CTESIM_EXPECTS(me >= 0);
  const int tag = coll_tag(group, kOpAllreduce);
  const std::uint64_t chunk =
      std::max<std::uint64_t>(1, bytes / static_cast<std::uint64_t>(p));
  const int right = group.global((me + 1) % p);
  const int left = group.global((me - 1 + p) % p);
  for (int step = 0; step < 2 * (p - 1); ++step) {
    co_await sendrecv(right, chunk, left, tag);
  }
}

sim::Task<> Rank::allgather(std::uint64_t bytes_per_rank) {
  return allgather(world_->world_group(), bytes_per_rank);
}

sim::Task<> Rank::allgather(const Group& group,
                            std::uint64_t bytes_per_rank) {
  const int p = group.size();
  if (p == 1) co_return;
  const int me = group.vrank_of(id_);
  CTESIM_EXPECTS(me >= 0);
  const int tag = coll_tag(group, kOpAllgather);
  const int right = group.global((me + 1) % p);
  const int left = group.global((me - 1 + p) % p);
  for (int step = 0; step < p - 1; ++step) {
    co_await sendrecv(right, bytes_per_rank, left, tag);
  }
}

sim::Task<> Rank::alltoall(std::uint64_t bytes_per_pair) {
  return alltoall(world_->world_group(), bytes_per_pair);
}

sim::Task<> Rank::alltoall(const Group& group, std::uint64_t bytes_per_pair) {
  const int p = group.size();
  if (p == 1) co_return;
  const int me = group.vrank_of(id_);
  CTESIM_EXPECTS(me >= 0);
  const int tag = coll_tag(group, kOpAlltoall);
  for (int i = 1; i < p; ++i) {
    const int to = group.global((me + i) % p);
    const int from = group.global((me - i + p) % p);
    co_await sendrecv(to, bytes_per_pair, from, tag);
  }
}

sim::Task<> Rank::gather(int root, std::uint64_t bytes_per_rank) {
  return gather(world_->world_group(), root, bytes_per_rank);
}

sim::Task<> Rank::gather(const Group& group, int root_vrank,
                         std::uint64_t bytes_per_rank) {
  // Binomial tree toward the root; a node at distance `mask` forwards the
  // data of its whole subtree (mask * bytes_per_rank).
  const int p = group.size();
  CTESIM_EXPECTS(root_vrank >= 0 && root_vrank < p);
  if (p == 1) co_return;
  const int me = group.vrank_of(id_);
  CTESIM_EXPECTS(me >= 0);
  const int tag = coll_tag(group, kOpGather);
  const int relative = (me - root_vrank + p) % p;
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((relative & mask) == 0) {
      const int src_rel = relative | mask;
      if (src_rel < p) {
        co_await recv(group.global((src_rel + root_vrank) % p), tag);
      }
    } else {
      const std::uint64_t subtree =
          static_cast<std::uint64_t>(std::min(mask, p - relative));
      co_await send(group.global((relative - mask + root_vrank) % p),
                    subtree * bytes_per_rank, tag);
      break;
    }
  }
}

sim::Task<> Rank::scatter(int root, std::uint64_t bytes_per_rank) {
  return scatter(world_->world_group(), root, bytes_per_rank);
}

sim::Task<> Rank::scatter(const Group& group, int root_vrank,
                          std::uint64_t bytes_per_rank) {
  // Reverse binomial tree: each internal node receives its subtree's data
  // and forwards halves outward.
  const int p = group.size();
  CTESIM_EXPECTS(root_vrank >= 0 && root_vrank < p);
  if (p == 1) co_return;
  const int me = group.vrank_of(id_);
  CTESIM_EXPECTS(me >= 0);
  const int tag = coll_tag(group, kOpScatter);
  const int relative = (me - root_vrank + p) % p;
  int mask = 1;
  while (mask < p) {
    if (relative & mask) {
      co_await recv(group.global((relative - mask + root_vrank) % p), tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < p) {
      const std::uint64_t subtree =
          static_cast<std::uint64_t>(std::min(mask, p - relative - mask));
      co_await send(group.global((relative + mask + root_vrank) % p),
                    subtree * bytes_per_rank, tag);
    }
    mask >>= 1;
  }
}

sim::Task<> Rank::reduce_scatter(std::uint64_t total_bytes) {
  return reduce_scatter(world_->world_group(), total_bytes);
}

sim::Task<> Rank::reduce_scatter(const Group& group,
                                 std::uint64_t total_bytes) {
  // Pairwise halving: log2(P) rounds, each exchanging half the remaining
  // buffer (power-of-two groups take the optimal path; others fall back to
  // a ring of chunks).
  const int p = group.size();
  if (p == 1) co_return;
  const int me = group.vrank_of(id_);
  CTESIM_EXPECTS(me >= 0);
  const int tag = coll_tag(group, kOpReduceScatter);
  if ((p & (p - 1)) == 0) {
    std::uint64_t bytes = total_bytes / 2;
    for (int mask = p >> 1; mask > 0; mask >>= 1) {
      const int peer = group.global(me ^ mask);
      co_await sendrecv(peer, std::max<std::uint64_t>(1, bytes), peer, tag);
      bytes /= 2;
    }
  } else {
    const std::uint64_t chunk = std::max<std::uint64_t>(
        1, total_bytes / static_cast<std::uint64_t>(p));
    const int right = group.global((me + 1) % p);
    const int left = group.global((me - 1 + p) % p);
    for (int step = 0; step < p - 1; ++step) {
      co_await sendrecv(right, chunk, left, tag);
    }
  }
}

// -------------------------------------------------------------- compute --

sim::Task<> Rank::compute(const roofline::KernelSig& sig, double elems) {
  double seconds =
      world_->exec_
          .analyze_shared(sig, elems, slot().cores, world_->rank_bw_share_)
          .total_s;
  if (world_->options_.compute_jitter > 0.0) {
    auto& rng = world_->jitter_[static_cast<std::size_t>(id_)];
    seconds *= 1.0 + world_->options_.compute_jitter * std::fabs(rng.normal());
  }
  const sim::Time t0 = world_->engine_.now();
  co_await world_->engine_.delay(sim::from_seconds(seconds));
  world_->record(id_, t0, world_->engine_.now(), "compute", sig.name, 0, -1);
}

sim::Task<> Rank::compute_seconds(double seconds) {
  CTESIM_EXPECTS(seconds >= 0.0);
  const sim::Time t0 = world_->engine_.now();
  co_await world_->engine_.delay(sim::from_seconds(seconds));
  world_->record(id_, t0, world_->engine_.now(), "compute", "fixed", 0, -1);
}

}  // namespace ctesim::mpi
