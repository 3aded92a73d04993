#include "simmpi/world.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/check.h"

namespace ctesim::mpi {

namespace {

// Collective tag layout: base + group context * kOpsPerContext + op.
constexpr int kCollTagBase = 1 << 20;
constexpr int kOpsPerContext = 16;
constexpr int kMaxContexts = 4096;

// The delivery table: 2^10 direct-mapped slots of 32 bytes.
constexpr int kDeliveryMemoBits = 10;
constexpr std::size_t kDeliveryMemoSlots = std::size_t{1} << kDeliveryMemoBits;

// Resolved collective schedules: at most 2^16 (round, vrank) entries of 20
// bytes per World, over all its (group context, op) slots.
constexpr std::size_t kScheduleEntries = std::size_t{1} << 16;

enum CollOp {
  kOpBarrier = 0,
  kOpBcast,
  kOpAllreduce,
  kOpAllgather,
  kOpAlltoall,
  kOpReduceScatter,
};

int coll_tag(const Group& group, CollOp op) {
  return kCollTagBase + group.context() * kOpsPerContext + op;
}
static_assert(kCollTagBase == Rank::kMaxUserTag + 1);

/// `tag`, checked to be a user tag: the ones above belong to collectives.
int user_tag(int tag) {
  CTESIM_EXPECTS(tag >= 0 && tag <= Rank::kMaxUserTag);
  return tag;
}

/// One rank's part of one round: at most one send and one receive, both
/// in one point-to-point call. Peers are vranks, -1 for none; `bytes` is
/// what the rank sends.
struct Step {
  int dst = -1;
  int src = -1;
  std::uint64_t bytes = 0;
};

/// An unrooted collective algorithm as rounds of messages matched within
/// the round: whoever a rank receives from in round k sends to it in
/// round k. Rank::collective sends the rounds as point-to-point calls;
/// World::Collectives::time_call computes the same spans arithmetically.
class Rounds {
 public:
  Rounds(CollOp op, int p, std::uint64_t bytes,
         std::uint64_t ring_threshold)
      : p_(p) {
    switch (op) {
      case kOpBarrier:  // dissemination: distances 1, 2, 4, ... < p
        pattern_ = Pattern::kDissemination;
        for (int k = 1; k < p; k <<= 1) ++count_;
        break;
      case kOpAllreduce:
        if (bytes > ring_threshold && p > 2) {
          // Bandwidth-optimal ring: reduce-scatter then allgather, 2(p-1)
          // steps of bytes/p each.
          pattern_ = Pattern::kRingChunks;
          count_ = 2 * (p - 1);
        } else {
          // Rabenseifner-style fold to a power of two p2, recursive
          // doubling, unfold.
          pattern_ = Pattern::kFoldDoubling;
          int p2 = 1;
          while (p2 * 2 <= p) {
            p2 *= 2;
            ++count_;
          }
          rem_ = p - p2;
          if (rem_ > 0) count_ += 2;
        }
        break;
      case kOpAllgather:  // ring
        pattern_ = Pattern::kRing;
        count_ = p - 1;
        break;
      case kOpAlltoall:  // pairwise exchange at distance 1 .. p-1
        pattern_ = Pattern::kPairwise;
        count_ = p - 1;
        break;
      default:
        CTESIM_EXPECTS(op == kOpReduceScatter);  // bcast has none
        if ((p & (p - 1)) == 0) {
          // Pairwise halving: log2(p) rounds, each exchanging half the
          // remaining buffer.
          pattern_ = Pattern::kHalving;
          for (int k = 1; k < p; k <<= 1) ++count_;
        } else {
          pattern_ = Pattern::kRingChunks;  // a ring of chunks
          count_ = p - 1;
        }
        break;
    }
  }

  int count() const { return count_; }
  /// True when every rank would build the same rounds (same pattern).
  bool same_as(const Rounds& other) const {
    return pattern_ == other.pattern_ && count_ == other.count_;
  }

  /// Rank `me`'s part of round `k`, sending from a buffer of `bytes`.
  Step step(int me, int k, std::uint64_t bytes) const {
    const int right = me + 1 == p_ ? 0 : me + 1;
    const int left = me == 0 ? p_ - 1 : me - 1;
    switch (pattern_) {
      case Pattern::kDissemination: {
        const int d = 1 << k;
        return {(me + d) % p_, (me - d + p_) % p_, 1};
      }
      case Pattern::kRing:
        return {right, left, bytes};
      case Pattern::kRingChunks:
        return {right, left,
                std::max<std::uint64_t>(
                    1, bytes / static_cast<std::uint64_t>(p_))};
      case Pattern::kPairwise:
        return {(me + k + 1) % p_, (me - k - 1 + p_) % p_, bytes};
      case Pattern::kHalving: {
        const int peer = me ^ (p_ >> (k + 1));
        return {peer, peer, std::max<std::uint64_t>(1, bytes >> (k + 1))};
      }
      case Pattern::kFoldDoubling:
        break;
    }
    const bool folded = me < 2 * rem_;
    if (rem_ > 0 && (k == 0 || k == count_ - 1)) {
      // Fold (round 0): each even rank below 2 * rem sends to the odd one
      // above it. Unfold (last round): the odd one sends back.
      if (!folded) return {};
      const bool odd = me % 2 == 1;
      const int peer = odd ? me - 1 : me + 1;
      if ((k == 0) != odd) return {peer, -1, bytes};
      return {-1, peer, 0};
    }
    if (folded && me % 2 == 0) return {};  // folded away while doubling
    const int newrank = folded ? me / 2 : me - rem_;
    const int mask = 1 << (rem_ > 0 ? k - 1 : k);
    const int partner_new = newrank ^ mask;
    const int partner =
        partner_new < rem_ ? partner_new * 2 + 1 : partner_new + rem_;
    return {partner, partner, bytes};
  }

 private:
  enum class Pattern {
    kDissemination,
    kRing,
    kRingChunks,
    kPairwise,
    kHalving,
    kFoldDoubling
  };
  Pattern pattern_ = Pattern::kRing;
  int p_;
  int rem_ = 0;  ///< fold/doubling: ranks above the largest power of two
  int count_ = 0;
};

sim::Task<> run_rank(World::RankFn body, Rank* rank) {
  co_await body(*rank);
}

}  // namespace

/// Every rank of a scheduled collective parks in `enter` with no event and
/// no message. The last one in times the rounds as a max-plus recurrence
/// over (time, span) from each rank's clock, moves each rank's clock to
/// its exit time and queues one wake per rank on the run queue (only a
/// World without congestion schedules collectives). That is exact because,
/// without congestion, a message's timing depends only on (src, dst,
/// bytes, send time) and every rank's exit depends on every rank's entry
/// (docs/ENGINE.md section 9).
///
/// A call resolves each round before it times it: per vrank, the vrank it
/// receives from and its send's delivery offsets. A memoizing World keeps
/// each (group context, op)'s resolved rounds for the per-rank bytes of
/// its last call, and a later call with the same per-rank bytes replays
/// them without resolving anything (docs/ENGINE.md section 9, "Resolved
/// schedules").
struct World::Collectives {
  /// Resolved rounds. Entry k * p + v is vrank v's part of round k: `src`
  /// is the vrank it receives from (p for none), and `arrival` and
  /// `sender_done` are its send's offsets from its send time (0 for none).
  struct Schedule {
    std::vector<std::uint64_t> bytes;  ///< by vrank; empty: not kept
    std::vector<std::int32_t> src;
    std::vector<sim::Time> arrival;
    std::vector<sim::Time> sender_done;
  };

  /// One (group context, op)'s call in progress, indexed by vrank.
  struct Pending {
    std::vector<sim::Time> entry;
    std::vector<std::uint64_t> bytes;
    std::vector<std::coroutine_handle<>> parked;
    std::optional<Rounds> rounds;  ///< the first entrant's algorithm
    int entered = 0;
    Schedule schedule;  ///< kept for `bytes` in a memoizing World
  };

  /// The awaiter a rank parks on.
  struct Entry {
    Rank* rank;
    const Group* group;
    const Rounds* rounds;
    CollOp op;
    int vrank;
    std::uint64_t bytes;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      World& world = *rank->world_;
      world.collectives_->enter(world, *this, h);
    }
    void await_resume() const { rank->check_clock(); }
  };
  // A co_await temporary: core/task.h's GCC 12 constraint.
  static_assert(std::is_trivially_destructible_v<Entry>);

  void enter(World& world, const Entry& entry, std::coroutine_handle<> h);
  /// Times `call` from its entries into `time`, recording its spans.
  void time_call(World& world, const Group& group, Pending& call);
  /// Makes `schedule` hold `entries` entries within kScheduleEntries,
  /// dropping the other slots' schedules if they leave too little room;
  /// false, changing nothing, if `entries` alone exceed it.
  bool make_room(Schedule& schedule, std::size_t entries);
  /// Vrank `me`'s part of `rounds` as point-to-point calls on the
  /// collective tag `tag`, which Rank's user calls would refuse.
  static sim::Task<> send_rounds(Rank& rank, const Group& group, int tag,
                                 Rounds rounds, int me, std::uint64_t bytes);

  std::vector<Pending> pending;  ///< by context * kOpsPerContext + op
  std::size_t schedule_entries = 0;  ///< held by every slot's schedule
  /// The one round a call that keeps no schedule resolves into, p entries
  /// reused every round; its `bytes` stay empty.
  Schedule row;
  // Scratch, by vrank.
  std::vector<sim::Time> time;  ///< each rank's time entering the round
  std::vector<sim::Time> next;
  /// Of the message it sent this round, with a 0 at index p for the
  /// vranks that receive nothing.
  std::vector<sim::Time> arrival;
};

void World::Collectives::enter(World& world, const Entry& entry,
                               std::coroutine_handle<> h) {
  const std::size_t slot = static_cast<std::size_t>(
      entry.group->context() * kOpsPerContext + entry.op);
  if (pending.size() <= slot) pending.resize(slot + 1);
  Pending& call = pending[slot];
  const int p = entry.group->size();
  if (call.entered == 0) {
    const auto n = static_cast<std::size_t>(p);
    call.entry.resize(n);
    call.bytes.resize(n);
    call.parked.resize(n);
    call.rounds = *entry.rounds;
  }
  // Every rank must run the same algorithm, as the message path needs.
  CTESIM_EXPECTS(call.rounds->same_as(*entry.rounds));
  const auto v = static_cast<std::size_t>(entry.vrank);
  call.entry[v] = entry.rank->clock_;
  call.bytes[v] = entry.bytes;
  call.parked[v] = h;
  if (++call.entered < p) return;
  call.entered = 0;
  time.assign(call.entry.begin(), call.entry.end());
  time_call(world, *entry.group, call);
  // Every exit is at or after the latest entry, which is at or after the
  // engine's now: each rank's exit depends on every rank's entry. The
  // clocks carry the exits, so the ranks resume in vrank order.
  for (std::size_t r = 0; r < time.size(); ++r) {
    world.ranks_[static_cast<std::size_t>(entry.group->global(
                     static_cast<int>(r)))]
        .clock_ = time[r];
    world.run_queue_.push_back({nullptr, call.parked[r]});
  }
  world.counts_.wakes += time.size();
}

bool World::Collectives::make_room(Schedule& schedule, std::size_t entries) {
  if (entries > kScheduleEntries) return false;
  schedule_entries -= schedule.src.size();
  if (schedule_entries + entries > kScheduleEntries) {
    for (Pending& other : pending) {
      if (&other.schedule != &schedule) other.schedule = Schedule{};
    }
    schedule_entries = 0;
  }
  schedule.bytes.clear();
  if (schedule.src.size() != entries) {
    // Allocated to size, so the budget bounds the memory held.
    schedule.src = std::vector<std::int32_t>(entries);
    schedule.arrival = std::vector<sim::Time>(entries);
    schedule.sender_done = std::vector<sim::Time>(entries);
  }
  schedule_entries += entries;
  return true;
}

void World::Collectives::time_call(World& world, const Group& group,
                                   Pending& call) {
  // Round k, rank v at time[v] (what P2P computes for the same call): its
  // send is deposited at time[v]; its recv span from `src` is
  // [time[v], max(time[v], arrival of src's round-k message)]; it leaves
  // the round at the latest of that span's end and its send's
  // sender-side completion. The round's deliveries are resolved first, as
  // offsets from time[v]: sim::Time is integral, so time[v] plus an offset
  // is the formula's time bit for bit, with or without a window. A vrank
  // that sends nothing has offsets 0, one that receives nothing reads
  // arrival[p] = 0, and next[v] >= time[v] >= 0, so neither moves its
  // time. Spans are recorded round by round, every send before every
  // recv, which keeps each rank's own P2P order; only a traced call
  // derives peers and bytes again.
  const int p = group.size();
  const auto n = static_cast<std::size_t>(p);
  const Rounds& rounds = *call.rounds;
  Schedule& schedule = call.schedule;
  // A slot belongs to one group, and the same per-rank bytes give every
  // rank the same steps, so a kept schedule still holds; run() checks that
  // the network model, which its offsets came from, has not changed.
  const bool replay = world.memoizing() && schedule.bytes == call.bytes;
  const bool keep =
      !replay && world.memoizing() &&
      make_room(schedule, static_cast<std::size_t>(rounds.count()) * n);
  const bool kept = replay || keep;
  Schedule& rows = kept ? schedule : row;
  if (!kept) {
    row.src.resize(n);
    row.arrival.resize(n);
    row.sender_done.resize(n);
  }
  const bool traced = world.recorder_ != nullptr && world.recorder_->enabled();
  next.resize(n);
  arrival.resize(n + 1);
  arrival[n] = 0;
  for (int k = 0; k < rounds.count(); ++k) {
    const std::size_t base = kept ? static_cast<std::size_t>(k) * n : 0;
    std::int32_t* from = rows.src.data() + base;
    sim::Time* offset = rows.arrival.data() + base;
    sim::Time* done = rows.sender_done.data() + base;
    if (!replay) {
      for (std::size_t v = 0; v < n; ++v) {
        const Step step = rounds.step(static_cast<int>(v), k, call.bytes[v]);
        from[v] = step.src < 0 ? p : step.src;
        offset[v] = done[v] = 0;
        if (step.dst < 0) continue;
        const Delivery d =
            world.delivery(group.global(static_cast<int>(v)),
                           group.global(step.dst), step.bytes, time[v]);
        offset[v] = d.arrival - time[v];
        done[v] = d.sender_done - time[v];
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      arrival[v] = time[v] + offset[v];
      next[v] = std::max(time[v], time[v] + done[v]);
    }
    for (std::size_t v = 0; v < n; ++v) {
      next[v] = std::max(next[v], arrival[static_cast<std::size_t>(from[v])]);
    }
    if (traced) {
      for (std::size_t v = 0; v < n; ++v) {
        const Step step = rounds.step(static_cast<int>(v), k, call.bytes[v]);
        if (step.dst < 0) continue;
        world.record(group.global(static_cast<int>(v)), time[v],
                     time[v] + done[v], "send", "", step.bytes,
                     group.global(step.dst));
      }
      for (std::size_t v = 0; v < n; ++v) {
        const auto u = static_cast<std::size_t>(from[v]);
        if (u == n) continue;
        const Step sender = rounds.step(from[v], k, call.bytes[u]);
        world.record(group.global(static_cast<int>(v)), time[v],
                     std::max(time[v], arrival[u]), "recv", "", sender.bytes,
                     group.global(from[v]));
      }
    }
    time.swap(next);
  }
  if (replay) ++world.counts_.schedule_replays;
  if (keep) {
    schedule.bytes = call.bytes;
    ++world.counts_.schedule_resolves;
  }
}

sim::Task<> World::Collectives::send_rounds(Rank& rank, const Group& group,
                                            int tag, Rounds rounds, int me,
                                            std::uint64_t bytes) {
  for (int k = 0; k < rounds.count(); ++k) {
    const Step step = rounds.step(me, k, bytes);
    if (step.dst < 0 && step.src < 0) continue;
    P2P call(rank, step.bytes, tag);
    if (step.dst >= 0) call.to(group.global(step.dst));
    if (step.src >= 0) call.from(group.global(step.src));
    co_await call;
  }
}

Group::Group(std::vector<int> members, int context)
    : members_(std::move(members)), context_(context) {
  CTESIM_EXPECTS(!members_.empty());
  for (int v = 0; v < size(); ++v) {
    identity_ = identity_ && members_[static_cast<std::size_t>(v)] == v;
  }
  if (identity_) return;  // distinct, and vrank_of needs no index
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
                arch::default_app_compiler(options_.machine))),
      collectives_(std::make_unique<Collectives>()) {
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
    ranks_.push_back(Rank(*this, r));
    everyone[static_cast<std::size_t>(r)] = r;
  }
  world_group_.reset(new Group(std::move(everyone), /*context=*/0));
  if (options_.recorder) {
    recorder_ = options_.recorder;
  } else if (options_.trace) {
    owned_recorder_ = std::make_unique<trace::Recorder>(true);
    recorder_ = owned_recorder_.get();
  }
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

std::uint32_t World::mailbox_index(int dst, int src, int tag) {
  CTESIM_EXPECTS(dst >= 0 && dst < num_ranks());
  CTESIM_EXPECTS(src >= 0 && src < num_ranks());
  CTESIM_EXPECTS(tag >= 0 && tag < (1 << 24));
  ++counts_.mailbox_scans;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(src) << 24) | static_cast<std::uint64_t>(tag);
  std::vector<MailboxKey>& keys = mailboxes_[static_cast<std::size_t>(dst)];
  for (const MailboxKey& k : keys) {
    if (k.key == key) return k.box;
  }
  const auto box = static_cast<std::uint32_t>(boxes_.size());
  boxes_.emplace_back();
  keys.push_back({key, box});
  return box;
}

void World::Mailbox::put(const Message& message) {
  if (count < 2) {
    slots[(head + count) & 1u] = message;
    ++count;
    return;
  }
  if (!spill) spill = std::make_unique<Spill>();
  spill->buf.push_back(message);
}

bool World::Mailbox::take(Message& out) {
  if (count == 0) return false;
  out = slots[head];
  head ^= 1u;
  --count;
  if (spill && spill->head < spill->buf.size()) {
    std::vector<Message>& buf = spill->buf;
    slots[(head + count) & 1u] = buf[spill->head++];
    ++count;
    if (spill->head == buf.size()) {
      // Drained: keep the capacity for the next burst.
      buf.clear();
      spill->head = 0;
    } else if (2 * spill->head > buf.size()) {
      // Fewer live entries than dead ones: move the live ones down, at a
      // cost the pops since the last compaction already paid for.
      buf.erase(buf.begin(),
                buf.begin() + static_cast<std::ptrdiff_t>(spill->head));
      spill->head = 0;
    }
  }
  return true;
}

void World::record_span(int rank, sim::Time start, sim::Time end,
                        const char* kind, const char* detail,
                        std::uint64_t bytes, int peer) {
  recorder_->span(trace::Track::rank(rank), "mpi", kind, detail, start, end,
                  bytes, peer);
}

double World::run(const RankFn& body) {
  CTESIM_EXPECTS(!ran_);
  ran_ = true;
  // Without congestion and receive-degradation windows a delivery depends
  // on its send time only through `now +` (docs/ENGINE.md section 8), so
  // its offsets can be kept. Windows must be set before run().
  if (!congestion_ && !network_.has_recv_degradation()) {
    delivery_memo_.assign(kDeliveryMemoSlots, DeliveryMemo{});
  }
  const std::uint64_t network_revision = network_.revision();
  if (!congestion_) {
    // A parked rank has one entry at most, so neither buffer grows.
    run_queue_.reserve(ranks_.size());
    draining_.reserve(ranks_.size());
  }
  for (Rank& rank : ranks_) {
    engine_.spawn(run_rank(body, &rank));
  }
  // The engine runs the spawns (and every event of a congested World),
  // then the run queue resumes the ranks parked meanwhile. A rank resumed
  // there schedules an engine event only if its body does so itself.
  // Engine::run rethrows a rank's failure, wherever the rank ran.
  engine_.run();
  while (!run_queue_.empty()) {
    drain_run_queue();
    engine_.run();
  }
  if (memoizing() && network_.revision() != network_revision) {
    throw ContractError(
        "ctesim::mpi::World: the network model changed during run() and "
        "the kept delivery offsets went stale; set faults and jitter "
        "before run()");
  }
  if (engine_.unfinished_processes() != 0) {
    throw std::runtime_error(
        "ctesim::mpi::World: simulation deadlocked (" +
        std::to_string(engine_.unfinished_processes()) +
        " ranks blocked, e.g. a receive with no matching send)");
  }
  sim::Time end = engine_.now();
  for (const Rank& rank : ranks_) end = std::max(end, rank.clock_);
  return sim::to_seconds(end);
}

void World::drain_run_queue() {
  // FIFO by generations: what one batch of resumptions queues runs after
  // the whole batch, in the order it was queued.
  while (!run_queue_.empty()) {
    draining_.swap(run_queue_);
    for (const Resume& next : draining_) {
      if (next.handoff != nullptr) {
        next.handoff->on_handoff();
      } else {
        next.wake.resume();
      }
    }
    draining_.clear();
  }
}

double World::kernel_seconds(const roofline::KernelSig& sig, double elems,
                             int cores) {
  // Every field ExecModel::analyze_shared reads; a new one must join the
  // key.
  static_assert(sizeof(roofline::KernelSig) == 56);
  const std::array<std::uint64_t, 6> key{
      std::bit_cast<std::uint64_t>(sig.flops_per_elem),
      std::bit_cast<std::uint64_t>(sig.bytes_per_elem),
      std::bit_cast<std::uint64_t>(sig.vec_potential),
      std::bit_cast<std::uint64_t>(sig.overlap),
      std::bit_cast<std::uint64_t>(elems),
      static_cast<std::uint64_t>(sig.cls) << 40 |
          static_cast<std::uint64_t>(sig.precision) << 32 |
          static_cast<std::uint32_t>(cores)};
  const std::size_t filled =
      std::min<std::uint64_t>(kernel_memo_misses_, kernel_memo_.size());
  for (std::size_t i = 0; i < filled; ++i) {
    if (kernel_memo_[i].key == key) {
      ++counts_.compute_memo_hits;
      return kernel_memo_[i].seconds;
    }
  }
  KernelMemo& slot =
      kernel_memo_[kernel_memo_misses_++ % kernel_memo_.size()];
  slot.key = key;
  slot.seconds =
      exec_.analyze_shared(sig, elems, cores, rank_bw_share_).total_s;
  return slot.seconds;
}

World::Delivery World::delivery(int src, int dst, std::uint64_t bytes,
                                sim::Time now) {
  const int src_node = placement_.node_of(src);
  const int dst_node = placement_.node_of(dst);
  if (!memoizing()) return evaluate(src_node, dst_node, bytes, now);
  const std::uint64_t pair =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_node))
       << 32) |
      static_cast<std::uint32_t>(dst_node);
  const std::uint64_t hash =
      (pair * 0x9e3779b97f4a7c15ULL) ^ (bytes * 0xc2b2ae3d27d4eb4fULL);
  DeliveryMemo& slot = delivery_memo_[hash >> (64 - kDeliveryMemoBits)];
  if (slot.src_node == src_node && slot.dst_node == dst_node &&
      slot.bytes == bytes) {
    ++counts_.delivery_memo_hits;
  } else {
    // The offsets are the formula's times for a send at 0.
    const Delivery d = evaluate(src_node, dst_node, bytes, 0);
    slot = {src_node, dst_node, bytes, d.arrival, d.sender_done};
  }
  return {now + slot.arrival, now + slot.sender_done};
}

World::Delivery World::evaluate(int src_node, int dst_node,
                                std::uint64_t bytes, sim::Time now) {
  ++counts_.delivery_evals;
  if (src_node == dst_node) {
    const arch::NodeModel& nm = machine().node;
    CTESIM_EXPECTS(nm.shm_bw > 0.0);
    const double t =
        nm.shm_latency + static_cast<double>(bytes) / nm.shm_bw;
    const sim::Time arrival = now + sim::from_seconds(t);
    // The copy occupies the sender too (shared-memory transport).
    return {arrival, arrival};
  }
  const auto transfer =
      network_.transfer(src_node, dst_node, bytes, sim::to_seconds(now));
  const sim::Time arrival =
      congestion_ ? congestion_->transfer_at(src_node, dst_node, bytes, now)
                  : now + sim::from_seconds(transfer.time_s);
  if (transfer.rendezvous) {
    // Large message: sender stays coupled until delivery completes.
    return {arrival, arrival};
  }
  // Eager: sender pays injection overhead + wire occupancy only.
  const auto& spec = network_.spec();
  const double inject =
      0.5 * spec.base_latency_s +
      static_cast<double>(bytes) / (spec.link_bw * spec.eff_bw_factor);
  return {arrival, now + sim::from_seconds(inject)};
}

// --------------------------------------------------------------- Rank ----

void Rank::deposit(World::Mailbox& box, int dst, std::uint64_t bytes,
                   const World::Delivery& d) {
  const Message message{bytes, d.arrival};
  if (P2P* p2p = std::exchange(box.receiver, nullptr)) {
    // Hand the message to the parked receive. Its recv span ends at
    // max(cursor, arrival) whenever the hand-off runs, so a World without
    // congestion queues it; a congested one keeps it in time order, as
    // an event at the end of that span.
    p2p->value_ = message;
    World& world = *world_;
    if (world.congestion_) {
      auto handoff = [p2p] { p2p->on_handoff(); };
      static_assert(sim::Engine::Callback::fits_inline<decltype(handoff)>,
                    "simmpi must never schedule a spilling closure");
      sim::Engine& engine = world.engine_;
      engine.schedule_at(
          std::max({engine.now(), d.arrival, p2p->recv_start_}),
          std::move(handoff));
    } else {
      world.run_queue_.push_back({p2p, {}});
      ++world.counts_.handoffs;
    }
  } else {
    box.put(message);
  }
  world_->record(id_, clock_, d.sender_done, "send", "", bytes, dst);
}

const World::Route& Rank::route(std::span<const int> neighbors,
                                std::uint64_t bytes, int tag) {
  const auto same_peers = [neighbors](const World::Route& r) {
    return std::equal(neighbors.begin(), neighbors.end(), r.hops.begin(),
                      r.hops.end(), [](int peer, const World::Route::Hop& h) {
                        return peer == h.peer;
                      });
  };
  for (const int i : {int{last_route_}, 1 - last_route_}) {
    const World::Route& r = routes_[i];
    if (r.tag == tag && r.bytes == bytes && same_peers(r)) {
      last_route_ = static_cast<std::uint8_t>(i);
      ++world_->counts_.route_hits;
      return r;
    }
  }
  ++world_->counts_.route_misses;
  for (const int peer : neighbors) {
    CTESIM_EXPECTS(peer >= 0 && peer < size());
  }
  last_route_ = static_cast<std::uint8_t>(1 - last_route_);
  World::Route& r = routes_[last_route_];
  World& world = *world_;
  r.tag = -1;  // unresolved until every mailbox exists
  r.hops.clear();
  for (const int peer : neighbors) {
    World::Route::Hop hop{peer, world.mailbox_index(peer, id_, tag),
                          world.mailbox_index(id_, peer, tag), 0, 0};
    if (world.memoizing()) {
      const World::Delivery d = world.delivery(id_, peer, bytes, 0);
      hop.arrival = d.arrival;
      hop.sender_done = d.sender_done;
    }
    r.hops.push_back(hop);
  }
  r.bytes = bytes;
  r.tag = tag;
  return r;
}

P2P Rank::send(int dst, std::uint64_t bytes, int tag) {
  return P2P(*this, bytes, user_tag(tag)).to(dst);
}

P2P Rank::recv(int src, int tag) {
  return P2P(*this, 0, user_tag(tag)).from(src);
}

P2P Rank::sendrecv(int dst, std::uint64_t send_bytes, int src, int tag) {
  // Full duplex: post the outgoing message, then block on the incoming one;
  // settle any residual sender-side occupancy afterwards.
  return P2P(*this, send_bytes, user_tag(tag)).to(dst).from(src);
}

P2P Rank::exchange(std::span<const int> neighbors, std::uint64_t bytes_each,
                   int tag) {
  return P2P(*this, bytes_each, user_tag(tag))
      .along(route(neighbors, bytes_each, tag));
}

// ------------------------------------------------------------------ P2P --

bool P2P::await_ready() {
  World& world = *rank_->world_;
  const int me = rank_->id_;
  const sim::Time now = rank_->clock_;
  recv_start_ = latest_send_ = now;
  if (hops_) {
    // An exchange: its route was validated and resolved by Rank::route.
    for (int i = 0; i < num_dsts_; ++i) {
      const World::Route::Hop& hop = hops_[i];
      const World::Delivery d =
          world.memoizing()
              ? World::Delivery{now + hop.arrival, now + hop.sender_done}
              : world.delivery(me, hop.peer, bytes_, now);
      rank_->deposit(world.boxes_[hop.out], hop.peer, bytes_, d);
      latest_send_ = std::max(latest_send_, d.sender_done);
    }
    return receive_next();
  }
  if (num_srcs_ > 0) CTESIM_EXPECTS(src_ >= 0 && src_ < rank_->size());
  if (num_dsts_ > 0) {
    CTESIM_EXPECTS(dst_ >= 0 && dst_ < rank_->size());
    const World::Delivery d = world.delivery(me, dst_, bytes_, now);
    rank_->deposit(world.mailbox(dst_, me, tag_), dst_, bytes_, d);
    latest_send_ = d.sender_done;
  }
  return receive_next();
}

bool P2P::receive_next() {
  World& world = *rank_->world_;
  while (next_src_ < num_srcs_) {
    World::Mailbox& box = hops_ ? world.boxes_[hops_[next_src_].in]
                                : world.mailbox(rank_->id_, src_, tag_);
    if (!box.take(value_)) {
      CTESIM_DCHECK(box.receiver == nullptr,
                    "a mailbox has one receiver: its rank's one P2P call");
      box.receiver = this;
      return false;  // the hand-off calls on_handoff, at >= the cursor
    }
    received();
  }
  return finish();
}

void P2P::received() {
  const sim::Time end = std::max(recv_start_, value_.arrival);
  rank_->world_->record(rank_->id_, recv_start_, end, "recv", "",
                        value_.bytes, hops_ ? hops_[next_src_].peer : src_);
  recv_start_ = end;
  ++next_src_;
}

void P2P::on_handoff() {
  received();
  if (receive_next()) handle_.resume();
}

bool P2P::finish() {
  World& world = *rank_->world_;
  const sim::Time done = std::max(recv_start_, latest_send_);
  rank_->clock_ = done;
  if (world.must_sleep_until(done)) {
    world.engine_.schedule_at(done, [this] { handle_.resume(); });
    return false;
  }
  return true;
}

std::uint64_t P2P::await_resume() const {
  rank_->check_clock();
  return value_.bytes;
}

// ---------------------------------------------------------- collectives --

sim::Task<> Rank::barrier() { return barrier(world_->world_group()); }

sim::Task<> Rank::barrier(const Group& group) {
  return collective(group, kOpBarrier, 1);
}

sim::Task<> Rank::collective(const Group& group, int op,
                             std::uint64_t bytes) {
  const int me = group.vrank_of(id_);
  CTESIM_EXPECTS(me >= 0);
  const auto coll_op = static_cast<CollOp>(op);
  const Rounds rounds(coll_op, group.size(), bytes,
                      world_->options_.allreduce_ring_threshold);
  if (rounds.count() == 0) co_return;
  if (world_->congestion_) {
    // CongestionModel::transfer_at books links in call order, so only a
    // congestion-free World may compute the rounds ahead of the clock.
    // The message loop is a coroutine of its own, which keeps its P2P
    // awaiter out of this frame: every rank of a NEMO World holds one
    // while it is parked in a schedule.
    co_await World::Collectives::send_rounds(
        *this, group, coll_tag(group, coll_op), rounds, me, bytes);
  } else {
    co_await World::Collectives::Entry{this, &group, &rounds, coll_op, me,
                                       bytes};
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
      co_await P2P(*this, 0, tag).from(group.global(src));
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < p) {
      const int dst = (relative + mask + root_vrank) % p;
      co_await P2P(*this, bytes, tag).to(group.global(dst));
    }
    mask >>= 1;
  }
}

sim::Task<> Rank::allreduce(std::uint64_t bytes) {
  return allreduce(world_->world_group(), bytes);
}

sim::Task<> Rank::allreduce(const Group& group, std::uint64_t bytes) {
  return collective(group, kOpAllreduce, bytes);
}

sim::Task<> Rank::allgather(std::uint64_t bytes_per_rank) {
  return allgather(world_->world_group(), bytes_per_rank);
}

sim::Task<> Rank::allgather(const Group& group,
                            std::uint64_t bytes_per_rank) {
  return collective(group, kOpAllgather, bytes_per_rank);
}

sim::Task<> Rank::alltoall(std::uint64_t bytes_per_pair) {
  return alltoall(world_->world_group(), bytes_per_pair);
}

sim::Task<> Rank::alltoall(const Group& group, std::uint64_t bytes_per_pair) {
  return collective(group, kOpAlltoall, bytes_per_pair);
}

sim::Task<> Rank::reduce_scatter(std::uint64_t total_bytes) {
  return reduce_scatter(world_->world_group(), total_bytes);
}

sim::Task<> Rank::reduce_scatter(const Group& group,
                                 std::uint64_t total_bytes) {
  return collective(group, kOpReduceScatter, total_bytes);
}

// -------------------------------------------------------------- compute --

Rank::Advance Rank::compute(const roofline::KernelSig& sig, double elems) {
  double seconds = world_->kernel_seconds(sig, elems, slot().cores);
  if (world_->options_.compute_jitter > 0.0) {
    auto& rng = world_->jitter_[static_cast<std::size_t>(id_)];
    seconds *= 1.0 + world_->options_.compute_jitter * std::fabs(rng.normal());
  }
  return advance_by(seconds, sig.name);
}

Rank::Advance Rank::compute_seconds(double seconds) {
  CTESIM_EXPECTS(seconds >= 0.0);
  return advance_by(seconds, "fixed");
}

}  // namespace ctesim::mpi
