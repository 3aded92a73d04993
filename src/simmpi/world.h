// Simulated MPI world: ranks as coroutine actors over the DES engine, with
// point-to-point messaging timed by the network/node models and collective
// operations implemented as the standard algorithms (binomial tree,
// recursive doubling, ring, pairwise exchange). The rooted bcast always
// runs on point-to-point messages; allreduce, allgather, alltoall,
// barrier and reduce_scatter do too when congestion is modelled, and are
// otherwise timed as one max-plus schedule once the last rank enters,
// round by round: each round is resolved into delivery offsets, or read
// from the rounds a memoizing World kept when the call repeats, then
// timed (docs/ENGINE.md section 9).
//
// Every rank keeps its own simulated clock (Rank::now), at or after the
// engine's. Compute and a receive whose messages are already queued
// move only that clock. Without congestion a rank's timing depends only
// on its own program and on message arrival times, so results do not
// depend on which rank runs first: the engine dispatches only the spawns,
// and each hand-off to a blocked receive and each collective wake
// resumes its rank from a World-owned FIFO run queue. A congested World
// keeps every running rank's clock equal to the engine's and resumes
// its ranks through the engine in time order (docs/ENGINE.md section 10).
//
// A World is one-shot: construct, run(), read results. The simulation is
// deterministic for a fixed (options, placement, body).
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "arch/configs.h"
#include "arch/machine.h"
#include "core/engine.h"
#include "net/congestion.h"
#include "net/network.h"
#include "roofline/exec_model.h"
#include "simmpi/placement.h"
#include "trace/recorder.h"
#include "util/assert.h"
#include "util/rng.h"

namespace ctesim::mpi {

/// An in-flight message (payload is sizes only; ctesim models time, the
/// numerics live in src/kernels).
struct Message {
  std::uint64_t bytes = 0;
  sim::Time arrival = 0;  ///< absolute simulated arrival time
};

/// An ordered subset of world ranks — the communicator equivalent.
/// Collectives on different groups are isolated by a per-group context in
/// the tag space. Create via World::create_group.
class Group {
 public:
  int size() const { return static_cast<int>(members_.size()); }
  /// Global rank of the group's `vrank`-th member.
  int global(int vrank) const {
    CTESIM_EXPECTS(vrank >= 0 && vrank < size());
    return members_[static_cast<std::size_t>(vrank)];
  }
  /// Position of a global rank in the group, -1 if absent.
  int vrank_of(int global_rank) const {
    if (identity_) {
      return global_rank >= 0 && global_rank < size() ? global_rank : -1;
    }
    auto it = index_.find(global_rank);
    return it == index_.end() ? -1 : it->second;
  }
  bool contains(int global_rank) const { return vrank_of(global_rank) >= 0; }
  int context() const { return context_; }

 private:
  friend class World;
  Group(std::vector<int> members, int context);

  std::vector<int> members_;
  // Lookup-only reverse index (never iterated): hash order cannot reach
  // simulation results. Ordered iteration happens over members_. Empty
  // when the members are 0 .. size() - 1 in order (the world group, or
  // any group equal to it), where a rank's vrank is its id.
  std::unordered_map<int, int> index_;
  int context_;
  bool identity_ = true;
};

struct WorldOptions {
  arch::MachineModel machine;
  /// Compiler used for the workload; defaults to the paper's choice for the
  /// machine (GNU on CTE-Arm, Intel on MareNostrum 4).
  std::optional<arch::CompilerModel> compiler;
  /// Relative magnitude of per-call compute-time noise (system jitter,
  /// imbalance). 0 disables. Noise only ever slows a rank down.
  double compute_jitter = 0.0;
  /// Deterministic seed for the jitter streams.
  std::uint64_t seed = 42;
  /// Per-pair network bandwidth jitter amplitude (see net::Network).
  double network_jitter = 0.03;
  /// Record a per-rank execution timeline into a World-owned
  /// trace::Recorder (see World::recorder()).
  bool trace = false;
  /// Record into this externally owned recorder instead — lets one trace
  /// span the whole simulation (batch queue + per-rank MPI + network).
  /// Implies tracing regardless of `trace`. Must outlive the World.
  trace::Recorder* recorder = nullptr;
  /// Model shared-link contention on the interconnect (see
  /// net::CongestionModel). Off by default: the figure harnesses are
  /// calibrated contention-free; turn on for congestion studies.
  bool congestion = false;
  /// Payload size above which allreduce switches from recursive doubling
  /// to the bandwidth-optimal ring (reduce-scatter + allgather).
  std::uint64_t allreduce_ring_threshold = 256 * 1024;
};

class Rank;
class P2P;

class World {
 public:
  World(WorldOptions options, Placement placement);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  using RankFn = std::function<sim::Task<>(Rank&)>;

  /// Run `body` on every rank to completion. Returns the makespan in
  /// simulated seconds. Throws if the workload deadlocks (unmatched
  /// receives) or a rank throws.
  double run(const RankFn& body);

  int num_ranks() const { return placement_.num_ranks(); }
  const Placement& placement() const { return placement_; }
  const arch::MachineModel& machine() const { return options_.machine; }
  net::Network& network() { return network_; }
  /// The event engine. Its clock may lag rank time: without congestion it
  /// dispatches only the spawns, and a congested World's ranks sleep in
  /// it. So a rank reads its time from Rank::now and spends time through
  /// Rank's calls, never by sleeping on the engine itself.
  sim::Engine& engine() { return engine_; }
  const roofline::ExecModel& exec() const { return exec_; }

  /// The group containing every rank, in rank order.
  const Group& world_group() const { return *world_group_; }

  /// A new group over `members` (global ranks, all distinct, in the given
  /// order) with its own collective context.
  Group create_group(std::vector<int> members);

  /// How often the message path resolved a mailbox or a delivery from
  /// scratch and how often it reused one, how often a collective resolved
  /// its schedule and how often it replayed one, how often a rank resumed
  /// from the run queue, and how often compute reused a model evaluation.
  /// Diagnostic counts, not knobs: they change no simulated result.
  struct OpCounts {
    std::uint64_t mailbox_scans = 0;  ///< key-array scans for a mailbox
    std::uint64_t route_hits = 0;     ///< exchanges on a cached route
    std::uint64_t route_misses = 0;   ///< exchanges that resolved a route
    std::uint64_t delivery_evals = 0;  ///< timing formula evaluated in full
    std::uint64_t delivery_memo_hits = 0;  ///< deliveries from the table
    std::uint64_t handoffs = 0;  ///< run-queue hand-offs to parked receives
    std::uint64_t wakes = 0;     ///< run-queue wakes from collectives
    std::uint64_t compute_memo_hits = 0;  ///< Rank::compute from the memo
    std::uint64_t schedule_resolves = 0;  ///< collectives that kept rounds
    std::uint64_t schedule_replays = 0;   ///< collectives replayed from them
  };
  const OpCounts& op_counts() const { return counts_; }

  /// Time spent queueing behind busy links so far (0 unless
  /// WorldOptions::congestion is on).
  double network_queueing_seconds() const {
    return congestion_ ? congestion_->total_queueing_seconds() : 0.0;
  }

  // --- tracing ------------------------------------------------------------
  /// The recorder events go to: the external one from WorldOptions, the
  /// World-owned one when WorldOptions::trace is set, else nullptr.
  /// Per-rank compute/send/recv spans land on trace::Track::rank(r) with
  /// category "mpi"; render with report::Gantt or trace::write_chrome_trace.
  const trace::Recorder* recorder() const { return recorder_; }

 private:
  friend class Rank;
  friend class P2P;

  /// When a message sent at `now` arrives, and when its sender is free.
  struct Delivery {
    sim::Time arrival;
    sim::Time sender_done;
  };
  /// The one timing formula of a message from rank `src` to `dst`, shared
  /// by the point-to-point calls and the collective schedules so that both
  /// round alike. In a memoizing World it is `now` plus offsets that
  /// depend on (source node, destination node, bytes) alone, which a
  /// direct-mapped table keeps.
  Delivery delivery(int src, int dst, std::uint64_t bytes, sim::Time now);
  /// The formula itself, between two nodes.
  Delivery evaluate(int src_node, int dst_node, std::uint64_t bytes,
                    sim::Time now);
  /// True when a delivery is its send time plus fixed offsets: no
  /// congestion and no receive-degradation window, decided once in run().
  /// run() throws ContractError if the network model changed meanwhile.
  bool memoizing() const { return !delivery_memo_.empty(); }
  /// True when a rank whose clock has moved to `t` must sleep in the
  /// engine until `t` before it goes on. Only a congested World sleeps:
  /// CongestionModel::transfer_at books links in call order, so its
  /// deposits must happen in simulated-time order.
  bool must_sleep_until(sim::Time t) const {
    return congestion_ != nullptr && t > engine_.now();
  }
  /// A parked rank to resume from the run queue: a hand-off to its
  /// receive, or else a collective wake. Only a World without congestion
  /// queues them; a congested one schedules them on the engine.
  struct Resume {
    P2P* handoff = nullptr;
    std::coroutine_handle<> wake;
  };
  /// Resume every queued rank in FIFO order, and each one those queue in
  /// turn, until the queue is empty.
  void drain_run_queue();
  /// ExecModel::analyze_shared(sig, elems, cores, rank_bw_share_).total_s,
  /// kept in a small memo keyed on every KernelSig field the model reads.
  double kernel_seconds(const roofline::KernelSig& sig, double elems,
                        int cores);
  /// One destination's receive queue for one (source, tag): the messages
  /// deposited before their receive was posted, in send order, or else the
  /// one receive parked on it, never both. Only the destination receives,
  /// and a rank has at most one P2P call in flight, so at most one receive
  /// ever parks here. Most mailboxes are short or idle: the first two
  /// queued messages live inline, and a spill FIFO is allocated only when
  /// a third one is queued.
  struct Mailbox {
    /// Queue a message (no receive is parked).
    void put(const Message& message);
    /// Move the front message into `out`; false if there is none.
    bool take(Message& out);

    P2P* receiver = nullptr;
    /// The messages behind the inline two: live ones are [head, end).
    struct Spill {
      std::vector<Message> buf;
      std::size_t head = 0;
    };
    std::unique_ptr<Spill> spill;
    /// A ring of two: the front is slots[head]. Messages spill only while
    /// both slots are full, so a free slot means the spill is empty.
    Message slots[2];
    std::uint8_t head = 0;
    std::uint8_t count = 0;
  };
  static_assert(sizeof(Mailbox) <= 64);
  Mailbox& mailbox(int dst, int src, int tag) {
    return boxes_[mailbox_index(dst, src, tag)];
  }
  /// Index in boxes_ of `dst`'s (src, tag) mailbox, created on first
  /// touch. Indices are stable: the arena only grows.
  std::uint32_t mailbox_index(int dst, int src, int tag);

  /// A resolved exchange (Rank::route): per neighbour, the mailbox its
  /// message goes into, the one its message comes from and, in a
  /// memoizing World, the delivery's offsets from the send time. The
  /// mailboxes are arena indices, so a hop reaches its mailbox in one
  /// step and stays valid when the arena reallocates.
  struct Route {
    struct Hop {
      int peer;
      std::uint32_t out;  ///< index in boxes_ of the peer's mailbox
      std::uint32_t in;   ///< index in boxes_ of this rank's mailbox
      sim::Time arrival;
      sim::Time sender_done;
    };
    std::vector<Hop> hops;
    std::uint64_t bytes = 0;
    int tag = -1;  ///< -1: never resolved
  };

  void record(int rank, sim::Time start, sim::Time end, const char* kind,
              const char* detail, std::uint64_t bytes, int peer) {
    if (recorder_ != nullptr && recorder_->enabled()) {
      record_span(rank, start, end, kind, detail, bytes, peer);
    }
  }
  void record_span(int rank, sim::Time start, sim::Time end, const char* kind,
                   const char* detail, std::uint64_t bytes, int peer);

  WorldOptions options_;
  Placement placement_;
  net::Network network_;
  roofline::ExecModel exec_;
  sim::Engine engine_;
  /// By id; reserved once in the constructor, so a Rank never moves.
  std::vector<Rank> ranks_;
  /// Every mailbox of the World, for every (destination, source, tag), in
  /// first-touch order (deterministic): one arena, so a deposit or a
  /// receive through an index touches the mailbox alone. Mailboxes move
  /// when the arena grows, so an exchange's route holds them by index;
  /// nothing holds a Mailbox& across a suspension, or across a call that
  /// may create a mailbox (docs/ENGINE.md section 7).
  std::vector<Mailbox> boxes_;
  /// One destination's mailboxes: each (src, tag) key with its index in
  /// boxes_, in first-touch order, scanned linearly. Scheduled
  /// collectives send no message, so a NEMO rank has only its halo
  /// neighbours (at most 4); bcast, user messages and congested Worlds,
  /// whose collectives are messages (the widest: OpenIFS's alltoall gives
  /// each of up to 192 actors p - 1 sources), add more. A per-destination
  /// hash measured no faster (docs/ENGINE.md section 7).
  struct MailboxKey {
    std::uint64_t key;  ///< source << 24 | tag
    std::uint32_t box;  ///< index in boxes_
  };
  std::vector<std::vector<MailboxKey>> mailboxes_;
  /// One slot of the delivery table: the offsets of a (source node,
  /// destination node, bytes) delivery from its send time.
  struct DeliveryMemo {
    std::int32_t src_node = -1;  ///< -1: empty
    std::int32_t dst_node = -1;
    std::uint64_t bytes = 0;
    sim::Time arrival = 0;
    sim::Time sender_done = 0;
  };
  static_assert(sizeof(DeliveryMemo) == 32);
  /// Direct-mapped, a fixed number of slots; empty unless memoizing. A
  /// slot another key holds is overwritten, so memory stays bounded at any
  /// rank count (docs/ENGINE.md section 9).
  std::vector<DeliveryMemo> delivery_memo_;
  /// The run queue: resumptions queued while the ranks in `draining_`
  /// run, in the order they were queued. Each vector holds at most one
  /// entry per rank, and run() reserves that much.
  std::vector<Resume> run_queue_;
  std::vector<Resume> draining_;
  /// One entry of the compute memo: the model's inputs, bit for bit (the
  /// kernel class, precision and core count share the last word), and its
  /// time.
  struct KernelMemo {
    std::array<std::uint64_t, 6> key{};
    double seconds = 0.0;
  };
  /// A few entries, replaced round robin: a proxy alternates between a
  /// handful of (kernel, elements) pairs, the same on most ranks.
  std::array<KernelMemo, 4> kernel_memo_;
  std::uint64_t kernel_memo_misses_ = 0;
  OpCounts counts_;
  std::vector<Rng> jitter_;
  std::unique_ptr<Group> world_group_;
  std::unique_ptr<net::CongestionModel> congestion_;
  /// Scheduled collectives: per (group, op) entry state and kept
  /// schedule, and the timing pass's scratch, reused across calls
  /// (defined in world.cpp).
  struct Collectives;
  std::unique_ptr<Collectives> collectives_;
  int next_group_context_ = 1;
  std::unique_ptr<trace::Recorder> owned_recorder_;
  trace::Recorder* recorder_ = nullptr;
  /// Fair raw-bandwidth share of one rank when all node ranks run (SPMD).
  units::BytesPerSec rank_bw_share_{0.0};
  bool ran_ = false;
};

/// The awaiter behind every point-to-point call (Rank::send, recv,
/// sendrecv and exchange). It deposits every outgoing message, then
/// receives from each source in order and resumes the caller once, at
/// the later of its last recv span's end and its latest sender-side
/// occupancy. `co_await` yields the byte count of the last message
/// received (0 for a plain send).
///
/// The receives run on a simulated cursor, `recv_start_`, that starts at
/// the rank's clock and may run ahead of the engine clock: each source's
/// recv span is [cursor, max(cursor, arrival)], and the cursor then moves
/// to its end. A message already queued is consumed at once, with no
/// event. A source whose message has not been deposited yet parks the
/// awaiter on its mailbox, and the deposit hands the message over: it
/// queues the awaiter on the World's run queue, or, in a congested World,
/// schedules an engine event at max(cursor, arrival), the end of that
/// span. The span's end does not depend on when the hand-off runs, and
/// the call then moves the rank's clock to its end without an event (a
/// congested World sleeps there instead). So a call costs one run-queue
/// resumption per source it had to wait for (one engine event when
/// congested), and every span, simulated time and per-rank record order
/// is what a receive that slept until each arrival would produce.
///
/// A small state machine instead of nested sim::Tasks, so a call costs no
/// coroutine frame. Every peer rank is validated before the first
/// deposit (an exchange's when its route is resolved), so a ContractError
/// reaches the calling rank and never escapes an engine callback.
/// Returned by value, so a single peer is stored inline (a span into the
/// awaiter would dangle); an exchange reads its peers and mailboxes from
/// its rank's cached route.
class [[nodiscard]] P2P {
 public:
  bool await_ready();
  void await_suspend(std::coroutine_handle<> h) { handle_ = h; }
  std::uint64_t await_resume() const;

 private:
  friend class Rank;
  friend class World;
  P2P(Rank& rank, std::uint64_t bytes, int tag)
      : rank_(&rank), bytes_(bytes), tag_(tag) {}
  P2P& to(int dst) {
    dst_ = dst;
    num_dsts_ = 1;
    return *this;
  }
  P2P& from(int src) {
    src_ = src;
    num_srcs_ = 1;
    return *this;
  }
  P2P& along(const World::Route& route) {
    hops_ = route.hops.data();
    num_dsts_ = num_srcs_ = static_cast<int>(route.hops.size());
    return *this;
  }

  // The states after await_ready (the start). Each returns true when the
  // call has finished, false once a hand-off (or a congested World's
  // wake) will re-enter it.
  bool receive_next();
  bool finish();
  /// Records the recv span of the message in `value_` and advances the
  /// cursor past it.
  void received();
  /// Hand-off entry, from the run queue (or a congested World's engine
  /// event at the end of its recv span): the span, then the rest of the
  /// call; resumes the caller if that has finished.
  void on_handoff();

  Rank* rank_;
  std::coroutine_handle<> handle_;
  Message value_;  ///< the last message received
  /// exchange: its route's hops, each a destination and a source
  const World::Route::Hop* hops_ = nullptr;
  std::uint64_t bytes_;
  sim::Time recv_start_ = 0;  ///< receive cursor: the next span's start
  sim::Time latest_send_ = 0;
  int tag_;
  int dst_ = 0;
  int src_ = 0;
  int num_dsts_ = 0;
  int num_srcs_ = 0;
  int next_src_ = 0;
};
// A co_await temporary: core/task.h's GCC 12 constraint.
static_assert(std::is_trivially_destructible_v<P2P>);

/// Handle a rank's coroutine uses to interact with the simulated machine.
/// All communication/compute methods are awaitable.
class Rank {
 public:
  int id() const { return id_; }
  int size() const { return world_->num_ranks(); }
  const RankSlot& slot() const { return world_->placement_.slot(id_); }
  int node() const { return slot().node; }
  World& world() { return *world_; }

  /// This rank's simulated clock: at or after the engine's.
  sim::Time now() const { return clock_; }
  /// now(), in seconds.
  double now_s() const { return sim::to_seconds(clock_); }

  /// Largest tag usable in point-to-point calls; higher values are
  /// reserved for the collective algorithms' internal messages.
  static constexpr int kMaxUserTag = (1 << 20) - 1;

  // --- point-to-point (a tag outside [0, kMaxUserTag] throws) -------------
  P2P send(int dst, std::uint64_t bytes, int tag = 0);
  /// Awaits to the received byte count.
  P2P recv(int src, int tag = 0);
  /// Full-duplex exchange (MPI_Sendrecv): awaits to the received byte
  /// count.
  P2P sendrecv(int dst, std::uint64_t send_bytes, int src, int tag = 0);
  /// Post sends to all neighbors, then receive one message from each —
  /// the halo-exchange pattern every domain-decomposed app uses. The
  /// neighbours' mailboxes (and, in a memoizing World, the deliveries'
  /// offsets) are resolved once per (tag, bytes, neighbours) and reused
  /// while they repeat; the rank keeps its last two routes, so exchanges
  /// alternating between two tags both reuse theirs.
  P2P exchange(std::span<const int> neighbors, std::uint64_t bytes_each,
               int tag = 0);

  // --- collectives --------------------------------------------------------
  // Each has a whole-world form and a Group form. Group arguments must
  // outlive the await (named lvalues, per the core/task.h GCC constraint).
  // All but bcast (barrier, allreduce, allgather, alltoall,
  // reduce_scatter) give every rank the spans and exit time their
  // point-to-point algorithm would, but without congestion they send no
  // message: each rank parks, and the last one in times the schedule.
  sim::Task<> barrier();                       ///< dissemination
  sim::Task<> barrier(const Group& group);
  sim::Task<> bcast(int root, std::uint64_t bytes);      ///< binomial tree
  sim::Task<> bcast(const Group& group, int root_vrank, std::uint64_t bytes);
  /// Recursive doubling below WorldOptions::allreduce_ring_threshold,
  /// bandwidth-optimal ring (reduce-scatter + allgather) above it.
  sim::Task<> allreduce(std::uint64_t bytes);
  sim::Task<> allreduce(const Group& group, std::uint64_t bytes);
  sim::Task<> allgather(std::uint64_t bytes_per_rank);   ///< ring
  sim::Task<> allgather(const Group& group, std::uint64_t bytes_per_rank);
  sim::Task<> alltoall(std::uint64_t bytes_per_pair);    ///< pairwise
  sim::Task<> alltoall(const Group& group, std::uint64_t bytes_per_pair);
  /// Pairwise-halving reduce-scatter of a `total_bytes` buffer.
  sim::Task<> reduce_scatter(std::uint64_t total_bytes);
  sim::Task<> reduce_scatter(const Group& group, std::uint64_t total_bytes);

  // --- compute -----------------------------------------------------------
  /// The awaiter of a compute call: a compute span from the rank's clock
  /// at the call to `to`. The call has already read the model and drawn
  /// the jitter, in the same full-expression as its co_await. Awaiting
  /// moves the rank's clock to `to` with no engine event, unless the World
  /// must sleep until then (World::must_sleep_until), and records the span
  /// once the rank goes on, after any sleep. A plain awaiter, not a
  /// sim::Task, so a compute call costs no coroutine frame.
  class [[nodiscard]] Advance {
   public:
    bool await_ready() const noexcept;
    void await_suspend(std::coroutine_handle<> h) const;
    void await_resume() const;

   private:
    friend class Rank;
    Advance(Rank* rank, sim::Time start, sim::Time to, const char* detail)
        : rank_(rank), start_(start), to_(to), detail_(detail) {}

    Rank* rank_;
    sim::Time start_;
    sim::Time to_;
    const char* detail_;  ///< the span's detail: the kernel's name
  };

  /// Run `elems` elements of `sig` on this rank's cores.
  Advance compute(const roofline::KernelSig& sig, double elems);
  /// Occupy this rank for a fixed time (I/O waits, serial sections).
  Advance compute_seconds(double seconds);

 private:
  friend class World;
  friend class P2P;
  Rank(World& world, int id) : world_(&world), id_(id) {}

  /// A compute span of `seconds` from now(), labelled `detail`.
  Advance advance_by(double seconds, const char* detail) {
    const sim::Time to = clock_ + sim::from_seconds(seconds);
    CTESIM_EXPECTS(to >= clock_);
    return Advance(this, clock_, to, detail);
  }
  /// The rank-clock invariant, checked on every resume (CTESIM_CHECKS;
  /// a violation throws into the rank, and World::run rethrows it).
  void check_clock() const {
    CTESIM_DCHECK(clock_ >= world_->engine_.now(),
                  "a rank's clock must never lag the engine's");
  }

  /// Enqueue a message timed `d` in `box`, at `dst`, and record its send
  /// span.
  void deposit(World::Mailbox& box, int dst, std::uint64_t bytes,
               const World::Delivery& d);

  /// The cached route of an exchange with `neighbors`, resolved on a miss
  /// into the less recently used of the two entries.
  const World::Route& route(std::span<const int> neighbors,
                            std::uint64_t bytes, int tag);

  /// An unrooted collective (`op` indexes world.cpp's CollOp): its rounds
  /// as point-to-point calls when congestion is on, else one parked entry
  /// into the group's schedule.
  sim::Task<> collective(const Group& group, int op, std::uint64_t bytes);

  World* world_;
  int id_;
  sim::Time clock_ = 0;
  World::Route routes_[2];
  std::uint8_t last_route_ = 0;  ///< the entry the last exchange used
};

// A co_await temporary: core/task.h's GCC 12 constraint.
static_assert(std::is_trivially_destructible_v<Rank::Advance>);

inline bool Rank::Advance::await_ready() const noexcept {
  rank_->clock_ = to_;
  return !rank_->world_->must_sleep_until(to_);
}

inline void Rank::Advance::await_suspend(std::coroutine_handle<> h) const {
  auto resume = [h] { h.resume(); };
  rank_->world_->engine_.schedule_at(to_, std::move(resume));
}

inline void Rank::Advance::await_resume() const {
  rank_->check_clock();
  rank_->world_->record(rank_->id_, start_, rank_->clock_, "compute", detail_,
                        0, -1);
}

}  // namespace ctesim::mpi
