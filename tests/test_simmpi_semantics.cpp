// Deeper semantic tests of the simulated MPI runtime: timing relations the
// message-passing model must satisfy (these pin the LogGP-style semantics
// the cost attribution relies on).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "arch/configs.h"
#include "core/frame_pool.h"
#include "roofline/kernel_library.h"
#include "simmpi/world.h"
#include "util/check.h"

namespace ctesim::mpi {
namespace {

WorldOptions quiet_options() {
  WorldOptions o;
  o.machine = arch::cte_arm();
  o.network_jitter = 0.0;
  return o;
}

double run2(const World::RankFn& body) {
  World world(quiet_options(), Placement::per_node(arch::cte_arm().node, 2));
  return world.run(body);
}

TEST(Semantics, EagerSendReturnsBeforeDelivery) {
  // A small (eager) send must release the sender long before the message
  // arrives: sender-side occupancy ~ injection, receiver waits the wire.
  double sender_free = -1.0;
  double receiver_done = -1.0;
  run2([&](Rank& r) -> sim::Task<> {
    if (r.id() == 0) {
      co_await r.send(1, 512);
      sender_free = r.now_s();
    } else {
      co_await r.recv(0);
      receiver_done = r.now_s();
    }
  });
  EXPECT_LT(sender_free, receiver_done);
}

TEST(Semantics, RendezvousSendCouplesSenderToDelivery) {
  double sender_free = -1.0;
  double receiver_done = -1.0;
  run2([&](Rank& r) -> sim::Task<> {
    if (r.id() == 0) {
      co_await r.send(1, 8 << 20);  // far above the eager threshold
      sender_free = r.now_s();
    } else {
      co_await r.recv(0);
      receiver_done = r.now_s();
    }
  });
  EXPECT_NEAR(sender_free, receiver_done, 1e-9);
}

TEST(Semantics, BackToBackSendsSerializeAtSender) {
  // Two large sends from one rank must take ~2x one send (NIC occupancy),
  // even to different destinations.
  auto run_sends = [&](int count) {
    WorldOptions options = quiet_options();
    World world(std::move(options),
                Placement::per_node(arch::cte_arm().node, 3));
    return world.run([count](Rank& r) -> sim::Task<> {
      if (r.id() == 0) {
        for (int i = 0; i < count; ++i) {
          co_await r.send(1 + i % 2, 4 << 20);
        }
      } else {
        for (int i = 0; i < count / 2; ++i) {
          co_await r.recv(0);
        }
      }
    });
  };
  const double two = run_sends(2);
  const double four = run_sends(4);
  EXPECT_NEAR(four / two, 2.0, 0.2);
}

TEST(Semantics, SendrecvIsFullDuplex) {
  // A bidirectional exchange must cost ~one transfer, not two.
  const double duplex = run2([](Rank& r) -> sim::Task<> {
    co_await r.sendrecv(1 - r.id(), 1 << 20, 1 - r.id());
  });
  const double half = run2([](Rank& r) -> sim::Task<> {
    if (r.id() == 0) {
      co_await r.send(1, 1 << 20);
    } else {
      co_await r.recv(0);
    }
  });
  EXPECT_LT(duplex, 1.6 * half);
}

TEST(Semantics, LatePostedReceiveGetsBufferedMessage) {
  // Eager message sent long before the receive posts: the receiver pays no
  // wire time, only picks up the buffered message.
  double recv_started = -1.0;
  double recv_done = -1.0;
  run2([&](Rank& r) -> sim::Task<> {
    if (r.id() == 0) {
      co_await r.send(1, 1024);
    } else {
      co_await r.compute_seconds(1.0);  // post late
      recv_started = r.now_s();
      co_await r.recv(0);
      recv_done = r.now_s();
    }
  });
  EXPECT_NEAR(recv_done, recv_started, 1e-9);
}

TEST(Semantics, IntraNodeCheaperThanInterNode) {
  WorldOptions options = quiet_options();
  World intra(std::move(options),
              Placement::fill_nodes(arch::cte_arm().node, 2, 2));
  const double t_intra = intra.run([](Rank& r) -> sim::Task<> {
    if (r.id() == 0) {
      co_await r.send(1, 1 << 20);
    } else {
      co_await r.recv(0);
    }
  });
  const double t_inter = run2([](Rank& r) -> sim::Task<> {
    if (r.id() == 0) {
      co_await r.send(1, 1 << 20);
    } else {
      co_await r.recv(0);
    }
  });
  EXPECT_LT(t_intra, t_inter);
}

TEST(Semantics, ExchangeCompletesAllNeighborsConcurrently) {
  // A 4-neighbor exchange should cost far less than 4 sequential
  // ping-pongs of the same size.
  WorldOptions options = quiet_options();
  World world(std::move(options),
              Placement::per_node(arch::cte_arm().node, 5));
  std::vector<int> all{0, 1, 2, 3, 4};
  const double t = world.run([&](Rank& r) -> sim::Task<> {
    std::vector<int> neighbors;
    for (int n : all) {
      if (n != r.id()) neighbors.push_back(n);
    }
    co_await r.exchange(neighbors, 64 * 1024);
  });
  WorldOptions options2 = quiet_options();
  World seq(std::move(options2),
            Placement::per_node(arch::cte_arm().node, 2));
  const double pingpong = seq.run([](Rank& r) -> sim::Task<> {
    co_await r.sendrecv(1 - r.id(), 64 * 1024, 1 - r.id());
  });
  EXPECT_LT(t, 3.0 * pingpong);
}

// --- the point-to-point awaiter's paths -----------------------------------

WorldOptions traced_options() {
  WorldOptions o = quiet_options();
  o.trace = true;
  return o;
}

/// `rank`'s message spans in recording order.
std::vector<trace::Span> message_spans(const World& world, int rank) {
  std::vector<trace::Span> out;
  for (const trace::Span& s : world.recorder()->spans()) {
    if (s.track == trace::Track::rank(rank) && s.name != "compute") {
      out.push_back(s);
    }
  }
  return out;
}

TEST(P2P, RecvPostedBeforeOrAfterItsSendMatchesTheSame) {
  // Both ranks act at t = 0 and ranks start in id order. With the sender
  // as rank 0 the message is queued before the receive posts; with the
  // sender as rank 1 the receive parks first and takes a hand-off.
  struct Outcome {
    std::vector<trace::Span> sender;
    std::vector<trace::Span> receiver;
    sim::Time receiver_done = -1;
  };
  auto run_with_sender = [](int sender) {
    World world(traced_options(),
                Placement::per_node(arch::cte_arm().node, 2));
    Outcome out;
    world.run([&](Rank& r) -> sim::Task<> {
      if (r.id() == sender) {
        co_await r.send(1 - sender, 4096, 3);
      } else {
        const std::uint64_t got = co_await r.recv(sender, 3);
        EXPECT_EQ(got, 4096u);
        out.receiver_done = r.now();
      }
    });
    out.sender = message_spans(world, sender);
    out.receiver = message_spans(world, 1 - sender);
    return out;
  };
  const Outcome queued = run_with_sender(0);
  const Outcome parked = run_with_sender(1);
  ASSERT_EQ(queued.receiver.size(), 1u);
  ASSERT_EQ(parked.receiver.size(), 1u);
  ASSERT_EQ(queued.sender.size(), 1u);
  ASSERT_EQ(parked.sender.size(), 1u);
  EXPECT_EQ(queued.receiver[0].name, "recv");
  EXPECT_EQ(parked.receiver[0].name, "recv");
  EXPECT_EQ(queued.receiver[0].start, parked.receiver[0].start);
  EXPECT_EQ(queued.receiver[0].end, parked.receiver[0].end);
  EXPECT_EQ(queued.receiver[0].bytes, parked.receiver[0].bytes);
  EXPECT_EQ(queued.sender[0].start, parked.sender[0].start);
  EXPECT_EQ(queued.sender[0].end, parked.sender[0].end);
  EXPECT_EQ(queued.receiver_done, parked.receiver_done);
  EXPECT_EQ(queued.receiver_done, queued.receiver[0].end);
  EXPECT_GT(queued.receiver_done, 0);
}

TEST(P2P, ExchangeTakesALaterNeighboursEarlierMessage) {
  // Rank 2's message reaches rank 0 long before rank 1's. Rank 0 still
  // receives in neighbour order: it waits for rank 1, then finds rank 2's
  // message already there.
  World world(traced_options(),
              Placement::per_node(arch::cte_arm().node, 3));
  const std::vector<int> hub{1, 2};
  const std::vector<int> spoke{0};
  world.run([&](Rank& r) -> sim::Task<> {
    if (r.id() == 0) {
      co_await r.exchange(hub, 1024);
    } else {
      if (r.id() == 1) co_await r.compute_seconds(50e-6);
      co_await r.exchange(spoke, 1024);
    }
  });
  std::vector<trace::Span> recvs;
  for (const trace::Span& s : message_spans(world, 0)) {
    if (s.name == "recv") recvs.push_back(s);
  }
  ASSERT_EQ(recvs.size(), 2u);
  EXPECT_EQ(recvs[0].peer, 1);
  EXPECT_EQ(recvs[1].peer, 2);
  EXPECT_GT(recvs[0].end, sim::from_seconds(50e-6));
  EXPECT_EQ(recvs[1].start, recvs[0].end);
  EXPECT_EQ(recvs[1].end, recvs[0].end);
}

/// Rank `hub` exchanges with `first` then `second`. `first` sends 8 MiB
/// at t = 0 (a long transfer); `second` computes 1 us, then sends 64 bytes
/// that arrive long before the 8 MiB do. Returns the hub's recv spans,
/// the time its exchange returned and the events the run dispatched.
struct HubOutcome {
  std::vector<trace::Span> recvs;
  sim::Time hub_done = -1;
  std::uint64_t events = 0;
  std::uint64_t handoffs = 0;
};
HubOutcome late_deposit_early_arrival(int hub, int first, int second) {
  World world(traced_options(),
              Placement::per_node(arch::cte_arm().node, 3));
  const std::vector<int> neighbours{first, second};
  const std::vector<int> just_hub{hub};
  HubOutcome out;
  world.run([&](Rank& r) -> sim::Task<> {
    if (r.id() == hub) {
      co_await r.exchange(neighbours, 64);
      out.hub_done = r.now();
    } else if (r.id() == first) {
      co_await r.exchange(just_hub, 8 << 20);
    } else {
      co_await r.compute_seconds(1e-6);
      co_await r.exchange(just_hub, 64);
    }
  });
  for (const trace::Span& s : message_spans(world, hub)) {
    if (s.name == "recv") out.recvs.push_back(s);
  }
  out.events = world.engine().events_processed();
  out.handoffs = world.op_counts().handoffs;
  return out;
}

TEST(P2P, LaterDepositedEarlierArrivalStartsAtThePreviousSpanEnd) {
  // Ranks start in id order, so hub 0 parks on rank 1 before rank 1 has
  // sent. Rank 1's hand-off fires at its arrival; rank 2's message,
  // deposited at 1 us and arrived long before, is then already queued.
  const HubOutcome out = late_deposit_early_arrival(0, 1, 2);
  ASSERT_EQ(out.recvs.size(), 2u);
  EXPECT_EQ(out.recvs[0].peer, 1);
  EXPECT_EQ(out.recvs[1].peer, 2);
  EXPECT_EQ(out.recvs[0].start, 0);
  EXPECT_GT(out.recvs[0].end, sim::from_seconds(100e-6));
  EXPECT_EQ(out.recvs[1].start, out.recvs[0].end);
  EXPECT_EQ(out.recvs[1].end, out.recvs[0].end);
  EXPECT_EQ(out.hub_done, out.recvs[0].end);
  // 3 spawns, the only engine events, and the hub's 1 hand-off from the
  // run queue, which also resumes it. Rank 1 finds the hub's message
  // queued and moves its own clock to its rendezvous send's end; rank 2's
  // compute and its call move only its clock.
  EXPECT_EQ(out.events, 3u);
  EXPECT_EQ(out.handoffs, 1u);
}

TEST(P2P, SourceDepositedAfterTheCursorMovedAheadWakesAtTheCursor) {
  // Hub 2 runs after rank 0 has sent, so it consumes the 8 MiB message at
  // t = 0 and its cursor jumps to that arrival. Rank 1's 64 bytes are
  // deposited at 1 us and arrive long before the cursor, so their recv
  // span is empty, at the cursor, and the hub resumes there.
  const HubOutcome out = late_deposit_early_arrival(2, 0, 1);
  ASSERT_EQ(out.recvs.size(), 2u);
  EXPECT_EQ(out.recvs[0].peer, 0);
  EXPECT_EQ(out.recvs[1].peer, 1);
  EXPECT_EQ(out.recvs[0].start, 0);
  EXPECT_GT(out.recvs[0].end, sim::from_seconds(100e-6));
  EXPECT_EQ(out.recvs[1].start, out.recvs[0].end);
  EXPECT_EQ(out.recvs[1].end, out.recvs[0].end);
  EXPECT_EQ(out.hub_done, out.recvs[0].end);
  // 3 spawns and 2 hand-offs from the run queue, the hub's messages to
  // ranks 0 and 1, which parked on it. Rank 1's compute moves only its
  // clock, so it deposits before the hub runs and the hub finds both
  // messages queued; the next test makes the hub park and take its
  // hand-off at the cursor.
  EXPECT_EQ(out.events, 3u);
  EXPECT_EQ(out.handoffs, 2u);
}

TEST(P2P, SourceBlockedUntilTheHubParkedWakesItAtTheCursor) {
  // Hub 2 consumes rank 0's queued 8 MiB at once, so its cursor jumps to
  // their arrival, and parks on rank 1. Rank 1 deposits its 64 bytes only
  // after the hub's 8-byte message is handed to it: they arrive long
  // before the cursor, so their hand-off waits for the cursor and resumes
  // the hub there.
  World world(traced_options(),
              Placement::per_node(arch::cte_arm().node, 3));
  const std::vector<int> hub_peers{0, 1};
  const std::vector<int> just_hub{2};
  sim::Time hub_done = -1;
  world.run([&](Rank& r) -> sim::Task<> {
    if (r.id() == 2) {
      co_await r.send(1, 8, /*tag=*/5);
      co_await r.exchange(hub_peers, 64);
      hub_done = r.now();
    } else if (r.id() == 0) {
      co_await r.exchange(just_hub, 8 << 20);
    } else {
      co_await r.recv(2, /*tag=*/5);
      co_await r.exchange(just_hub, 64);
    }
  });
  std::vector<trace::Span> recvs;
  for (const trace::Span& s : message_spans(world, 2)) {
    if (s.name == "recv") recvs.push_back(s);
  }
  const std::vector<trace::Span> late = message_spans(world, 1);
  ASSERT_EQ(recvs.size(), 2u);
  ASSERT_EQ(late.size(), 3u);  // recv, then the exchange's send and recv
  EXPECT_EQ(recvs[0].peer, 0);
  EXPECT_EQ(recvs[1].peer, 1);
  EXPECT_GT(recvs[0].end, sim::from_seconds(100e-6));
  EXPECT_EQ(late[1].name, "send");
  EXPECT_LT(late[1].end, sim::from_seconds(10e-6));
  EXPECT_EQ(recvs[1].start, recvs[0].end);
  EXPECT_EQ(recvs[1].end, recvs[0].end);
  EXPECT_EQ(hub_done, recvs[0].end);
  // 3 spawns, the only engine events. From the run queue: the hand-offs
  // to rank 1 (tag 5) and to rank 0 (the hub's 64 bytes), then the one
  // rank 1 queues for the hub, which resumes it at the cursor.
  EXPECT_EQ(world.engine().events_processed(), 3u);
  EXPECT_EQ(world.op_counts().handoffs, 3u);
}

TEST(P2P, RendezvousSendrecvSettlesAfterItsRecv) {
  // Rank 0 sends a rendezvous-size message and receives a small one: the
  // receive completes first, and the call returns only when the send does.
  World world(traced_options(),
              Placement::per_node(arch::cte_arm().node, 2));
  sim::Time done = -1;
  world.run([&](Rank& r) -> sim::Task<> {
    if (r.id() == 0) {
      co_await r.sendrecv(1, 8 << 20, 1);
      done = r.now();
    } else {
      co_await r.sendrecv(0, 8, 0);
    }
  });
  const std::vector<trace::Span> spans = message_spans(world, 0);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "send");
  EXPECT_EQ(spans[1].name, "recv");
  EXPECT_LT(spans[1].end, spans[0].end);
  EXPECT_EQ(done, spans[0].end);
}

TEST(P2P, BadThirdNeighbourThrowsBeforeAnyDeposit) {
  World world(traced_options(),
              Placement::per_node(arch::cte_arm().node, 4));
  const std::vector<int> neighbours{1, 2, 99};
  EXPECT_THROW(world.run([&](Rank& r) -> sim::Task<> {
                 if (r.id() == 0) co_await r.exchange(neighbours, 64);
               }),
               ContractError);
  EXPECT_TRUE(world.recorder()->spans().empty());
}

TEST(P2P, EveryCallRefusesATagOutsideTheUserRange) {
  for (const int tag : {-1, Rank::kMaxUserTag + 1, Rank::kMaxUserTag + 2}) {
    for (int call = 0; call < 4; ++call) {
      SCOPED_TRACE("tag " + std::to_string(tag) + ", call " +
                   std::to_string(call));
      EXPECT_THROW(run2([tag, call](Rank& r) -> sim::Task<> {
                     if (r.id() != 0) co_return;
                     const std::vector<int> peer{1};
                     switch (call) {
                       case 0:
                         co_await r.send(1, 100, tag);
                         break;
                       case 1:
                         co_await r.recv(1, tag);
                         break;
                       case 2:
                         co_await r.sendrecv(1, 100, 1, tag);
                         break;
                       default:
                         co_await r.exchange(peer, 100, tag);
                         break;
                     }
                   }),
                   ContractError);
    }
  }
}

TEST(P2P, AUserMessageCannotTakeABcastsTag) {
  // kMaxUserTag + 2 is the world group's bcast tag: unchecked, rank 1's
  // recv would take the bcast's 5000 bytes and the bcast this message.
  const auto body = [](int tag, std::uint64_t& got) {
    return [tag, &got](Rank& r) -> sim::Task<> {
      if (r.id() == 0) co_await r.send(1, 100, tag);
      co_await r.bcast(0, 5000);
      if (r.id() == 1) got = co_await r.recv(0, tag);
    };
  };
  std::uint64_t got = 0;
  EXPECT_THROW(run2(body(Rank::kMaxUserTag + 2, got)), ContractError);
  run2(body(Rank::kMaxUserTag, got));
  EXPECT_EQ(got, 100u);
}

/// 384 ranks, 10 steps of ring exchange + allreduce(8).
World::RankFn ring_steps() {
  return [](Rank& rank) -> sim::Task<> {
    const int n = rank.size();
    const std::vector<int> ring{(rank.id() + n - 1) % n, (rank.id() + 1) % n};
    for (int step = 0; step < 10; ++step) {
      co_await rank.exchange(ring, 4096, /*tag=*/1);
      co_await rank.allreduce(8);
    }
  };
}

TEST(P2P, RingExchangeEventCountIsPinned) {
  // The engine dispatches the 384 spawns and nothing else. The run queue
  // resumes one wake per rank per scheduled allreduce (3840), which sends
  // no message, and one hand-off per blocked exchange receive (3830). In
  // each step the ranks start the exchange in id order (spawns, then the
  // wakes in vrank order), so every rank but the last parks once, on a
  // neighbour that has not deposited yet: rank 0 on rank 383, each other
  // on the one after it; 383 a step. A receive whose message is queued,
  // and the end of a call, move only the rank's clock. The pin catches
  // any extra wake-up (docs/ENGINE.md sections 7, 9 and 10 have the
  // history: 44 998, 29 853, 8070, 7937, then the spawns alone).
  WorldOptions options;
  options.machine = arch::cte_arm();
  World world(std::move(options),
              Placement::per_core(arch::cte_arm().node, 384));
  world.run(ring_steps());
  EXPECT_EQ(world.engine().events_processed(), 384u);
  EXPECT_EQ(world.op_counts().wakes, 3840u);
  EXPECT_EQ(world.op_counts().handoffs, 3830u);
}

TEST(P2P, CongestedRingExchangeRunsThroughTheEngine) {
  // The run above with congestion on: the collectives are messages, and
  // every hand-off and every sleep of a rank whose clock moved ahead is an
  // engine event in time order, so CongestionModel books links in
  // simulated-time order. Nothing goes through the run queue, and the
  // count is the one the engine dispatched before the run queue existed.
  WorldOptions options;
  options.machine = arch::cte_arm();
  options.congestion = true;
  World world(std::move(options),
              Placement::per_core(arch::cte_arm().node, 384));
  world.run(ring_steps());
  EXPECT_EQ(world.engine().events_processed(), 29846u);
  EXPECT_EQ(world.op_counts().wakes, 0u);
  EXPECT_EQ(world.op_counts().handoffs, 0u);
}

TEST(P2P, RingExchangeOpCountsArePinned) {
  // The run above. Each rank resolves its exchange route once: two
  // neighbours, an outgoing and an incoming mailbox each, so the key scans
  // are ranks x neighbours x 2 (1536), however many steps run. The other
  // 9 steps reuse the route (3456 hits) with its delivery offsets. The
  // first allreduce resolves its schedule and the other 9 replay it, so
  // the deliveries left, 768 route resolutions and that one schedule's
  // 2304 messages, go through the delivery table. On 8 nodes at two sizes
  // it evaluates the formula 76 times: once per (node pair, bytes) key,
  // again after a slot collision.
  WorldOptions options;
  options.machine = arch::cte_arm();
  World world(std::move(options),
              Placement::per_core(arch::cte_arm().node, 384));
  world.run([](Rank& rank) -> sim::Task<> {
    const int n = rank.size();
    const std::vector<int> ring{(rank.id() + n - 1) % n, (rank.id() + 1) % n};
    for (int step = 0; step < 10; ++step) {
      co_await rank.exchange(ring, 4096, /*tag=*/1);
      co_await rank.allreduce(8);
    }
  });
  const World::OpCounts& c = world.op_counts();
  EXPECT_EQ(c.mailbox_scans, 1536u);
  EXPECT_EQ(c.route_misses, 384u);
  EXPECT_EQ(c.route_hits, 3456u);
  EXPECT_EQ(c.delivery_evals + c.delivery_memo_hits, 768u + 2304u);
  EXPECT_EQ(c.delivery_evals, 76u);
  EXPECT_EQ(c.schedule_resolves, 1u);
  EXPECT_EQ(c.schedule_replays, 9u);
}

TEST(Clock, ComputeOnlyWorldDispatchesOnlyItsSpawns) {
  // Compute moves only the rank's clock: 384 ranks of jittered compute
  // dispatch exactly their 384 spawns (3584 when every nonzero compute
  // was an engine delay), and the makespan is the one those delays gave.
  constexpr int kRanks = 384;
  WorldOptions options;
  options.machine = arch::cte_arm();
  options.compute_jitter = 0.05;
  World world(std::move(options),
              Placement::per_core(arch::cte_arm().node, kRanks));
  std::vector<sim::Time> ends(kRanks, -1);
  const double makespan = world.run([&](Rank& r) -> sim::Task<> {
    for (int i = 0; i < 5; ++i) {
      co_await r.compute(roofline::kernels::stream_triad(),
                         1e4 * (1 + r.id() % 7));
      co_await r.compute_seconds(1e-6 * (r.id() % 3));
    }
    ends[static_cast<std::size_t>(r.id())] = r.now();
  });
  EXPECT_EQ(world.engine().events_processed(),
            static_cast<std::uint64_t>(kRanks));
  EXPECT_EQ(sim::from_seconds(makespan), 812'795'069);
  EXPECT_EQ(sim::from_seconds(makespan),
            *std::max_element(ends.begin(), ends.end()));
}

TEST(Clock, ComputeMemoGivesTheModelsDoubles) {
  // Two kernels of one name that differ only in their overlap, alternated
  // on three ranks with different element counts: six keys for the
  // memo's four entries, so the third rank evicts the first's. A third
  // kernel, the first renamed, shares its key. Every compute span lasts
  // exactly the model's time for its own kernel.
  const arch::NodeModel node = arch::cte_arm().node;
  roofline::KernelSig overlapped = roofline::kernels::stencil3d();
  overlapped.overlap = 1.0;
  roofline::KernelSig serialized = overlapped;
  serialized.overlap = 0.0;
  roofline::KernelSig renamed = overlapped;
  renamed.name = "renamed";
  World world(traced_options(), Placement::per_node(node, 3));
  world.run([&](Rank& r) -> sim::Task<> {
    const double elems = 1e5 * (1 + r.id());
    for (int i = 0; i < 4; ++i) {
      co_await r.compute(overlapped, elems);
      co_await r.compute(serialized, elems);
    }
    co_await r.compute(renamed, elems);
  });
  // One rank per node, owning all its cores: the bandwidth share is
  // what ExecModel::analyze gives them.
  const auto model = [&](const roofline::KernelSig& sig, double elems) {
    return sim::from_seconds(
        world.exec().analyze(sig, elems, node.core_count()).total_s);
  };
  std::vector<int> calls(3, 0);
  for (const trace::Span& s : world.recorder()->spans()) {
    if (s.name != "compute") continue;
    const int i = calls[static_cast<std::size_t>(s.track.index)]++;
    const roofline::KernelSig& sig =
        i == 8 ? renamed : (i % 2 == 0 ? overlapped : serialized);
    EXPECT_EQ(s.detail, sig.name);
    EXPECT_EQ(s.end - s.start, model(sig, 1e5 * (1 + s.track.index)))
        << "rank " << s.track.index << ", call " << i;
  }
  EXPECT_EQ(calls, std::vector<int>(3, 9));
  EXPECT_NE(model(overlapped, 1e5), model(serialized, 1e5));
  EXPECT_EQ(world.op_counts().compute_memo_hits, 21u);
}

/// Coroutine frames (pooled or not) taken by one compute-only World of 8
/// ranks running `steps` steps of NEMO's compute pattern: 12 jittered
/// compute calls and 12 compute_seconds calls per step.
std::uint64_t compute_world_frames(int steps) {
  const auto frames = [] {
    const sim::frame_pool::Stats s = sim::frame_pool::stats();
    return s.pool_hits + s.pool_misses + s.oversize;
  };
  const std::uint64_t before = frames();
  WorldOptions options = quiet_options();
  options.compute_jitter = 0.02;
  World world(std::move(options),
              Placement::per_core(arch::cte_arm().node, 8));
  world.run([steps](Rank& r) -> sim::Task<> {
    for (int step = 0; step < steps; ++step) {
      for (int phase = 0; phase < 12; ++phase) {
        co_await r.compute(roofline::kernels::stream_triad(), 1e3 * phase);
        co_await r.compute_seconds(1e-7 * phase);
      }
    }
  });
  return frames() - before;
}

TEST(Clock, ComputeTakesNoCoroutineFrame) {
  // A World takes its ranks' frames (run_rank and the body) whatever the
  // step count; compute and compute_seconds are plain awaiters, so 216
  // more compute calls per rank take none.
  const std::uint64_t one = compute_world_frames(1);
  EXPECT_EQ(compute_world_frames(10), one);
  EXPECT_GT(one, 0u);
}

/// A span as the recorder holds it: rank, kind, detail, start and end.
using SpanRow = std::tuple<int, std::string, std::string, sim::Time, sim::Time>;

TEST(Clock, CongestedComputeRecordsAfterWaking) {
  // A congested World sleeps a computing rank in the engine until its
  // compute ends, and records the compute span only once it wakes, so the
  // recording order follows simulated time: rank 2's shorter computes
  // come before rank 0's longer ones, and each rank's send and recv
  // spans follow its compute span. Times in ps.
  WorldOptions options = traced_options();
  options.congestion = true;
  World world(std::move(options),
              Placement::per_node(arch::cte_arm().node, 3));
  world.run([](Rank& r) -> sim::Task<> {
    const int n = r.size();
    const int right = (r.id() + 1) % n;
    const int left = (r.id() + n - 1) % n;
    co_await r.compute_seconds(1e-5 * (n - r.id()));
    co_await r.sendrecv(right, 64 << 10, left);
    co_await r.compute(roofline::kernels::stream_triad(), 1e5 * (n - r.id()));
    co_await r.sendrecv(right, 64 << 10, left);
  });
  std::vector<SpanRow> got;
  for (const trace::Span& s : world.recorder()->spans()) {
    if (s.track.kind != trace::TrackKind::kRank) continue;
    got.emplace_back(s.track.index, s.name, s.detail, s.start, s.end);
  }
  const std::vector<SpanRow> want{
      {2, "compute", "fixed", 0, 10'000'000},
      {2, "send", "", 10'000'000, 23'202'939},
      {1, "compute", "fixed", 0, 20'000'000},
      {1, "send", "", 20'000'000, 33'431'719},
      {0, "compute", "fixed", 0, 30'000'000},
      {0, "send", "", 30'000'000, 43'202'939},
      {0, "recv", "", 30'000'000, 30'000'000},
      {2, "recv", "", 10'000'000, 33'431'719},
      {2, "compute", "stream-triad", 33'431'719, 37'925'119},
      {2, "send", "", 37'925'119, 51'128'058},
      {1, "recv", "", 20'000'000, 43'202'939},
      {1, "compute", "stream-triad", 43'202'939, 52'189'738},
      {1, "send", "", 52'189'738, 65'621'457},
      {0, "compute", "stream-triad", 43'202'939, 56'683'138},
      {0, "send", "", 56'683'138, 69'886'077},
      {0, "recv", "", 56'683'138, 56'683'138},
      {2, "recv", "", 37'925'119, 65'621'457},
      {1, "recv", "", 52'189'738, 69'886'077},
  };
  EXPECT_EQ(got, want);
  // 3 spawns, 6 compute sleeps and one hand-off or sleep per sendrecv.
  EXPECT_EQ(world.engine().events_processed(), 15u);
}

}  // namespace
}  // namespace ctesim::mpi
