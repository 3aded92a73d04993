// Determinism tests for the 4-ary event queue: the heap must order events
// exactly like the std::priority_queue it replaced — earliest time first,
// equal times in scheduling order — under arbitrary push/pop interleavings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/event_queue.h"
#include "util/rng.h"

namespace ctesim::sim {
namespace {

struct Key {
  Time time;
  std::uint64_t seq;
  bool operator==(const Key&) const = default;
};

/// Reference ordering: stable sort by time only. Stability means equal
/// times keep insertion (= seq) order, which is exactly the engine's
/// equal-time-fires-in-scheduling-order contract.
std::vector<Key> oracle_order(std::vector<Key> keys) {
  std::stable_sort(keys.begin(), keys.end(),
                   [](const Key& a, const Key& b) { return a.time < b.time; });
  return keys;
}

TEST(EventQueue, DrainsInTimeThenSchedulingOrder) {
  EventQueue queue;
  std::uint64_t seq = 0;
  std::vector<Key> pushed;
  for (Time t : {30, 10, 20, 10, 30, 10, 20}) {
    pushed.push_back({t, seq});
    queue.push({t, seq++, [] {}});
  }
  const auto expected = oracle_order(pushed);
  std::vector<Key> drained;
  while (!queue.empty()) {
    auto event = queue.pop();
    drained.push_back({event.time, event.seq});
  }
  EXPECT_EQ(drained, expected);
}

TEST(EventQueue, RandomizedInterleavingMatchesStableSortOracle) {
  // Many trials of random push/pop interleavings over a tiny time domain
  // (lots of ties), checked against the stable-sort oracle. Any heap
  // implementation bug that reorders equal-time events — the bug class
  // that would silently break trace byte-identity — shows up here.
  Rng rng(20260809);
  for (int trial = 0; trial < 200; ++trial) {
    EventQueue queue;
    std::vector<Key> outstanding;  // mirrors queue contents
    std::vector<Key> popped;
    std::uint64_t seq = 0;
    for (int op = 0; op < 400; ++op) {
      const bool do_push =
          outstanding.empty() || rng.next_u64() % 100 < 60;
      if (do_push) {
        const Time t = static_cast<Time>(rng.next_u64() % 8);
        outstanding.push_back({t, seq});
        queue.push({t, seq++, [] {}});
      } else {
        auto event = queue.pop();
        popped.push_back({event.time, event.seq});
        // Remove the oracle's minimum (stable: first of the earliest time).
        auto sorted = oracle_order(outstanding);
        ASSERT_EQ(popped.back(), sorted.front())
            << "trial " << trial << " op " << op;
        outstanding.erase(std::find(outstanding.begin(), outstanding.end(),
                                    sorted.front()));
      }
      ASSERT_EQ(queue.size(), outstanding.size());
    }
    auto remaining = oracle_order(outstanding);
    for (const Key& expect : remaining) {
      auto event = queue.pop();
      ASSERT_EQ((Key{event.time, event.seq}), expect);
    }
    EXPECT_TRUE(queue.empty());
  }
}

TEST(EventQueue, PopMovesTheCallbackOut) {
  // The move-out pop is what makes dispatch copy-free; a move-only payload
  // (InlineFunction is move-only by design) would not even compile under
  // the old copy-then-pop, but assert the behaviour end to end anyway.
  EventQueue queue;
  int fired = 0;
  queue.push({5, 0, [&fired] { fired = 1; }});
  auto event = queue.pop();
  EXPECT_TRUE(queue.empty());
  ASSERT_TRUE(static_cast<bool>(event.fn));
  event.fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue queue;
  for (int i = 0; i < 10; ++i) {
    queue.push({i, static_cast<std::uint64_t>(i), [] {}});
  }
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
}

}  // namespace
}  // namespace ctesim::sim
