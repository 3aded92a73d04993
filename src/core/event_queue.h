// The engine's event queue: an implicit 4-ary min-heap with move-out pop.
//
// Why not std::priority_queue:
//   - top()/pop() forces a copy of the event (and, pre-refactor, of its
//     heap-allocated std::function closure) because top() is const. pop()
//     here moves the event out — a callback is never copied, which is also
//     what lets the callback type be move-only (util::InlineFunction).
//   - A heap of whole events sifts the callback payload through every
//     level. Here the heap array holds only packed 16-byte keys; the
//     64-byte callbacks sit still in a side slab (`slots_`, recycled
//     through a free list) and are relocated exactly twice per event —
//     once in on push, once out on pop — regardless of queue depth.
//   - The (time, seq) ordering key is packed into one unsigned 128-bit
//     integer (time in the high half, sequence number in the low half), so
//     the lexicographic "earliest time, then scheduling order" comparison
//     is a single branch-predictable integer compare instead of a
//     two-field short-circuit. Valid because simulated time is never
//     negative (Engine::schedule_at enforces t >= now() from t = 0);
//     push() asserts it.
//   - pop() sifts bottom-up: the root hole is walked to a leaf promoting
//     the best child unconditionally (no per-level "does the former last
//     element fit here?" test — against random keys that test is an
//     unpredictable branch which almost always says "keep going"), then
//     the former last element sifts up from the leaf, where it nearly
//     always belongs. Same trick libstdc++'s __adjust_heap uses.
//   - Four children sit in adjacent 32-byte entries (children of i are
//     4i+1..4i+4, two cache lines), halving the levels of a binary heap —
//     the d-ary trade of more comparisons per level for fewer dependent
//     memory levels, which wins once the heap outgrows L1.
//
// Ordering contract (identical to the std::priority_queue it replaced, so
// every trace stays byte-identical): earliest time first; equal times fire
// in scheduling order via the monotone sequence number. Verified against a
// std::stable_sort oracle in tests/test_event_queue.cpp.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/inline_function.h"
#include "util/time.h"

namespace ctesim::sim {

/// A scheduled callback as pushed/popped by the engine. Storage inside the
/// queue is split: the (time, seq) key lives in the heap array, the callback
/// in the slot slab.
struct ScheduledEvent {
  Time time = 0;
  std::uint64_t seq = 0;
  util::InlineFunction<void()> fn;
};

class EventQueue {
 public:
  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Pre-size the backing arrays so steady-state push/pop never reallocates.
  void reserve(std::size_t n) {
    heap_.reserve(n);
    slots_.reserve(n);
    free_.reserve(n);
  }

  void push(ScheduledEvent&& event) {
    push(event.time, event.seq, std::move(event.fn));
  }

  /// Primary push: moves the callback straight into its slot — no
  /// intermediate ScheduledEvent, one relocation total.
  void push(Time time, std::uint64_t seq, util::InlineFunction<void()>&& fn) {
    CTESIM_EXPECTS(time >= 0);  // the u128 key packing depends on it
    std::uint64_t slot;
    if (free_.empty()) {
      slot = slots_.size();
      slots_.push_back(std::move(fn));
    } else {
      slot = free_.back();
      free_.pop_back();
      slots_[slot] = std::move(fn);  // target is empty: no teardown
    }
    const Key key{pack(time, seq), slot};
    heap_.push_back(key);
    std::size_t hole = heap_.size() - 1;
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (key.key >= heap_[parent].key) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = key;
  }

  /// Remove and return the earliest event *by move* — the callback never
  /// gets copied (the old `Event e = q.top(); q.pop();` pattern did, once
  /// per dispatched event; BM_ScheduleDispatch vs its Legacy twin in
  /// bench/engine_rate.cpp keeps the difference measured).
  ScheduledEvent pop() {
    ScheduledEvent out;
    CTESIM_EXPECTS(!heap_.empty());
    out.time = unpack_time(heap_.front().key);
    out.seq = static_cast<std::uint64_t>(heap_.front().key);
    out.fn = pop_into_hole();
    return out;
  }

  /// Primary pop: the earliest event's callback, by move, advancing `time`
  /// to its fire time. One relocation, no ScheduledEvent materialised —
  /// the engine's dispatch loop reuses one callback local across events.
  util::InlineFunction<void()> pop_earliest(Time& time) {
    CTESIM_EXPECTS(!heap_.empty());
    time = unpack_time(heap_.front().key);
    return pop_into_hole();
  }

  /// Drop all pending events (engine teardown: callbacks may hold coroutine
  /// handles and must die before the frames they point into).
  void clear() noexcept {
    heap_.clear();
    slots_.clear();
    free_.clear();
  }

 private:
  static constexpr std::size_t kArity = 4;

  using PackedKey = unsigned __int128;

  static PackedKey pack(Time time, std::uint64_t seq) noexcept {
    return static_cast<PackedKey>(static_cast<std::uint64_t>(time)) << 64 |
           seq;
  }

  static Time unpack_time(PackedKey key) noexcept {
    return static_cast<Time>(static_cast<std::uint64_t>(key >> 64));
  }

  /// Heap entry: the packed ordering key plus the index of the callback in
  /// slots_. Trivially copyable — sift moves are plain 32-byte copies.
  struct Key {
    PackedKey key;
    std::uint64_t slot;
  };

  /// Shared pop tail: move the root's callback out, recycle its slot, and
  /// restore the heap (bottom-up sift, see the header comment).
  util::InlineFunction<void()> pop_into_hole() {
    const Key root = heap_.front();
    util::InlineFunction<void()> fn = std::move(slots_[root.slot]);
    free_.push_back(root.slot);
    const Key last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n != 0) {
      // Bottom-up: promote the best child into the hole all the way to a
      // leaf, then sift `last` up from there (usually not at all).
      std::size_t hole = 0;
      for (;;) {
        const std::size_t first_child = hole * kArity + 1;
        if (first_child >= n) break;
        const std::size_t last_child =
            first_child + std::min(kArity - 1, n - 1 - first_child);
        std::size_t best = first_child;
        for (std::size_t c = first_child + 1; c <= last_child; ++c) {
          best = heap_[c].key < heap_[best].key ? c : best;
        }
        heap_[hole] = heap_[best];
        hole = best;
      }
      while (hole > 0) {
        const std::size_t parent = (hole - 1) / kArity;
        if (last.key >= heap_[parent].key) break;
        heap_[hole] = heap_[parent];
        hole = parent;
      }
      heap_[hole] = last;
    }
    return fn;
  }

  std::vector<Key> heap_;    ///< implicit 4-ary min-heap of packed keys
  std::vector<util::InlineFunction<void()>> slots_;  ///< callback payloads
  std::vector<std::uint64_t> free_;                  ///< recycled slot ids
};

}  // namespace ctesim::sim
