// Asynchronous FIFO channel between simulated processes.
//
// `push` never blocks (unbounded queue — timing is modelled by the layers
// above, not by backpressure here); `pop` suspends the caller until a value
// is available. A push with receivers waiting hands the value directly to
// the oldest waiter, so a later receiver can never steal an item from an
// earlier one — wakeup order is FIFO and deterministic. The hand-off is
// one engine event, at the latest of the push time, the value's
// `ready_at` (when it becomes usable, e.g. a message's arrival) and the
// waiter's `not_before`. By default `ready_at` is the push time and
// `not_before` is 0, i.e. a +0 wake.
//
// The simulated-MPI layer keeps one channel per (destination, source, tag),
// contiguously per destination, and most of them are short or idle. So the
// first two queued values live inline; a spill FIFO is allocated only when
// a third one is queued. Waiters are an intrusive FIFO of records owned by
// the receivers (a suspended pop() awaiter, or any awaiter that embeds a
// Waiter), so parking a receiver costs the channel no storage. A channel
// therefore owns no heap memory until its backlog first exceeds two.
//
// Channels are movable: nothing keeps a `Channel&` across a suspension.
// pop()'s awaiter touches the channel only before it suspends, and a
// hand-off reaches the waiter through the waiter record, not the channel.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/engine.h"

namespace ctesim::sim {

namespace detail {

/// FIFO queue over a vector: live entries are [head_, buf_.size()).
template <typename T>
class VectorFifo {
 public:
  bool empty() const { return head_ == buf_.size(); }
  std::size_t size() const { return buf_.size() - head_; }
  T& front() { return buf_[head_]; }
  void push_back(T value) { buf_.push_back(std::move(value)); }

  void pop_front() {
    ++head_;
    if (head_ == buf_.size()) {
      // Drained: keep the capacity for the next burst.
      buf_.clear();
      head_ = 0;
    } else if (2 * head_ > buf_.size()) {
      // Fewer live entries than dead ones: move the live ones down, at a
      // cost the head_ pops since the last compaction already paid for.
      buf_.erase(buf_.begin(), buf_.begin() +
                                   static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

 private:
  std::vector<T> buf_;
  std::size_t head_ = 0;
};

}  // namespace detail

template <typename T>
class Channel {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "channels move their inline values");

 public:
  /// A parked receiver. The receiver owns this record and keeps it at a
  /// fixed address until the hand-off event has run.
  struct Waiter {
    std::coroutine_handle<> handle;
    /// If set, the hand-off event calls this instead of resuming `handle`.
    void (*wake)(Waiter&) = nullptr;
    Waiter* next = nullptr;  ///< intrusive FIFO link (owned by the channel)
    /// The hand-off event never fires before this simulated time.
    Time not_before = 0;
    std::optional<T> value;  ///< filled by the hand-off or try_receive
  };

  explicit Channel(Engine& engine) : engine_(&engine) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;
  Channel& operator=(Channel&&) = delete;

  Channel(Channel&& other) noexcept
      : engine_(other.engine_),
        last_waiter_(std::exchange(other.last_waiter_, nullptr)),
        spill_(std::move(other.spill_)),
        count_(std::exchange(other.count_, std::uint8_t{0})) {
    for (std::uint8_t i = 0; i < count_; ++i) {
      T& src = other.slot((other.head_ + i) & 1u);
      ::new (static_cast<void*>(inline_[i])) T(std::move(src));
      src.~T();
    }
  }

  ~Channel() {
    for (std::uint8_t i = 0; i < count_; ++i) slot((head_ + i) & 1u).~T();
  }

  /// Deliver a value; hands it to the oldest waiting receiver (woken at
  /// the current simulated time by one +0 event) or queues it.
  void push(T value) { push(std::move(value), engine_->now()); }

  /// As push(value), but a hand-off wakes the receiver by one event at
  /// max(now, ready_at, waiter.not_before) instead of at +0. A queued
  /// value does not keep `ready_at`: the receiver reads it off the value.
  void push(T value, Time ready_at) {
    if (last_waiter_ != nullptr) {
      Waiter* waiter = last_waiter_->next;  // the ring's oldest entry
      if (waiter == last_waiter_) {
        last_waiter_ = nullptr;
      } else {
        last_waiter_->next = waiter->next;
      }
      waiter->value.emplace(std::move(value));
      auto wake = [waiter] {
        if (waiter->wake != nullptr) {
          waiter->wake(*waiter);
        } else {
          waiter->handle.resume();
        }
      };
      static_assert(Engine::Callback::fits_inline<decltype(wake)>,
                    "core must never schedule a spilling closure");
      const Time at = std::max({engine_->now(), ready_at, waiter->not_before});
      engine_->schedule_at(at, std::move(wake));
      return;
    }
    if (count_ < 2) {
      // Values only spill while both inline slots are full, so a free
      // inline slot means the spill FIFO is empty.
      ::new (static_cast<void*>(inline_[(head_ + count_) & 1u]))
          T(std::move(value));
      ++count_;
      return;
    }
    if (!spill_) spill_ = std::make_unique<detail::VectorFifo<T>>();
    spill_->push_back(std::move(value));
  }

  /// Move the front value into `waiter.value` and return true, or park
  /// `waiter` at the back of the waiter FIFO (a later push hands it a
  /// value) and return false.
  bool try_receive(Waiter& waiter) {
    // Values can only be queued while no receiver waits, so a non-empty
    // queue means the front is ours.
    if (count_ == 0) {
      if (last_waiter_ == nullptr) {
        waiter.next = &waiter;
      } else {
        waiter.next = last_waiter_->next;
        last_waiter_->next = &waiter;
      }
      last_waiter_ = &waiter;
      return false;
    }
    T& front = slot(head_);
    waiter.value.emplace(std::move(front));
    front.~T();
    head_ ^= 1u;
    --count_;
    if (spill_ && !spill_->empty()) {
      ::new (static_cast<void*>(inline_[(head_ + count_) & 1u]))
          T(std::move(spill_->front()));
      spill_->pop_front();
      ++count_;
    }
    return true;
  }

  bool empty() const { return count_ == 0; }
  std::size_t size() const {
    return count_ + (spill_ ? spill_->size() : std::size_t{0});
  }
  /// Walks the waiter ring: for tests and diagnostics, not hot paths.
  std::size_t waiting_receivers() const {
    if (last_waiter_ == nullptr) return 0;
    std::size_t n = 1;
    for (const Waiter* w = last_waiter_->next; w != last_waiter_; w = w->next) {
      ++n;
    }
    return n;
  }

  /// Awaitable receive: `T v = co_await channel.pop();`
  auto pop() {
    struct [[nodiscard]] Awaiter {
      Channel* channel;
      Waiter waiter;

      bool await_ready() { return channel->try_receive(waiter); }
      void await_suspend(std::coroutine_handle<> h) { waiter.handle = h; }
      T await_resume() { return std::move(*waiter.value); }
    };
    return Awaiter{this, Waiter{}};
  }

 private:
  T& slot(unsigned i) {
    return *std::launder(reinterpret_cast<T*>(inline_[i]));
  }

  Engine* engine_;
  /// Newest waiter of a circular list; its `next` is the oldest.
  Waiter* last_waiter_ = nullptr;
  std::unique_ptr<detail::VectorFifo<T>> spill_;
  /// Two inline value slots, used as a ring: the front is inline_[head_].
  alignas(T) unsigned char inline_[2][sizeof(T)];
  std::uint8_t head_ = 0;
  std::uint8_t count_ = 0;
};

}  // namespace ctesim::sim
