// Asynchronous FIFO channel between simulated processes.
//
// `push` never blocks (unbounded queue — timing is modelled by the layers
// above, not by backpressure here); `pop` suspends the caller until a value
// is available. A push with receivers waiting hands the value directly to
// the oldest waiter, so a later receiver can never steal an item from an
// earlier one — wakeup order is FIFO and deterministic.
//
// Both queues are a vector plus a head index, so a channel that has never
// held a value or a waiter owns no heap memory: the simulated-MPI layer
// keeps one channel per (destination, source, tag) and most of them are
// short or idle. The vector resets when the queue drains and compacts once
// the head passes half its size, so a channel that never drains stays
// bounded by its backlog.
#pragma once

#include <coroutine>
#include <cstddef>
#include <optional>
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
 public:
  explicit Channel(Engine& engine) : engine_(&engine) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Deliver a value; hands it to the oldest waiting receiver (resumed at
  /// the current simulated time) or queues it.
  void push(T value) {
    if (!waiters_.empty()) {
      Waiter* waiter = waiters_.front();
      waiters_.pop_front();
      waiter->value.emplace(std::move(value));
      const auto handle = waiter->handle;
      auto resume = [handle] { handle.resume(); };
      static_assert(Engine::Callback::fits_inline<decltype(resume)>,
                    "core must never schedule a spilling closure");
      engine_->schedule_in(0, std::move(resume));
      return;
    }
    items_.push_back(std::move(value));
  }

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  std::size_t waiting_receivers() const { return waiters_.size(); }

  /// Awaitable receive: `T v = co_await channel.pop();`
  auto pop() {
    struct [[nodiscard]] Awaiter {
      Channel& channel;
      Waiter waiter;

      bool await_ready() const noexcept {
        // Items can only be queued while no receiver waits, so a non-empty
        // queue means we may take the front immediately.
        return !channel.items_.empty();
      }

      void await_suspend(std::coroutine_handle<> h) {
        waiter.handle = h;
        channel.waiters_.push_back(&waiter);
      }

      T await_resume() {
        if (waiter.value.has_value()) return std::move(*waiter.value);
        CTESIM_EXPECTS(!channel.items_.empty());
        T value = std::move(channel.items_.front());
        channel.items_.pop_front();
        return value;
      }
    };
    return Awaiter{*this, Waiter{}};
  }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    std::optional<T> value;
  };

  Engine* engine_;
  detail::VectorFifo<T> items_;
  detail::VectorFifo<Waiter*> waiters_;
};

}  // namespace ctesim::sim
