// Coroutine task type for simulated processes.
//
// Task<> is a lazy coroutine: creating it does nothing; it starts when
// awaited (symmetric transfer) or when spawned onto an Engine. A finished
// task resumes its awaiter, so `co_await subroutine()` composes naturally —
// exactly how a rank body awaits the simulated-MPI collectives. A task
// returns no value; a subroutine reports results through its arguments.
//
// COMPILER CONSTRAINT (GCC 12): arguments passed to a coroutine invoked
// inside a `co_await` expression must be trivially destructible or named
// lvalues. GCC 12.2 miscompiles the destruction of non-trivially-
// destructible temporaries (and by-value parameter copies) that cross the
// coroutine boundary, corrupting the coroutine frame (verified with ASan;
// fixed in later GCC). All ctesim coroutine APIs therefore take either
// trivially-destructible values (ints, KernelSig) or std::span views.
// tests/test_core.cpp pins the safe patterns.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "core/frame_pool.h"
#include "util/check.h"

namespace ctesim::sim {

/// Only Task<> (= Task<void>) is defined.
template <typename T = void>
class Task;

namespace detail {

struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }

  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    auto& promise = h.promise();
    promise.done = true;
    if (promise.continuation) return promise.continuation;
    return std::noop_coroutine();
  }

  void await_resume() const noexcept {}
};

struct Promise {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;
  bool done = false;

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
  Task<void> get_return_object();
  void return_void() noexcept {}

  // Coroutine frames come from the size-bucketed per-thread pool: spawn/
  // resume/destroy of short-lived processes dominates batch and simmpi
  // studies, and after warm-up a frame costs a pointer pop instead of a
  // malloc (tests/test_engine_alloc.cpp asserts the zero-allocation steady
  // state). Declaring only the sized delete makes the compiler pass the
  // frame size back, which is what lets the pool bucket without a header.
  static void* operator new(std::size_t size) {
    return frame_pool::allocate(size);
  }
  static void operator delete(void* ptr, std::size_t size) noexcept {
    frame_pool::deallocate(ptr, size);
  }
};

}  // namespace detail

/// An owning handle to a lazy coroutine.
template <>
class [[nodiscard]] Task<void> {
 public:
  using promise_type = detail::Promise;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle handle) : handle_(handle) {}

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return handle_ && handle_.promise().done; }

  /// True when the task finished by throwing (Engine's incremental reaper
  /// must keep such tasks alive until check_failures() rethrows).
  bool failed() const { return handle_ && handle_.promise().exception; }

  /// Rethrow any exception the task finished with (no-op otherwise).
  void rethrow_if_failed() const {
    if (handle_ && handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
  }

  /// Releases ownership (used by Engine::spawn which manages lifetime).
  Handle release() { return std::exchange(handle_, {}); }
  Handle handle() const { return handle_; }

  // --- awaitable interface: `co_await task` starts it and suspends the
  //     caller until it completes. ---
  struct Awaiter {
    Handle handle;

    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<> awaiting) noexcept {
      handle.promise().continuation = awaiting;
      return handle;  // symmetric transfer into the child task
    }

    void await_resume() const {
      if (handle.promise().exception) {
        std::rethrow_exception(handle.promise().exception);
      }
    }
  };

  Awaiter operator co_await() const& {
    CTESIM_EXPECTS(valid());
    return Awaiter{handle_};
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_;
};

inline Task<void> detail::Promise::get_return_object() {
  return Task<void>(std::coroutine_handle<Promise>::from_promise(*this));
}

}  // namespace ctesim::sim
