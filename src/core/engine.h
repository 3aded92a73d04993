// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events at equal simulated time fire in
// scheduling order (monotone sequence numbers break ties), so every run of a
// given workload produces identical results — a hard requirement for
// recording paper-vs-measured numbers in EXPERIMENTS.md.
//
// The hot path is allocation-free in steady state (docs/ENGINE.md):
// callbacks live inline in the event (util::InlineFunction, 48-byte SBO),
// the queue is an implicit 4-ary min-heap with move-out pop (no callback is
// ever copied), and coroutine frames are recycled through a per-thread pool
// (core/frame_pool.h). src/core must never schedule a closure that spills
// the SBO — enforced by fits_inline static_asserts at the call sites and
// ctesim_lint's core-std-function rule.
#pragma once

#include <cstdint>
#include <vector>

#include "core/event_queue.h"
#include "core/task.h"
#include "util/inline_function.h"
#include "util/time.h"

namespace ctesim::trace {
class Recorder;
}

namespace ctesim::sim {

class Engine {
 public:
  /// Event-callback type: move-only, 48 bytes of inline storage, heap
  /// fallback for oversized closures (see util/inline_function.h).
  using Callback = util::InlineFunction<void()>;

  Engine() = default;
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedule `fn` to run `delay` picoseconds from now (delay >= 0).
  /// Header-inline: scheduling is half of every event's lifecycle, and
  /// inlining lets the callback construct straight into its queue slot.
  void schedule_in(Time delay, Callback fn) {
    CTESIM_EXPECTS(delay >= 0);
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at absolute time `t` (t >= now()).
  void schedule_at(Time t, Callback fn) {
    CTESIM_EXPECTS(t >= now_);
    queue_.push(t, next_seq_++, std::move(fn));
  }

  /// Start a coroutine process at the current simulated time. The engine
  /// takes ownership of the coroutine frame; exceptions escaping the process
  /// are rethrown from run().
  void spawn(Task<> task);

  /// Run until no events remain. Returns the final simulated time.
  Time run();

  /// Awaitable: `co_await engine.delay(dt)` suspends the calling process for
  /// `dt` picoseconds of simulated time.
  auto delay(Time dt) {
    struct Awaiter {
      Engine& engine;
      Time dt;
      bool await_ready() const noexcept { return dt == 0; }
      void await_suspend(std::coroutine_handle<> h) {
        auto resume = [h] { h.resume(); };
        static_assert(Callback::fits_inline<decltype(resume)>,
                      "core must never schedule a spilling closure");
        engine.schedule_in(dt, std::move(resume));
      }
      void await_resume() const noexcept {}
    };
    CTESIM_EXPECTS(dt >= 0);
    return Awaiter{*this, dt};
  }

  /// Processes spawned but not yet finished — nonzero after run() means the
  /// workload deadlocked (e.g. a receive with no matching send).
  std::size_t unfinished_processes() const;

  /// Process handles currently retained (unfinished + failed + not yet
  /// reaped). The incremental reaper keeps this proportional to the number
  /// of *live* processes, not to every process ever spawned —
  /// tests/test_engine_alloc.cpp pins the bound across 100k short spawns.
  std::size_t tracked_processes() const { return processes_.size(); }

  /// Total events dispatched so far (observability / perf tests).
  std::uint64_t events_processed() const { return events_processed_; }

  /// Attach an observability recorder: every `sample_interval` dispatched
  /// events the engine samples its events_processed counter onto the
  /// recorder's global track (category "core"). Pass nullptr to detach.
  /// Costs one branch per dispatch when detached or disabled.
  void set_recorder(trace::Recorder* recorder,
                    std::uint64_t sample_interval = 1024);

 private:
  void dispatch(Time time, Callback& fn);
  void check_failures();
  void reap_sweep();

  /// Per-dispatch reap gate, inline so the run loop pays one predictable
  /// compare per event; the O(survivors) sweep lives out of line.
  void reap_finished() {
    if (processes_.size() >= reap_threshold_) reap_sweep();
  }

  static constexpr std::size_t kMinReapThreshold = 64;

  // Declared before queue_ so pending events (which may hold coroutine
  // handles) are destroyed before the coroutine frames they point into.
  std::vector<Task<>> processes_;
  EventQueue queue_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::size_t reap_threshold_ = kMinReapThreshold;
  trace::Recorder* recorder_ = nullptr;
  std::uint64_t sample_interval_ = 1024;
};

}  // namespace ctesim::sim
