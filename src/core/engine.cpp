#include "core/engine.h"

#include <algorithm>
#include <utility>

#include "trace/recorder.h"
#include "util/assert.h"
#include "util/check.h"

namespace ctesim::sim {

Engine::~Engine() {
  // Drop pending events (and the coroutine handles they capture) before the
  // member destruction order tears down the coroutine frames themselves.
  queue_.clear();
}

void Engine::spawn(Task<> task) {
  CTESIM_EXPECTS(task.valid());
  processes_.push_back(std::move(task));
  auto handle = processes_.back().handle();
  auto resume = [handle] { handle.resume(); };
  static_assert(Callback::fits_inline<decltype(resume)>,
                "core must never schedule a spilling closure");
  schedule_in(0, std::move(resume));
}

void Engine::set_recorder(trace::Recorder* recorder,
                          std::uint64_t sample_interval) {
  CTESIM_EXPECTS(sample_interval >= 1);
  recorder_ = recorder;
  sample_interval_ = sample_interval;
}

void Engine::dispatch(Time time, Callback& fn) {
  CTESIM_DCHECK(time >= now_,
                "simulated time must be monotone: event scheduled in the "
                "past reached the dispatcher");
  now_ = time;
  ++events_processed_;
  if (recorder_ && events_processed_ % sample_interval_ == 0) {
    recorder_->counter(trace::Track::global(), "core", "events_processed",
                       now_, static_cast<double>(events_processed_));
  }
  fn();
}

void Engine::check_failures() {
  for (const auto& process : processes_) {
    if (process.done()) process.rethrow_if_failed();
  }
}

void Engine::reap_sweep() {
  // Drop finished processes (frames go back to the frame pool); keep the
  // failed ones so check_failures() still rethrows in spawn order, exactly
  // as before reaping existed. remove_if is stable, so relative order —
  // and therefore which failure is rethrown first — is preserved.
  processes_.erase(
      std::remove_if(processes_.begin(), processes_.end(),
                     [](const Task<>& t) { return t.done() && !t.failed(); }),
      processes_.end());
  // Re-arm at 2x the surviving population: the sweep above is O(survivors),
  // so total reaping work stays linear in processes spawned — amortised
  // O(1) per process — while processes_ stays O(live), not O(ever spawned).
  reap_threshold_ =
      std::max(kMinReapThreshold, processes_.size() * 2);
}

Time Engine::run() {
  while (!queue_.empty()) {
    // pop_earliest moves the callback (inline storage and all) out of the
    // queue's slot slab; the old copy-then-pop via
    // std::priority_queue::top() cost a copy of a heap-allocated
    // std::function per dispatch. BM_ScheduleDispatch vs
    // BM_ScheduleDispatchLegacy (bench/engine_rate.cpp) keeps that
    // difference measured so it cannot silently regress.
    Time t;
    Callback fn = queue_.pop_earliest(t);
    dispatch(t, fn);
    reap_finished();
  }
  check_failures();
  return now_;
}

std::size_t Engine::unfinished_processes() const {
  std::size_t unfinished = 0;
  for (const auto& process : processes_) {
    if (!process.done()) ++unfinished;
  }
  return unfinished;
}

}  // namespace ctesim::sim
