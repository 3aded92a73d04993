// Unit tests for the DES engine and coroutine tasks.
#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/task.h"
#include "util/check.h"
#include "util/rng.h"

namespace ctesim::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_in(30, [&] { order.push_back(3); });
  engine.schedule_in(10, [&] { order.push_back(1); });
  engine.schedule_in(20, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30);
}

TEST(Engine, EqualTimesFireInSchedulingOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_in(5, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, NestedSchedulingAdvancesTime) {
  Engine engine;
  Time inner_time = -1;
  engine.schedule_in(10, [&] {
    engine.schedule_in(15, [&] { inner_time = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(inner_time, 25);
}

TEST(Engine, RejectsNegativeDelay) {
  Engine engine;
  EXPECT_THROW(engine.schedule_in(-1, [] {}), ContractError);
}

TEST(Engine, RandomizedScheduleMatchesStableSortOracle) {
  // The 4-ary heap must dispatch in exactly the order of a stable sort by
  // time over the scheduling sequence — same contract the old
  // std::priority_queue<Event> satisfied, so traces stay byte-identical.
  Rng rng(424242);
  for (int trial = 0; trial < 50; ++trial) {
    Engine engine;
    std::vector<std::pair<Time, int>> scheduled;
    std::vector<int> fired;
    for (int i = 0; i < 300; ++i) {
      // A tiny time domain forces long runs of equal-time events.
      const Time t = static_cast<Time>(rng.next_u64() % 5);
      scheduled.emplace_back(t, i);
      engine.schedule_in(t, [&fired, i] { fired.push_back(i); });
    }
    std::stable_sort(scheduled.begin(), scheduled.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    engine.run();
    ASSERT_EQ(fired.size(), scheduled.size());
    for (std::size_t i = 0; i < fired.size(); ++i) {
      ASSERT_EQ(fired[i], scheduled[i].second) << "trial " << trial;
    }
  }
}

TEST(Engine, CountsEvents) {
  Engine engine;
  for (int i = 0; i < 7; ++i) engine.schedule_in(i, [] {});
  engine.run();
  EXPECT_EQ(engine.events_processed(), 7u);
}

Task<> sleeper(Engine& engine, Time dt, Time* woke_at) {
  co_await engine.delay(dt);
  *woke_at = engine.now();
}

TEST(Process, DelaySuspendsForSimulatedTime) {
  Engine engine;
  Time woke_at = -1;
  engine.spawn(sleeper(engine, 1234, &woke_at));
  engine.run();
  EXPECT_EQ(woke_at, 1234);
  EXPECT_EQ(engine.unfinished_processes(), 0u);
}

Task<> add_later(Engine& engine, int a, int b, int* sum) {
  co_await engine.delay(10);
  *sum = a + b;
}

Task<> caller(Engine& engine, int* out) {
  // Nested awaits: the child task runs inline in simulated time, and its
  // result is written before the parent resumes.
  int x = 0;
  co_await add_later(engine, 2, 3, &x);
  int y = 0;
  co_await add_later(engine, x, 10, &y);
  *out = y;
}

TEST(Process, NestedTasksComposeAndReturnValues) {
  Engine engine;
  int result = 0;
  engine.spawn(caller(engine, &result));
  engine.run();
  EXPECT_EQ(result, 15);
  EXPECT_EQ(engine.now(), 20);
}

Task<> thrower(Engine& engine) {
  co_await engine.delay(5);
  throw std::runtime_error("boom");
}

TEST(Process, ExceptionsPropagateFromRun) {
  Engine engine;
  engine.spawn(thrower(engine));
  EXPECT_THROW(engine.run(), std::runtime_error);
}

Task<> quick(Engine& engine) { co_await engine.delay(1); }

Task<> failing_burst(Engine& engine, int total) {
  for (int i = 0; i < total; ++i) {
    engine.spawn(quick(engine));
    co_await engine.delay(1);
  }
  throw std::runtime_error("late failure");
}

TEST(Process, ExceptionsSurviveIncrementalReaping) {
  // Hundreds of healthy processes finish (and are reaped mid-run) around a
  // driver that eventually throws: run() must still rethrow, because the
  // reaper only drops tasks that finished cleanly.
  Engine engine;
  engine.spawn(failing_burst(engine, 500));
  EXPECT_THROW(engine.run(), std::runtime_error);
  // The healthy 500 were swept while running; only the failed driver plus
  // the not-yet-reaped tail remain tracked.
  EXPECT_LT(engine.tracked_processes(), 500u);
  EXPECT_EQ(engine.unfinished_processes(), 0u);
}

TEST(Engine, TeardownWithPendingEventsAndLiveProcessesIsClean) {
  // Destroy an engine that never ran: the queue still holds resume
  // callbacks pointing into coroutine frames. The destructor must drop the
  // queue before the frames (ASan would flag the reverse order).
  Engine engine;
  engine.spawn(quick(engine));
  engine.spawn(quick(engine));
  engine.schedule_in(5, [] {});
  EXPECT_EQ(engine.tracked_processes(), 2u);
}

Task<> catcher(Engine& engine, bool* caught) {
  try {
    co_await thrower(engine);
  } catch (const std::runtime_error&) {
    *caught = true;
  }
}

TEST(Process, ExceptionsPropagateThroughNestedAwait) {
  Engine engine;
  bool caught = false;
  engine.spawn(catcher(engine, &caught));
  engine.run();
  EXPECT_TRUE(caught);
}

TEST(Process, UnfinishedProcessesDetected) {
  Engine engine;
  engine.spawn([]() -> Task<> {
    co_await std::suspend_always{};  // nothing ever resumes it
  }());
  engine.run();
  EXPECT_EQ(engine.unfinished_processes(), 1u);
}

TEST(Time, SecondConversionRoundTrips) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(1e-6), kMicrosecond);
  EXPECT_DOUBLE_EQ(to_seconds(kMillisecond), 1e-3);
  EXPECT_EQ(from_seconds(to_seconds(123456789)), 123456789);
}

TEST(Time, FromSecondsRejectsWhatTheClockCannotHold) {
  // The clock is int64 picoseconds: about +-106.75 days.
  EXPECT_EQ(from_seconds(9.2e6), 9'200'000 * kSecond);
  EXPECT_EQ(from_seconds(-9.2e6), -9'200'000 * kSecond);
  EXPECT_THROW(from_seconds(9.3e6), ContractError);
  EXPECT_THROW(from_seconds(-9.3e6), ContractError);
  EXPECT_THROW(from_seconds(1e20), ContractError);
  EXPECT_THROW(from_seconds(std::numeric_limits<double>::infinity()),
               ContractError);
  EXPECT_THROW(from_seconds(-std::numeric_limits<double>::infinity()),
               ContractError);
  EXPECT_THROW(from_seconds(std::numeric_limits<double>::quiet_NaN()),
               ContractError);
}

}  // namespace
}  // namespace ctesim::sim
