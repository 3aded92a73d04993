// Robustness tests for the DES core: dynamic spawning, multi-failure
// handling, move-only channel payloads, zero-delay ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/channel.h"
#include "core/engine.h"
#include "core/task.h"
#include "util/rng.h"

namespace ctesim::sim {
namespace {

Task<> child(Engine& engine, Time dt, std::vector<Time>* log) {
  co_await engine.delay(dt);
  log->push_back(engine.now());
}

Task<> spawner(Engine& engine, std::vector<Time>* log) {
  co_await engine.delay(10);
  // Spawning from inside a running process must work (the new process
  // starts at the current simulated time).
  engine.spawn(child(engine, 5, log));
  co_await engine.delay(100);
  log->push_back(engine.now());
}

TEST(EngineRobustness, SpawnDuringRun) {
  Engine engine;
  std::vector<Time> log;
  engine.spawn(spawner(engine, &log));
  engine.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], 15);   // child finished at 10 + 5
  EXPECT_EQ(log[1], 110);  // spawner at 10 + 100
  EXPECT_EQ(engine.unfinished_processes(), 0u);
}

Task<> fails_at(Engine& engine, Time t, const char* what) {
  co_await engine.delay(t);
  throw std::runtime_error(what);
}

TEST(EngineRobustness, FirstFailureReportedOthersContained) {
  Engine engine;
  engine.spawn(fails_at(engine, 10, "first"));
  engine.spawn(fails_at(engine, 20, "second"));
  // run() drains the queue, then rethrows a stored failure.
  try {
    engine.run();
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_TRUE(what == "first" || what == "second");
  }
}

TEST(EngineRobustness, ZeroDelayPreservesProgramOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.spawn([](Engine& eng, std::vector<int>* log,
                    int id) -> Task<> {
      co_await eng.delay(0);  // ready-path, no suspension
      log->push_back(id);
      co_await eng.delay(7);
      log->push_back(id + 100);
    }(engine, &order, i));
  }
  engine.run();
  ASSERT_EQ(order.size(), 10u);
  // First wave in spawn order, second wave in spawn order.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(order[static_cast<std::size_t>(5 + i)], i + 100);
  }
}

Task<> move_producer(Engine& engine, Channel<std::unique_ptr<int>>& ch) {
  for (int i = 0; i < 3; ++i) {
    co_await engine.delay(1);
    ch.push(std::make_unique<int>(i));
  }
}

Task<> move_consumer(Channel<std::unique_ptr<int>>& ch, int* sum) {
  for (int i = 0; i < 3; ++i) {
    auto v = co_await ch.pop();
    *sum += *v;
  }
}

TEST(ChannelRobustness, MoveOnlyPayloads) {
  Engine engine;
  Channel<std::unique_ptr<int>> ch(engine);
  int sum = 0;
  engine.spawn(move_producer(engine, ch));
  engine.spawn(move_consumer(ch, &sum));
  engine.run();
  EXPECT_EQ(sum, 0 + 1 + 2);
}

TEST(ChannelRobustness, ManyProducersOneConsumerFifoPerProducer) {
  Engine engine;
  Channel<int> ch(engine);
  for (int p = 0; p < 3; ++p) {
    engine.spawn([](Engine& eng, Channel<int>& c, int producer) -> Task<> {
      for (int i = 0; i < 4; ++i) {
        co_await eng.delay(10);
        c.push(producer * 10 + i);
      }
    }(engine, ch, p));
  }
  std::vector<int> got;
  engine.spawn([](Channel<int>& c, std::vector<int>* out) -> Task<> {
    for (int i = 0; i < 12; ++i) out->push_back(co_await c.pop());
  }(ch, &got));
  engine.run();
  ASSERT_EQ(got.size(), 12u);
  // Per-producer order is preserved even though producers interleave.
  for (int p = 0; p < 3; ++p) {
    int last = -1;
    for (int v : got) {
      if (v / 10 == p) {
        EXPECT_GT(v % 10, last);
        last = v % 10;
      }
    }
    EXPECT_EQ(last, 3);
  }
}

TEST(ChannelRobustness, InterleavedPushPopStaysFifoWithVaryingBacklog) {
  // 10 000 pushes and pops from one process (a pop of a non-empty channel
  // completes without suspending). The backlog swings between 0 and ~180,
  // so the queue drains and resets its head many times and compacts on
  // the way down.
  Engine engine;
  Channel<int> ch(engine);
  std::vector<int> popped;
  std::size_t max_backlog = 0;
  int drains = 0;
  engine.spawn([](Channel<int>& c, std::vector<int>* out,
                  std::size_t* max_size, int* drained) -> Task<> {
    Rng rng(17);
    int next = 0;
    for (int op = 0; op < 10000; ++op) {
      // Filling (75% pushes) then longer draining (25%) phases.
      const double push_share = op % 800 < 300 ? 0.75 : 0.25;
      if (c.empty() || rng.uniform() < push_share) {
        c.push(next++);
      } else {
        out->push_back(co_await c.pop());
        if (c.empty()) ++*drained;
      }
      *max_size = std::max(*max_size, c.size());
    }
    while (!c.empty()) out->push_back(co_await c.pop());
  }(ch, &popped, &max_backlog, &drains));
  engine.run();
  EXPECT_EQ(engine.unfinished_processes(), 0u);
  EXPECT_GT(max_backlog, 32u);
  EXPECT_GT(drains, 10);
  ASSERT_FALSE(popped.empty());
  for (std::size_t i = 0; i < popped.size(); ++i) {
    ASSERT_EQ(popped[i], static_cast<int>(i)) << "FIFO broken at pop " << i;
  }
}

TEST(ChannelRobustness, WaitersWakeInArrivalOrderWithVaryingBacklog) {
  // Receiver k arrives at time 2k; value k is pushed at 2k + 1 + lag, with
  // the lag swinging between 0 and ~120 so that the waiter queue grows,
  // drains, resets and compacts. Hand-off is FIFO, so receiver k must get
  // value k and the wake-ups must come in arrival order.
  constexpr int kReceivers = 1000;
  Engine engine;
  Channel<int> ch(engine);
  std::vector<int> got(kReceivers, -1);
  std::vector<int> woke;
  std::size_t max_waiting = 0;
  for (int k = 0; k < kReceivers; ++k) {
    engine.spawn([](Engine& eng, Channel<int>& c, int id, std::vector<int>* g,
                    std::vector<int>* w) -> Task<> {
      co_await eng.delay(2 * id);
      (*g)[static_cast<std::size_t>(id)] = co_await c.pop();
      w->push_back(id);
    }(engine, ch, k, &got, &woke));
  }
  engine.spawn([](Engine& eng, Channel<int>& c,
                  std::size_t* max_size) -> Task<> {
    Time at = 0;
    for (int k = 0; k < kReceivers; ++k) {
      const int phase = k % 120;
      const Time lag = phase < 60 ? 2 * phase : 2 * (120 - phase);
      const Time due = std::max(at, Time{2 * k + 1} + lag);
      co_await eng.delay(due - eng.now());
      at = due;
      *max_size = std::max(*max_size, c.waiting_receivers());
      c.push(k);
    }
  }(engine, ch, &max_waiting));
  engine.run();
  EXPECT_EQ(engine.unfinished_processes(), 0u);
  EXPECT_GT(max_waiting, 32u);
  EXPECT_TRUE(ch.empty());
  EXPECT_EQ(ch.waiting_receivers(), 0u);
  ASSERT_EQ(woke.size(), static_cast<std::size_t>(kReceivers));
  for (int k = 0; k < kReceivers; ++k) {
    ASSERT_EQ(got[static_cast<std::size_t>(k)], k) << "receiver " << k;
    ASSERT_EQ(woke[static_cast<std::size_t>(k)], k) << "wake-up " << k;
  }
}

}  // namespace
}  // namespace ctesim::sim
