// Robustness tests for the DES core: dynamic spawning, multi-failure
// handling, zero-delay ordering.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/engine.h"
#include "core/task.h"

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

}  // namespace
}  // namespace ctesim::sim
