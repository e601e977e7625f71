#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"

namespace cdsf::sim {
namespace {

TEST(Engine, DispatchesInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(engine.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, FifoAmongEqualTimes) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(1.0, [&] { order.push_back(2); });
  engine.schedule_at(1.0, [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, NowAdvancesWithEvents) {
  Engine engine;
  double seen = -1.0;
  engine.schedule_at(5.0, [&] { seen = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
}

TEST(Engine, HandlersMayScheduleMoreEvents) {
  Engine engine;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) engine.schedule_after(1.0, chain);
  };
  engine.schedule_at(0.0, chain);
  EXPECT_EQ(engine.run(), 10u);
  EXPECT_DOUBLE_EQ(engine.now(), 9.0);
}

TEST(Engine, RejectsPastAndNonFiniteTimes) {
  Engine engine;
  engine.schedule_at(5.0, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(4.0, [] {}), std::invalid_argument);
  EXPECT_THROW(engine.schedule_at(std::numeric_limits<double>::infinity(), [] {}),
               std::invalid_argument);
  EXPECT_THROW(engine.schedule_after(-1.0, [] {}), std::invalid_argument);
}

TEST(Engine, EventBudgetGuard) {
  Engine engine;
  std::function<void()> forever = [&] { engine.schedule_after(1.0, forever); };
  engine.schedule_at(0.0, forever);
  EXPECT_THROW(engine.run(100), std::runtime_error);
}

TEST(Engine, PendingCount) {
  Engine engine;
  EXPECT_EQ(engine.pending(), 0u);
  engine.schedule_at(1.0, [] {});
  engine.schedule_at(2.0, [] {});
  EXPECT_EQ(engine.pending(), 2u);
  engine.run();
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(Engine, RunUntilDispatchesThroughTheHorizonAndLeavesLaterEventsPending) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(1.0, [&] {
    order.push_back(1);
    engine.schedule_at(2.0, [&] { order.push_back(3); });  // lands on the horizon
  });
  engine.schedule_at(2.0, [&] {
    order.push_back(2);
    engine.schedule_at(2.0, [&] { order.push_back(4); });  // scheduled while it is reached
  });
  engine.schedule_at(2.5, [&] { order.push_back(5); });
  EXPECT_EQ(engine.run_until(2.0), 4u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(engine.pending(), 1u);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);  // the last dispatched event, not the horizon
  EXPECT_EQ(engine.run(), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_DOUBLE_EQ(engine.now(), 2.5);
  EXPECT_THROW(engine.run_until(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(Engine, EmptyRunReturnsZero) {
  Engine engine;
  EXPECT_EQ(engine.run(), 0u);
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
}

}  // namespace
}  // namespace cdsf::sim
