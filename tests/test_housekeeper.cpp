// The runtime's shared housekeeping thread: deadline order, cancellation
// that waits out an in-flight callback (also from inside the callback
// itself), one-shots flushed at stop, and lazy start — a runtime with
// nothing scheduled starts no thread. Also the IntrospectionHook, the
// housekeeping client with no other test.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/api.hpp"
#include "runtime/housekeeper.hpp"
#include "runtime/introspect.hpp"

namespace tj::runtime {
namespace {

using namespace std::chrono_literals;

/// Spins (with sleeps) until `pred` holds or 10 s pass.
template <typename Pred>
bool eventually(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(Housekeeper, CallbacksRunInDeadlineOrder) {
  Housekeeper hk;
  std::atomic<bool> release{false};
  std::mutex mu;
  std::vector<int> order;
  // Park the thread inside a first callback, so every later timer is due
  // by the time it looks again and only deadline order can decide.
  hk.after(0ms, [&release] {
    while (!release.load()) std::this_thread::sleep_for(1ms);
  });
  const auto push = [&mu, &order](int v) {
    return [&mu, &order, v] {
      std::scoped_lock lock(mu);
      order.push_back(v);
    };
  };
  // Delays far apart, so a descheduled test thread cannot reorder them.
  hk.after(300ms, push(3));
  hk.after(100ms, push(1));
  hk.after(200ms, push(2));
  hk.after(200ms, push(22));  // same delay, registered later: runs later
  std::this_thread::sleep_for(350ms);
  release.store(true);
  ASSERT_TRUE(eventually([&] {
    std::scoped_lock lock(mu);
    return order.size() == 4;
  }));
  std::scoped_lock lock(mu);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 22, 3}));
}

TEST(Housekeeper, PeriodicTimerRepeatsUntilCancelled) {
  Housekeeper hk;
  std::atomic<int> runs{0};
  const Housekeeper::Id id = hk.every(1ms, [&runs] { ++runs; });
  ASSERT_NE(id, 0u);
  ASSERT_TRUE(eventually([&runs] { return runs.load() >= 3; }));
  hk.cancel(id);
  const int after_cancel = runs.load();
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(runs.load(), after_cancel);
  hk.cancel(id);  // already cancelled: no-op
  hk.cancel(0);   // never a timer: no-op
}

TEST(Housekeeper, CancelWaitsForAnInFlightCallback) {
  Housekeeper hk;
  std::atomic<bool> entered{false};
  std::atomic<bool> finished{false};
  std::atomic<int> runs{0};
  const Housekeeper::Id id = hk.every(1ms, [&] {
    if (++runs > 1) return;
    entered.store(true);
    std::this_thread::sleep_for(50ms);
    finished.store(true);
  });
  ASSERT_TRUE(eventually([&entered] { return entered.load(); }));
  hk.cancel(id);
  EXPECT_TRUE(finished.load()) << "cancel returned while fn still ran";
  EXPECT_EQ(runs.load(), 1) << "cancelled timer was rescheduled";
  std::this_thread::sleep_for(10ms);
  EXPECT_EQ(runs.load(), 1);
}

TEST(Housekeeper, CallbackCanCancelItself) {
  Housekeeper hk;
  std::mutex id_mu;  // the callback reads the id only once every() returned
  Housekeeper::Id id = 0;
  std::atomic<int> runs{0};
  {
    std::scoped_lock lock(id_mu);
    id = hk.every(1ms, [&] {
      if (++runs < 3) return;
      std::scoped_lock inner(id_mu);
      hk.cancel(id);  // must neither deadlock nor reschedule
    });
  }
  ASSERT_TRUE(eventually([&runs] { return runs.load() >= 3; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(runs.load(), 3);
}

TEST(Housekeeper, PendingOneShotsRunAtStop) {
  Housekeeper hk;
  std::atomic<int> one_shots{0};
  std::atomic<int> periodic{0};
  hk.after(1h, [&one_shots] { ++one_shots; });
  hk.after(2h, [&one_shots] { ++one_shots; });
  hk.every(1h, [&periodic] { ++periodic; });
  hk.stop();
  EXPECT_EQ(one_shots.load(), 2) << "a pending one-shot was lost at stop";
  EXPECT_EQ(periodic.load(), 0) << "periodic timers are dropped at stop";
  EXPECT_FALSE(hk.started());
  // After stop a one-shot runs inline; a periodic timer is refused.
  EXPECT_EQ(hk.after(1h, [&one_shots] { ++one_shots; }), 0u);
  EXPECT_EQ(one_shots.load(), 3);
  EXPECT_EQ(hk.every(1ms, [&periodic] { ++periodic; }), 0u);
  EXPECT_FALSE(hk.started());
  hk.stop();  // idempotent
}

TEST(Housekeeper, StartsOnFirstRegistrationOnly) {
  Housekeeper hk;
  EXPECT_FALSE(hk.started());
  hk.cancel(hk.every(1h, [] {}));
  EXPECT_TRUE(hk.started());
}

TEST(Housekeeper, RuntimeWithNothingScheduledStartsNoThread) {
  Config cfg;
  cfg.workers = 2;
  Runtime rt(cfg);
  rt.root([] { return async([] { return 1; }).get(); });
  EXPECT_FALSE(rt.housekeeper().started());

  Config governed = cfg;
  governed.governor.enabled = true;
  Runtime with_governor(governed);
  EXPECT_TRUE(with_governor.housekeeper().started());
}

// ---------------------------------------------------- IntrospectionHook --
// A housekeeping client: the hook polls its request flag on the runtime's
// housekeeper and hands each requested snapshot to its sink.

TEST(IntrospectionHook, OneRequestYieldsExactlyOneDump) {
  Config cfg;
  cfg.workers = 2;
  Runtime rt(cfg);
  std::atomic<int> dumps{0};
  IntrospectionHook hook(rt, [&dumps](const RuntimeSnapshot&) { ++dumps; });
  hook.request();
  ASSERT_TRUE(eventually([&dumps] { return dumps.load() == 1; }));
  std::this_thread::sleep_for(200ms);  // several more polls
  EXPECT_EQ(dumps.load(), 1);
}

TEST(IntrospectionHook, RequestCurrentNeedsALiveHook) {
  Config cfg;
  cfg.workers = 2;
  Runtime rt(cfg);
  EXPECT_FALSE(IntrospectionHook::request_current());
  std::atomic<int> dumps{0};
  {
    IntrospectionHook hook(rt, [&dumps](const RuntimeSnapshot&) { ++dumps; });
    EXPECT_TRUE(IntrospectionHook::request_current());
    ASSERT_TRUE(eventually([&dumps] { return dumps.load() == 1; }));
  }
  EXPECT_FALSE(IntrospectionHook::request_current());
}

TEST(IntrospectionHook, DestroyingWithAPendingPollReturnsPromptly) {
  Config cfg;
  cfg.workers = 2;
  Runtime rt(cfg);
  std::atomic<int> dumps{0};
  const auto start = std::chrono::steady_clock::now();
  {
    IntrospectionHook hook(rt, [&dumps](const RuntimeSnapshot&) { ++dumps; });
    hook.request();  // armed; the next poll is up to 50 ms away
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, 1s);
  const int seen = dumps.load();
  std::this_thread::sleep_for(150ms);
  EXPECT_EQ(dumps.load(), seen) << "sink ran after its hook was destroyed";
}

}  // namespace
}  // namespace tj::runtime
