// Structured cancellation: a fault in one task cancels its still-pending
// siblings, poisons their promises and barriers, and surfaces everywhere as
// CancelledError carrying the originating fault — while the scope *owner*
// survives as the recovery point.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/api.hpp"
#include "runtime/barrier.hpp"
#include "runtime/cancellation.hpp"
#include "runtime/finish.hpp"

namespace tj::runtime {
namespace {

// Pins the (single) worker so everything spawned afterwards stays queued.
// Call pin() from the root task: the root is not a worker, so the blocker
// and everything spawned after it go through the FIFO injection queue, and
// the worker dequeues the blocker first. Spawn the blocker OUTSIDE any
// cancellation scope under test so it is not itself cancelled.
//
// The release flag is shared with the blocker by value, not through `this`:
// a cancelled root throws at its join checkpoint while the blocker still
// runs, so the pin (on the root's stack) can die before the blocker sees the
// flag. A `this` capture would then spin on a reused stack slot forever.
struct WorkerPin {
  std::shared_ptr<std::atomic<bool>> release =
      std::make_shared<std::atomic<bool>>(false);
  Future<void> blocker;
  void pin() {
    blocker = async([release = release] {
      while (!release->load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  }
  void drain() {
    release->store(true, std::memory_order_release);
    blocker.join();
  }
};

TEST(Cancellation, FaultCancelsQueuedSiblingsWithCause) {
  Runtime rt({.policy = core::PolicyChoice::TJ_SP,
              .scheduler = SchedulerMode::Cooperative,
              .workers = 1});
  rt.root([] {
    WorkerPin pin;
    pin.pin();
    CancellationScope scope;  // OnFault::Cancel
    auto failing = async([]() -> int {
      throw std::runtime_error("original fault");
    });
    std::vector<Future<int>> siblings;
    for (int i = 0; i < 8; ++i) siblings.push_back(async([] { return 1; }));
    // The failing task is queued (worker pinned): this get() inlines it;
    // its fault cancels the scope, force-completing the queued siblings.
    EXPECT_THROW(failing.get(), std::runtime_error);
    EXPECT_TRUE(scope.cancelled());
    EXPECT_EQ(scope.tasks_cancelled(), 8u);
    for (auto& f : siblings) {
      try {
        (void)f.get();
        ADD_FAILURE() << "cancelled sibling returned a value";
      } catch (const CancelledError& e) {
        ASSERT_TRUE(e.cause() != nullptr);
        EXPECT_THROW(std::rethrow_exception(e.cause()), std::runtime_error);
      }
    }
    pin.drain();
  });
}

TEST(Cancellation, ScopeOwnerSurvivesAndRetriesOutsideTheScope) {
  // The recovery pattern of the issue: catch → (scope cancelled the rest) →
  // retry outside the failed scope.
  Runtime rt({.policy = core::PolicyChoice::TJ_SP,
              .scheduler = SchedulerMode::Cooperative,
              .workers = 1});
  const int v = rt.root([]() -> int {
    WorkerPin pin;
    pin.pin();
    {
      CancellationScope scope;
      auto failing = async([]() -> int {
        throw std::runtime_error("attempt 1 fails");
      });
      auto sibling = async([] { return 5; });
      EXPECT_THROW(failing.get(), std::runtime_error);
      EXPECT_THROW(sibling.get(), CancelledError);
    }
    pin.drain();
    // The owner was never cancelled; spawns after the scope closed belong
    // to the (uncancelled) enclosing scope and run normally.
    EXPECT_FALSE(cancel_requested());
    auto retry = async([] { return 42; });
    return retry.get();
  });
  EXPECT_EQ(v, 42);
}

TEST(Cancellation, NestedScopeCancelPropagatesDownButNotUp) {
  Runtime rt({.policy = core::PolicyChoice::TJ_SP,
              .scheduler = SchedulerMode::Cooperative,
              .workers = 1});
  rt.root([] {
    WorkerPin pin;
    pin.pin();
    CancellationScope outer;
    auto outer_task = async([] { return 1; });
    {
      CancellationScope inner;
      auto inner_task = async([] { return 2; });
      outer.cancel();  // cancelling the OUTER scope reaches inner's tasks
      EXPECT_TRUE(inner.cancelled());
      EXPECT_THROW((void)inner_task.get(), CancelledError);
    }
    EXPECT_THROW((void)outer_task.get(), CancelledError);
    pin.drain();
  });
  // ...and the reverse: an inner cancel must not touch the outer scope.
  Runtime rt2({.policy = core::PolicyChoice::TJ_SP,
               .scheduler = SchedulerMode::Cooperative,
               .workers = 1});
  rt2.root([] {
    WorkerPin pin;
    pin.pin();
    CancellationScope outer;
    auto outer_task = async([] { return 1; });
    {
      CancellationScope inner;
      auto inner_task = async([] { return 2; });
      inner.cancel();
      EXPECT_THROW((void)inner_task.get(), CancelledError);
      EXPECT_FALSE(outer.cancelled());
    }
    pin.drain();
    EXPECT_EQ(outer_task.get(), 1);
  });
}

TEST(Cancellation, CancelledScopeRejectsNewSpawns) {
  Runtime rt({.policy = core::PolicyChoice::TJ_SP,
              .scheduler = SchedulerMode::Cooperative,
              .workers = 1});
  rt.root([] {
    WorkerPin pin;
    pin.pin();
    auto body = async([] {
      CancellationScope scope;
      scope.cancel();
      // This task IS a member... no: the scope was opened inside it, so the
      // task itself is the owner; but tasks it now spawns join the cancelled
      // scope and are abandoned at the spawn checkpoint.
      EXPECT_THROW(async([] { return 1; }), CancelledError);
    });
    pin.drain();
    body.join();
  });
}

TEST(Cancellation, PoisonedPromiseFailsFastWithCause) {
  Runtime rt({.policy = core::PolicyChoice::TJ_SP,
              .scheduler = SchedulerMode::Cooperative,
              .workers = 1});
  rt.root([] {
    WorkerPin pin;
    pin.pin();
    auto p = make_promise<int>();
    CancellationScope scope;
    // The fulfiller is queued behind the pin and owns p. Cancelling the
    // scope force-completes it; its exit orphans p poisoned with the
    // cancellation cause, so the await faults with CancelledError — not a
    // bare DeadlockAvoidedError.
    auto fulfiller = async_owning(p, [p] { p.fulfill(1); });
    scope.cancel(std::make_exception_ptr(std::runtime_error("root cause")));
    try {
      (void)p.get();
      ADD_FAILURE() << "await on a poisoned promise returned";
    } catch (const CancelledError& e) {
      ASSERT_TRUE(e.cause() != nullptr);
      EXPECT_THROW(std::rethrow_exception(e.cause()), std::runtime_error);
    }
    EXPECT_THROW(fulfiller.join(), CancelledError);
    pin.drain();
  });
  EXPECT_EQ(rt.gate_stats().promises_orphaned, 1u);
}

TEST(Cancellation, PoisonedBarrierReleasesBlockedPeer) {
  // A member task blocks in a barrier await; cancelling its scope poisons
  // the barrier, so the task is released (with CancelledError), never
  // stranded.
  Runtime rt({.policy = core::PolicyChoice::TJ_SP,
              .scheduler = SchedulerMode::Blocking,
              .workers = 2});
  rt.root([] {
    BarrierDomain domain;
    CheckedBarrier& bar = domain.create_barrier();
    bar.register_party();  // the root: registered but never arrives
    std::atomic<bool> entered{false};
    CancellationScope scope;
    auto member = async([&bar, &entered] {
      bar.register_party();
      entered.store(true, std::memory_order_release);
      (void)bar.await();  // blocks: the root never arrives
    });
    while (!entered.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    scope.cancel(std::make_exception_ptr(std::runtime_error("tear down")));
    EXPECT_THROW(member.join(), CancelledError);
    EXPECT_TRUE(bar.poisoned());
    // The poison is sticky: later operations fail fast too.
    EXPECT_THROW((void)bar.await(), CancelledError);
  });
}

TEST(Cancellation, ConfigCancelOnFaultCancelsTheWholeRuntime) {
  Config cfg;
  cfg.policy = core::PolicyChoice::TJ_SP;
  cfg.scheduler = SchedulerMode::Cooperative;
  cfg.workers = 1;
  cfg.cancel_on_fault = true;
  Runtime rt(cfg);
  rt.root([] {
    WorkerPin pin;
    pin.pin();
    auto failing = async([]() -> int {
      throw std::runtime_error("fatal");
    });
    std::vector<Future<int>> rest;
    for (int i = 0; i < 4; ++i) rest.push_back(async([] { return 1; }));
    EXPECT_THROW(failing.get(), std::runtime_error);
    for (auto& f : rest) EXPECT_THROW((void)f.get(), CancelledError);
    // The root scope is the runtime: even the root's spawns now fault.
    EXPECT_THROW(async([] { return 1; }), CancelledError);
    pin.release->store(true, std::memory_order_release);
    // pin.blocker was spawned under the (now cancelled) root scope; its
    // join surfaces the cancellation rather than blocking.
    try {
      pin.blocker.join();
    } catch (const CancelledError&) {
    }
  });
}

TEST(Cancellation, CancelAllStopsPendingWork) {
  Runtime rt({.policy = core::PolicyChoice::TJ_SP,
              .scheduler = SchedulerMode::Cooperative,
              .workers = 1});
  rt.root([&rt] {
    WorkerPin pin;
    pin.pin();
    std::vector<Future<int>> fs;
    for (int i = 0; i < 4; ++i) fs.push_back(async([] { return 1; }));
    rt.cancel_all(std::make_exception_ptr(std::runtime_error("shutdown")));
    for (auto& f : fs) EXPECT_THROW((void)f.get(), CancelledError);
    pin.release->store(true, std::memory_order_release);
    try {
      pin.blocker.join();
    } catch (const CancelledError&) {
    }
  });
}

TEST(Cancellation, CooperativeFlagAndCheckpointInRunningTask) {
  Runtime rt({.policy = core::PolicyChoice::TJ_SP,
              .scheduler = SchedulerMode::Blocking,
              .workers = 2});
  rt.root([] {
    // (a) A running task that polls cancel_requested() can finish cleanly.
    // The scope is closed before (b): a still-open cancelled scope rejects
    // any new spawn, the owner's included.
    {
      std::atomic<bool> started{false};
      CancellationScope scope;
      auto polite = async([&started]() -> int {
        started.store(true, std::memory_order_release);
        while (!cancel_requested()) std::this_thread::yield();
        return 42;  // observed the flag, wrapped up normally
      });
      while (!started.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      scope.cancel();
      EXPECT_EQ(polite.get(), 42);
    }

    // (b) check_cancelled() turns the flag into a CancelledError.
    {
      std::atomic<bool> started2{false};
      CancellationScope scope2;
      auto checked = async([&started2]() -> int {
        started2.store(true, std::memory_order_release);
        for (;;) {
          check_cancelled();
          std::this_thread::yield();
        }
      });
      while (!started2.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      scope2.cancel();
      EXPECT_THROW((void)checked.get(), CancelledError);
    }
  });
}

TEST(Cancellation, FinishScopeCancelSiblingsOnFault) {
  Runtime rt({.policy = core::PolicyChoice::TJ_SP,
              .scheduler = SchedulerMode::Cooperative,
              .workers = 1});
  rt.root([] {
    WorkerPin pin;
    pin.pin();
    FinishScope fs{FinishScope::CancelSiblingsOnFault{}};
    fs.spawn([] { throw std::runtime_error("finish fault"); });
    std::atomic<int> ran{0};
    for (int i = 0; i < 6; ++i) {
      fs.spawn([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // await() drains everything (cancelled stragglers included) and then
    // rethrows the ORIGINATING fault, not a CancelledError.
    bool threw_origin = false;
    try {
      fs.await();
    } catch (const CancelledError&) {
      ADD_FAILURE() << "await surfaced the cancellation, not the origin";
    } catch (const std::runtime_error&) {
      threw_origin = true;
    }
    EXPECT_TRUE(threw_origin);
    ASSERT_NE(fs.cancellation(), nullptr);
    EXPECT_TRUE(fs.cancellation()->cancelled());
    EXPECT_EQ(fs.cancellation()->tasks_cancelled(), 6u);
    EXPECT_EQ(ran.load(), 0);  // none of the cancelled siblings ran
    pin.drain();
  });
}

TEST(Cancellation, HelpersAreNoOpsOutsideTasks) {
  EXPECT_FALSE(cancel_requested());
  EXPECT_NO_THROW(check_cancelled());
}

}  // namespace
}  // namespace tj::runtime
