// Scheduler behaviour: the cooperative (help-first) and blocking
// (compensation) join disciplines of paper footnote 4, the work-stealing
// protocol (bounded residency, wake-ups, worker death, compensation), plus
// stress.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/api.hpp"

namespace tj::runtime {
namespace {

TEST(SchedulerModes, Names) {
  EXPECT_EQ(to_string(SchedulerMode::Blocking), "blocking");
  EXPECT_EQ(to_string(SchedulerMode::Cooperative), "cooperative");
}

TEST(SchedulerModes, ConfigDefaults) {
  const Config cfg;
  EXPECT_GT(cfg.effective_workers(), 0u);
  Config one;
  one.workers = 3;
  EXPECT_EQ(one.effective_workers(), 3u);
}

TEST(Cooperative, JoinerInlinesQueuedTarget) {
  Config cfg{.policy = core::PolicyChoice::TJ_SP,
             .scheduler = SchedulerMode::Cooperative,
             .workers = 1};
  Runtime rt(cfg);
  rt.root([] {
    // Pin the single worker on a spin-waiting blocker (spawned first from
    // the root, a non-worker thread, so the FIFO injection queue hands it to
    // the worker first and the worker can run nothing else meanwhile):
    // every later task stays queued and the root's joins MUST claim them
    // inline. Without the blocker the worker could drain all 64 trivial
    // tasks before the first join, making the inline count flaky.
    std::atomic<bool> release{false};
    auto blocker = async([&release] {
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
    std::vector<Future<int>> fs;
    for (int i = 0; i < 64; ++i) fs.push_back(async([i] { return i; }));
    int acc = 0;
    for (auto& f : fs) acc += f.get();
    EXPECT_EQ(acc, 64 * 63 / 2);
    release.store(true, std::memory_order_release);
    blocker.join();
  });
  // All 64 queued tasks were inlined; the blocker itself may add one more
  // if the root's final join claims it before the worker does.
  EXPECT_GE(rt.scheduler().tasks_inlined(), 64u);
}

TEST(Cooperative, InlineClaimPropagatesExceptionAtGet) {
  // Regression: a task body's exception must be captured in the *target*
  // task and rethrown at the joiner's get(), even when the joiner claims
  // and runs the target inline — it must not unwind the joiner's frame from
  // inside the inline run (which would also leave the task un-Done,
  // stranding any other joiner).
  Config cfg{.policy = core::PolicyChoice::TJ_SP,
             .scheduler = SchedulerMode::Cooperative,
             .workers = 1};
  Runtime rt(cfg);
  rt.root([] {
    std::atomic<bool> release{false};
    auto blocker = async([&release] {
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
    auto failing = async([]() -> int {
      throw std::runtime_error("inline boom");
    });
    EXPECT_THROW(failing.get(), std::runtime_error);
    // The joiner survived the inline run; the runtime keeps working.
    auto ok = async([] { return 7; });
    EXPECT_EQ(ok.get(), 7);
    release.store(true, std::memory_order_release);
    blocker.join();
  });
  EXPECT_GE(rt.scheduler().tasks_inlined(), 2u);
}

TEST(Cooperative, DeepInlineChainTerminates) {
  // Each task joins its own child: the join target is always claimable, so
  // a single worker must finish via pure inlining.
  Config cfg{.policy = core::PolicyChoice::TJ_SP,
             .scheduler = SchedulerMode::Cooperative,
             .workers = 1};
  Runtime rt(cfg);
  std::function<int(int)> nest = [&nest](int depth) -> int {
    if (depth == 0) return 0;
    auto f = async([&nest, depth] { return nest(depth - 1) + 1; });
    return f.get();
  };
  EXPECT_EQ(rt.root([&] { return nest(128); }), 128);
}

TEST(Blocking, CompensationKeepsThePoolBusy) {
  // Workers block in joins; compensation threads must be spawned so queued
  // tasks still execute. With 2 workers and a 3-deep blocking chain, the
  // run can only finish if the pool grows.
  Config cfg{.policy = core::PolicyChoice::TJ_SP,
             .scheduler = SchedulerMode::Blocking,
             .workers = 2,
             .max_threads = 64};
  Runtime rt(cfg);
  const int v = rt.root([] {
    auto a = async([] {
      auto b = async([] {
        auto c = async([] {
          auto d = async([] { return 1; });
          return d.get() + 1;
        });
        return c.get() + 1;
      });
      return b.get() + 1;
    });
    return a.get() + 1;
  });
  EXPECT_EQ(v, 5);
  EXPECT_EQ(rt.scheduler().tasks_inlined(), 0u);  // blocking mode never helps
  EXPECT_GE(rt.scheduler().thread_count(), 2u);
}

TEST(Blocking, WideFanoutWithSiblingJoins) {
  Config cfg{.policy = core::PolicyChoice::TJ_SP,
             .scheduler = SchedulerMode::Blocking,
             .workers = 4,
             .max_threads = 128};
  Runtime rt(cfg);
  const long v = rt.root([] {
    std::vector<Future<long>> layer1;
    for (int i = 0; i < 16; ++i) layer1.push_back(async([] { return 1L; }));
    std::vector<Future<long>> layer2;
    for (int i = 0; i < 16; ++i) {
      layer2.push_back(async([&layer1, i] {
        // Each layer-2 task joins three older siblings from layer 1.
        return layer1[static_cast<std::size_t>(i)].get() +
               layer1[static_cast<std::size_t>((i + 5) % 16)].get() +
               layer1[static_cast<std::size_t>((i + 11) % 16)].get();
      }));
    }
    long acc = 0;
    for (auto& f : layer2) acc += f.get();
    return acc;
  });
  EXPECT_EQ(v, 48);
}

class BothModes : public ::testing::TestWithParam<SchedulerMode> {};

TEST_P(BothModes, StressManySmallTasks) {
  Config cfg{.policy = core::PolicyChoice::TJ_SP,
             .scheduler = GetParam(),
             .workers = 4,
             .max_threads = 256};
  Runtime rt(cfg);
  std::atomic<long> side{0};
  const long v = rt.root([&side] {
    std::vector<Future<long>> fs;
    for (long i = 0; i < 5000; ++i) {
      fs.push_back(async([i, &side] {
        side.fetch_add(1, std::memory_order_relaxed);
        return i % 17;
      }));
    }
    long acc = 0;
    for (auto& f : fs) acc += f.get();
    return acc;
  });
  EXPECT_EQ(side.load(), 5000);
  long expected = 0;
  for (long i = 0; i < 5000; ++i) expected += i % 17;
  EXPECT_EQ(v, expected);
}

TEST_P(BothModes, RecursiveDivideAndConquer) {
  Config cfg{.policy = core::PolicyChoice::TJ_SP,
             .scheduler = GetParam(),
             .workers = 4,
             .max_threads = 256};
  Runtime rt(cfg);
  std::function<long(long, long)> sum = [&sum](long lo, long hi) -> long {
    if (hi - lo <= 64) {
      long acc = 0;
      for (long i = lo; i < hi; ++i) acc += i;
      return acc;
    }
    const long mid = lo + (hi - lo) / 2;
    auto l = async([&sum, lo, mid] { return sum(lo, mid); });
    auto r = async([&sum, mid, hi] { return sum(mid, hi); });
    return l.get() + r.get();
  };
  EXPECT_EQ(rt.root([&] { return sum(0, 10000); }), 10000L * 9999 / 2);
}

TEST_P(BothModes, ExecutedPlusInlinedCoversAllTasks) {
  Config cfg{.policy = core::PolicyChoice::None,
             .scheduler = GetParam(),
             .workers = 2};
  Runtime rt(cfg);
  rt.root([] {
    std::vector<Future<int>> fs;
    for (int i = 0; i < 100; ++i) fs.push_back(async([] { return 0; }));
    for (auto& f : fs) f.join();
  });
  EXPECT_EQ(rt.scheduler().tasks_executed(), 100u);
}

INSTANTIATE_TEST_SUITE_P(Modes, BothModes,
                         ::testing::Values(SchedulerMode::Cooperative,
                                           SchedulerMode::Blocking));

// --- work-stealing protocol -------------------------------------------------

// Live instances of Counted, and the most ever live at once.
std::atomic<long> g_counted_live{0};
std::atomic<long> g_counted_peak{0};

/// A task result that counts its live instances. Task::result_ is destroyed
/// only with the task record, so the count bounds the records still held.
struct Counted {
  Counted() { up(); }
  Counted(const Counted&) { up(); }
  Counted(Counted&&) noexcept { up(); }
  Counted& operator=(const Counted&) = default;
  Counted& operator=(Counted&&) = default;
  ~Counted() { g_counted_live.fetch_sub(1); }

  static void up() {
    const long n = g_counted_live.fetch_add(1) + 1;
    long peak = g_counted_peak.load();
    while (n > peak && !g_counted_peak.compare_exchange_weak(peak, n)) {
    }
  }
};

TEST(SchedulerResidency, InlinedChildrenAreReleasedWithinOneOp) {
  // Both workers run a long-lived task that forks and inline-joins 8
  // children per iteration and drops their futures, so the run queue holds
  // the only reference to each finished child. No worker ever goes back to
  // the queue, so the records must be dropped by the spawner's own next
  // push: the peak live count may not grow with the iteration count.
  g_counted_live = 0;
  g_counted_peak = 0;
  Config cfg{.policy = core::PolicyChoice::TJ_SP,
             .scheduler = SchedulerMode::Cooperative,
             .workers = 2};
  {
    Runtime rt(cfg);
    rt.root([] {
      std::atomic<int> started{0};
      auto pin = [&started] {
        started.fetch_add(1);
        while (started.load() < 2) std::this_thread::yield();
        for (int i = 0; i < 20'000; ++i) {
          std::array<Future<Counted>, 8> fs;
          for (auto& f : fs) f = async([] { return Counted{}; });
          for (auto& f : fs) f.join();
        }
      };
      auto a = async(pin);
      auto b = async(pin);
      // Join only once both run on workers: joining a still-queued pin
      // would run it inline on this (non-worker) thread.
      while (started.load() < 2) std::this_thread::yield();
      a.join();
      b.join();
    });
    // Each worker may still hold its pin's last op: it drops those entries
    // at its next scan, which can come after the root returns.
    EXPECT_LE(g_counted_live.load(), 16);
  }
  EXPECT_EQ(g_counted_live.load(), 0);
  EXPECT_LT(g_counted_peak.load(), 64);
}

class SchedulerProtocol : public ::testing::TestWithParam<SchedulerMode> {};

TEST_P(SchedulerProtocol, LocalPushWakesASleepingWorker) {
  // A task on one worker pushes a child onto its own deque and spins, never
  // joining it (a join could run it inline): only the other, sleeping
  // worker can run it, so the push must wake it.
  Config cfg{.policy = core::PolicyChoice::TJ_SP,
             .scheduler = GetParam(),
             .workers = 2};
  Runtime rt(cfg);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int completed = 0;
  rt.root([&] {
    std::atomic<bool> started{false};
    auto spinner = async([&] {
      started.store(true);
      for (int i = 0; i < 10'000; ++i) {
        auto ran = std::make_shared<std::atomic<bool>>(false);
        auto child = async([ran] { ran->store(true); });
        while (!ran->load() && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        if (!ran->load()) break;  // the watchdog fired; the join rescues it
        child.join();
        ++completed;
      }
    });
    while (!started.load()) std::this_thread::yield();
    spinner.join();
  });
  EXPECT_EQ(completed, 10'000) << "a push left the other worker asleep";
}

TEST_P(SchedulerProtocol, DeadWorkersDequeGoesToItsReplacement) {
  // One worker; every task boundary kills it (up to the cap). The parent
  // returns with 16 unjoined children on the worker's deque, so the worker
  // dies with a non-empty deque and its replacement must run them.
  FaultPlan plan;
  plan.seed = 11;
  plan.worker_death_period = 1;
  plan.max_worker_deaths = 4;
  Config cfg{.policy = core::PolicyChoice::TJ_SP,
             .scheduler = GetParam(),
             .workers = 1,
             .fault_plan = plan};
  Runtime rt(cfg);
  std::atomic<int> ran{0};
  rt.root([&ran] {
    // Not joined: a root join on a still-queued parent would run it inline
    // on this thread, whose spawns go to the injection queue instead.
    (void)async([&ran] {
      for (int i = 0; i < 16; ++i) {
        (void)async([&ran] { ran.fetch_add(1); });
      }
      ran.fetch_add(1);
    });
  });
  EXPECT_EQ(ran.load(), 17);
  EXPECT_EQ(rt.scheduler().live_tasks(), 0u);
  EXPECT_EQ(rt.fault_stats().worker_deaths, 4u);
  EXPECT_EQ(rt.scheduler().thread_count(), 5u);  // 1 + 4 replacements
}

INSTANTIATE_TEST_SUITE_P(Modes, SchedulerProtocol,
                         ::testing::Values(SchedulerMode::Cooperative,
                                           SchedulerMode::Blocking));

TEST(SchedulerHandOver, FreedWorkerTakesTheNextSubmissionFirst) {
  // A relay: a long-lived task P holds one worker; the root, which polls
  // instead of joining, submits B1, then B2 once B1 has ended. Between the
  // two, P pushes a child c and spins without joining it. The worker B1 ran
  // on is in its hand-over wait: it must take B2 from the injection queue
  // and leave c to P, which then runs it inline.
  using Clock = std::chrono::steady_clock;
  struct Relay {
    std::thread::id p_thread, c_thread, b2_thread;
    bool c_ran_before_b2 = true;
    Clock::duration b1_to_b2{};
  };
  const auto run_relay = [] {
    Config cfg{.policy = core::PolicyChoice::TJ_SP,
               .scheduler = SchedulerMode::Cooperative,
               .workers = 2};
    Runtime rt(cfg);
    Relay r;
    rt.root([&r] {
      std::atomic<bool> p_started{false}, b1_done{false}, c_pushed{false},
          b2_done{false};
      Clock::time_point b1_end;
      auto p = async([&] {
        r.p_thread = std::this_thread::get_id();
        p_started.store(true);
        while (!b1_done.load()) std::this_thread::yield();
        auto c = async([&r] { r.c_thread = std::this_thread::get_id(); });
        c_pushed.store(true);
        while (!b2_done.load()) std::this_thread::yield();
        r.c_ran_before_b2 = c.ready();
        c.join();
      });
      while (!p_started.load()) std::this_thread::yield();
      auto b1 = async([&] {
        b1_end = Clock::now();
        b1_done.store(true);
      });
      while (!c_pushed.load()) std::this_thread::yield();
      r.b1_to_b2 = Clock::now() - b1_end;
      auto b2 = async([&] {
        r.b2_thread = std::this_thread::get_id();
        b2_done.store(true);
      });
      // Poll: a join on a still-queued task would run it on this thread.
      while (!b2.ready() || !p.ready()) std::this_thread::yield();
      b1.join();
      b2.join();
      p.join();
    });
    return r;
  };
  // The hand-over lasts 10 ms. A relay whose root was descheduled for
  // longer than that between B1's end and B2's submission (a loaded
  // machine, a sanitizer build) tests nothing, so run until one was prompt.
  for (int attempt = 0; attempt < 20; ++attempt) {
    const Relay r = run_relay();
    if (r.b1_to_b2 >= std::chrono::milliseconds(5)) continue;
    EXPECT_FALSE(r.c_ran_before_b2) << "the freed worker stole P's child";
    EXPECT_EQ(r.c_thread, r.p_thread);
    EXPECT_NE(r.b2_thread, r.p_thread);
    return;
  }
  FAIL() << "no relay submitted B2 within 5 ms of B1's end";
}

TEST(Blocking, CompensationWorkerDrainsABlockedWorkersDeque) {
  // The only worker forks 32 children onto its own deque and blocks joining
  // the first. Blocking mode never runs a target inline, so only the
  // compensation worker can run them, by stealing from the blocked deque.
  Config cfg{.policy = core::PolicyChoice::TJ_SP,
             .scheduler = SchedulerMode::Blocking,
             .workers = 1,
             .max_threads = 4};
  Runtime rt(cfg);
  const long v = rt.root([] {
    auto parent = async([] {
      std::vector<Future<long>> fs;
      for (long i = 1; i <= 32; ++i) fs.push_back(async([i] { return i * i; }));
      long acc = 0;
      for (auto& f : fs) acc += f.get();
      return acc;
    });
    return parent.get();
  });
  EXPECT_EQ(v, 32L * 33 * 65 / 6);
  EXPECT_EQ(rt.scheduler().tasks_inlined(), 0u);
  EXPECT_GE(rt.scheduler().thread_count(), 2u);
}

}  // namespace
}  // namespace tj::runtime
