// Graceful degradation under pressure: the degradation ladder's conservative
// routing, the resource governor's budget/hysteresis machinery and its
// KJ-VC-GC-before-downgrade escalation, deadline-aware joins (join_for /
// get_for + Backoff), spawn backpressure, and the watchdog's attribution of
// stalls to the ACTIVE (possibly downgraded) policy.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/ladder.hpp"
#include "kj/kj_vc.hpp"
#include "runtime/api.hpp"
#include "runtime/backoff.hpp"
#include "runtime/governor.hpp"
#include "runtime/watchdog.hpp"

namespace tj::runtime {
namespace {

using core::PolicyChoice;

// ---------------------------------------------------------------- ladder --

TEST(Ladder, ShapePerConfiguredPolicy) {
  auto gt = core::make_ladder_verifier(PolicyChoice::TJ_GT);
  ASSERT_NE(gt, nullptr);
  ASSERT_EQ(gt->level_count(), 3u);
  EXPECT_EQ(gt->level_kind(0), PolicyChoice::TJ_GT);
  EXPECT_EQ(gt->level_kind(1), PolicyChoice::TJ_SP);
  EXPECT_EQ(gt->level_kind(2), PolicyChoice::CycleOnly);

  auto vc = core::make_ladder_verifier(PolicyChoice::KJ_VC);
  ASSERT_NE(vc, nullptr);
  ASSERT_EQ(vc->level_count(), 2u);
  EXPECT_EQ(vc->level_kind(0), PolicyChoice::KJ_VC);
  EXPECT_EQ(vc->level_kind(1), PolicyChoice::CycleOnly);

  // Nothing to degrade for the non-policies.
  EXPECT_EQ(core::make_ladder_verifier(PolicyChoice::None), nullptr);
  EXPECT_EQ(core::make_ladder_verifier(PolicyChoice::CycleOnly), nullptr);
}

TEST(Ladder, DowngradeIsMonotoneAndStopsAtTheFloor) {
  auto lad = core::make_ladder_verifier(PolicyChoice::TJ_GT);
  EXPECT_EQ(lad->level(), 0u);
  EXPECT_EQ(lad->kind(), PolicyChoice::TJ_GT);
  EXPECT_TRUE(lad->downgrade());
  EXPECT_EQ(lad->kind(), PolicyChoice::TJ_SP);
  EXPECT_TRUE(lad->downgrade());
  EXPECT_EQ(lad->kind(), PolicyChoice::CycleOnly);
  EXPECT_EQ(lad->level(), 2u);
  // The floor is absorbing.
  EXPECT_FALSE(lad->downgrade());
  EXPECT_EQ(lad->level(), 2u);
}

TEST(Ladder, DelegatesOnlySameLevelSameForestPairs) {
  auto lad = core::make_ladder_verifier(PolicyChoice::TJ_GT);
  core::PolicyNode* root = lad->add_child(nullptr);
  core::PolicyNode* child = lad->add_child(root);
  // Same level, same forest: the level verifier's exact answer (TJ permits a
  // parent joining its own child).
  EXPECT_TRUE(lad->permits_join(root, child));

  ASSERT_TRUE(lad->downgrade());
  core::PolicyNode* late = lad->add_child(root);  // tagged level 1
  // Cross-level pairs are conservatively rejected (→ WFG probation), even
  // though a plain TJ verifier would approve a parent→child join.
  EXPECT_FALSE(lad->permits_join(root, late));
  // Old same-level pairs keep their exact verdicts after the downgrade.
  EXPECT_TRUE(lad->permits_join(root, child));

  // A second root starts a new forest: cross-forest same-level pairs are
  // rejected too (TJ-GT's less() is only sound within one spawn tree).
  core::PolicyNode* root2 = lad->add_child(nullptr);
  core::PolicyNode* kid2 = lad->add_child(root2);
  EXPECT_FALSE(lad->permits_join(root, kid2));
  EXPECT_FALSE(lad->permits_join(root2, child));

  ASSERT_TRUE(lad->downgrade());  // to the WFG-only floor
  core::PolicyNode* floor_kid = lad->add_child(root);
  // Floor-tagged nodes are never approved: every such join is cycle-checked.
  EXPECT_FALSE(lad->permits_join(root, floor_kid));

  for (core::PolicyNode* n : {root, child, late, root2, kid2, floor_kid}) {
    lad->release(n);
  }
}

// -------------------------------------------------------------- governor --

TEST(Governor, DisabledByDefaultAndPolicyIsNotALadder) {
  Runtime rt({.policy = PolicyChoice::TJ_GT});
  EXPECT_EQ(rt.governor(), nullptr);
  EXPECT_EQ(rt.active_policy(), PolicyChoice::TJ_GT);
  EXPECT_EQ(dynamic_cast<core::LadderVerifier*>(rt.verifier()), nullptr);
}

TEST(Governor, ByteBudgetTripsDowngradeLadderAndRunStaysCorrect) {
  Config cfg;
  cfg.policy = PolicyChoice::TJ_GT;
  cfg.workers = 2;
  cfg.obs.enabled = true;
  cfg.governor.enabled = true;
  cfg.governor.poll_ms = 1000000;  // park the thread; the test drives polls
  cfg.governor.max_verifier_bytes = 1;  // any live node is over budget
  cfg.governor.trip_polls = 2;
  cfg.governor.cooldown_polls = 0;
  Runtime rt(cfg);
  ASSERT_NE(rt.governor(), nullptr);
  EXPECT_EQ(rt.active_policy(), PolicyChoice::TJ_GT);

  const int sum = rt.root([&] {
    std::vector<Future<int>> fs;
    for (int i = 0; i < 8; ++i) {
      fs.push_back(async([i] { return i; }));
    }
    ResourceGovernor& gov = *rt.governor();
    gov.poll_now();  // hysteresis: one over-budget sample must not act
    EXPECT_EQ(rt.active_policy(), PolicyChoice::TJ_GT);
    gov.poll_now();
    EXPECT_EQ(rt.active_policy(), PolicyChoice::TJ_SP);
    gov.poll_now();
    gov.poll_now();
    EXPECT_EQ(rt.active_policy(), PolicyChoice::CycleOnly);
    EXPECT_TRUE(gov.under_pressure());
    // Joins ruled after the downgrade all take the probation path — and all
    // complete (the WFG clears every TJ-valid join).
    int s = 0;
    for (auto& f : fs) s += f.get();
    return s;
  });
  EXPECT_EQ(sum, 28);

  const auto ts = rt.governor()->transitions();
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts[0].from, PolicyChoice::TJ_GT);
  EXPECT_EQ(ts[0].to, PolicyChoice::TJ_SP);
  EXPECT_NE(ts[0].reason.find("bytes"), std::string::npos);
  EXPECT_EQ(ts[1].to, PolicyChoice::CycleOnly);
  EXPECT_EQ(rt.governor()->level(), 2u);
  EXPECT_FALSE(rt.governor()->history_string().empty());

  // At the floor further trips are a no-op, not new transitions.
  rt.governor()->poll_now();
  rt.governor()->poll_now();
  EXPECT_EQ(rt.governor()->transitions().size(), 2u);

  ASSERT_NE(rt.recorder(), nullptr);
  EXPECT_EQ(rt.recorder()->metrics().policy_downgrades.load(), 2u);
}

TEST(Governor, KjVcGetsEpochGcBeforeAnyDowngrade) {
  Config cfg;
  cfg.policy = PolicyChoice::KJ_VC;
  cfg.workers = 2;
  cfg.governor.enabled = true;
  cfg.governor.poll_ms = 1000000;
  cfg.governor.max_verifier_bytes = 1;
  cfg.governor.trip_polls = 1;
  cfg.governor.cooldown_polls = 0;
  Runtime rt(cfg);

  auto* ladder = dynamic_cast<core::LadderVerifier*>(rt.verifier());
  ASSERT_NE(ladder, nullptr);
  auto* vc = dynamic_cast<kj::KjVcVerifier*>(ladder->level_verifier(0));
  ASSERT_NE(vc, nullptr);
  EXPECT_FALSE(vc->gc_enabled());

  rt.root([&] {
    auto f = async([] { return 1; });
    // Escalation step 1: relieve memory pressure by GC, not by downgrade.
    rt.governor()->poll_now();
    EXPECT_TRUE(vc->gc_enabled());
    EXPECT_EQ(rt.active_policy(), PolicyChoice::KJ_VC);
    // Still over budget with GC already on: now the ladder steps down.
    rt.governor()->poll_now();
    EXPECT_EQ(rt.active_policy(), PolicyChoice::CycleOnly);
    EXPECT_EQ(f.get(), 1);
  });

  const auto ts = rt.governor()->transitions();
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts[0].from_level, ts[0].to_level);  // GC enable, not a downgrade
  EXPECT_NE(ts[0].reason.find("kj-gc"), std::string::npos);
  EXPECT_EQ(ts[1].to, PolicyChoice::CycleOnly);
}

TEST(Governor, GenerousBudgetsNeverDegrade) {
  Config cfg;
  cfg.policy = PolicyChoice::TJ_GT;
  cfg.workers = 2;
  cfg.governor.enabled = true;
  cfg.governor.poll_ms = 1000000;
  cfg.governor.max_verifier_bytes = std::size_t{1} << 30;
  cfg.governor.max_verifier_nodes = std::size_t{1} << 20;
  cfg.governor.trip_polls = 1;
  Runtime rt(cfg);

  const int v = rt.root([&] {
    auto f = async([] { return 5; });
    for (int i = 0; i < 8; ++i) rt.governor()->poll_now();
    return f.get();
  });
  EXPECT_EQ(v, 5);
  EXPECT_EQ(rt.active_policy(), PolicyChoice::TJ_GT);
  EXPECT_FALSE(rt.governor()->under_pressure());
  EXPECT_TRUE(rt.governor()->transitions().empty());
  EXPECT_GE(rt.governor()->polls(), 8u);
}

TEST(Governor, PollsInTheBackgroundWithoutManualCalls) {
  Config cfg;
  cfg.workers = 2;
  cfg.governor.enabled = true;
  cfg.governor.poll_ms = 1;
  Runtime rt(cfg);
  const std::uint64_t first = rt.governor()->polls();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt.governor()->polls() < first + 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(rt.governor()->polls(), first + 3);
}

// -------------------------------------------------------- deadline joins --

TEST(DeadlineJoin, TimeoutWithdrawsTheJoinAndRetrySucceeds) {
  Config cfg;
  cfg.policy = PolicyChoice::TJ_SP;
  cfg.scheduler = SchedulerMode::Blocking;  // no inline help: timeouts real
  cfg.workers = 2;
  cfg.obs.enabled = true;
  cfg.record_trace = true;
  Runtime rt(cfg);

  std::atomic<bool> release{false};
  std::uint64_t target_uid = 0;
  rt.root([&] {
    auto f = async([&] {
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return 7;
    });
    target_uid = f.task().uid();
    EXPECT_EQ(f.join_for(std::chrono::milliseconds(5)), JoinOutcome::Timeout);
    EXPECT_FALSE(f.ready());  // the target keeps running, unobserved
    release.store(true, std::memory_order_release);
    auto v = f.get_for(std::chrono::seconds(30));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 7);
  });

  // Both attempts were gate-ruled; only the expired one timed out.
  EXPECT_GE(rt.gate_stats().joins_checked, 2u);
  ASSERT_NE(rt.recorder(), nullptr);
  EXPECT_EQ(rt.recorder()->metrics().join_timeouts.load(), 1u);
  // "This join never happened": the withdrawn attempt left no trace join —
  // the completed retry recorded exactly one.
  unsigned joins_on_target = 0;
  const trace::Trace recorded = rt.recorded_trace();
  for (const trace::Action& a : recorded.actions()) {
    if (a.kind == trace::ActionKind::Join && a.target == target_uid) {
      ++joins_on_target;
    }
  }
  EXPECT_EQ(joins_on_target, 1u);
}

TEST(DeadlineJoin, ReadyTargetReturnsImmediately) {
  Runtime rt({.policy = PolicyChoice::TJ_SP});
  rt.root([] {
    auto f = async([] { return 3; });
    auto g = async([] {});
    // A generous deadline on fast tasks: Ready with the value / true.
    auto v = f.get_for(std::chrono::seconds(30));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 3);
    EXPECT_TRUE(g.get_for(std::chrono::seconds(30)));
    EXPECT_EQ(f.join_for(std::chrono::seconds(1)), JoinOutcome::Ready);
  });
}

}  // namespace

// Readable ctest names (gtest otherwise prints the mode as raw bytes).
void PrintTo(SchedulerMode m, std::ostream* os) { *os << to_string(m); }

namespace {

// A timed join on a target that is already Running, in both scheduler
// modes: a cooperative joiner cannot inline-claim it, so both modes really
// wait and really time out. The joiner is a worker task, so in Blocking mode
// every wait also runs the compensation bracket.
class DeadlineJoinModes : public ::testing::TestWithParam<SchedulerMode> {};

TEST_P(DeadlineJoinModes, TimeoutOnRunningTargetWithdrawsTheWait) {
  constexpr unsigned kWorkers = 2;
  constexpr int kTimeouts = 8;
  Config cfg;
  cfg.policy = PolicyChoice::TJ_SP;
  cfg.scheduler = GetParam();
  cfg.workers = kWorkers;
  cfg.obs.enabled = true;
  Runtime rt(cfg);
  const wfg::WaitsForGraph& graph = rt.gate().graph();

  auto started = std::make_shared<std::atomic<bool>>(false);
  auto release = std::make_shared<std::atomic<bool>>(false);
  rt.root([&] {
    auto target = async([started, release] {
      started->store(true, std::memory_order_release);
      while (!release->load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return 7;
    });
    while (!started->load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    auto joiner = async([&] {
      const std::uint64_t self = current_task().uid();
      for (int i = 0; i < kTimeouts; ++i) {
        EXPECT_EQ(target.join_for(std::chrono::milliseconds(2)),
                  JoinOutcome::Timeout);
        EXPECT_FALSE(graph.is_waiting(self));
        EXPECT_EQ(graph.edge_count(), 0u);  // the target still runs
        EXPECT_FALSE(target.ready());
      }
    });
    // Not a join: the root must add no wait edge of its own while the
    // joiner checks the graph.
    while (!joiner.ready()) std::this_thread::yield();
    joiner.join();
    // One compensation worker at most: each timeout exit rebalanced the
    // blocked-worker count its entry raised.
    EXPECT_LE(rt.scheduler().thread_count(), kWorkers + 1);
    release->store(true, std::memory_order_release);
    EXPECT_EQ(target.get(), 7);
  });
  EXPECT_EQ(rt.recorder()->metrics().join_timeouts.load(),
            static_cast<std::uint64_t>(kTimeouts));
}

INSTANTIATE_TEST_SUITE_P(
    BothSchedulers, DeadlineJoinModes,
    ::testing::Values(SchedulerMode::Blocking, SchedulerMode::Cooperative),
    [](const ::testing::TestParamInfo<SchedulerMode>& info) {
      return std::string(to_string(info.param));
    });

TEST(DeadlineJoin, BackoffIsDeterministicJitteredDoubling) {
  Backoff a(std::chrono::milliseconds(1), std::chrono::milliseconds(16), 42);
  Backoff b(std::chrono::milliseconds(1), std::chrono::milliseconds(16), 42);
  std::int64_t base = std::chrono::nanoseconds(
                          std::chrono::milliseconds(1)).count();
  const std::int64_t max = std::chrono::nanoseconds(
                               std::chrono::milliseconds(16)).count();
  for (int i = 0; i < 10; ++i) {
    const auto d1 = a.next();
    EXPECT_EQ(d1, b.next());  // same seed ⇒ same delays (replayable chaos)
    // ±25% jitter around the current (doubling, saturating) step.
    EXPECT_GE(d1.count(), base - base / 4);
    EXPECT_LE(d1.count(), base + base / 4);
    base = std::min(base * 2, max);
  }
  a.reset();
  const auto first_again = a.next();
  const std::int64_t ms1 =
      std::chrono::nanoseconds(std::chrono::milliseconds(1)).count();
  EXPECT_GE(first_again.count(), ms1 - ms1 / 4);
  EXPECT_LE(first_again.count(), ms1 + ms1 / 4);
}

// ----------------------------------------------------- spawn backpressure --

TEST(Backpressure, SpawnPastWatermarkRunsInlineInTheCaller) {
  Config cfg;
  cfg.policy = PolicyChoice::TJ_SP;
  cfg.scheduler = SchedulerMode::Blocking;
  cfg.workers = 2;
  cfg.obs.enabled = true;
  cfg.governor.spawn_inline_watermark = 1;  // active without governor.enabled
  Runtime rt(cfg);
  ASSERT_EQ(rt.governor(), nullptr);

  std::atomic<bool> release{false};
  rt.root([&] {
    auto sleeper = async([&] {
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    // live_tasks >= 1 now: this spawn must run inline, synchronously, in the
    // root task — by return the future is already resolved.
    auto f = async([] { return 11; });
    EXPECT_TRUE(f.ready());
    EXPECT_EQ(f.get(), 11);
    // Inlined tasks can themselves spawn and join (nested inlining).
    auto g = async([] {
      auto inner = async([] { return 2; });
      return inner.get() + 1;
    });
    EXPECT_TRUE(g.ready());
    EXPECT_EQ(g.get(), 3);
    release.store(true, std::memory_order_release);
    sleeper.join();
  });

  ASSERT_NE(rt.recorder(), nullptr);
  EXPECT_GE(rt.recorder()->metrics().spawn_inlines.load(), 3u);
}

// ------------------------------------------- watchdog under degradation --

TEST(WatchdogDegradation, StallReportNamesTheActivePolicyAndHistory) {
  std::mutex mu;
  std::vector<StallReport> reports;
  std::atomic<bool> release{false};

  Config cfg;
  cfg.policy = PolicyChoice::TJ_GT;
  cfg.scheduler = SchedulerMode::Blocking;
  cfg.workers = 2;
  cfg.governor.enabled = true;
  cfg.governor.poll_ms = 1000000;
  cfg.governor.max_verifier_bytes = 1;
  cfg.governor.trip_polls = 1;
  cfg.governor.cooldown_polls = 0;
  cfg.watchdog.enabled = true;
  cfg.watchdog.poll_ms = 5;
  cfg.watchdog.stall_ms = 25;
  cfg.watchdog.on_stall = [&](const StallReport& r) {
    {
      std::lock_guard<std::mutex> lock(mu);
      reports.push_back(r);
    }
    release.store(true, std::memory_order_release);
  };
  Runtime rt(cfg);

  std::thread safety([&release] {
    for (int i = 0; i < 2000 && !release.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    release.store(true, std::memory_order_release);
  });

  rt.root([&] {
    auto stuck = async([&release] {
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      return 9;
    });
    // Degrade all the way down BEFORE blocking, so the stall happens under
    // the floor policy.
    rt.governor()->poll_now();
    rt.governor()->poll_now();
    ASSERT_EQ(rt.active_policy(), PolicyChoice::CycleOnly);
    EXPECT_EQ(stuck.get(), 9);
  });
  safety.join();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_FALSE(reports.empty());
  const StallReport& r = reports.front();
  // Attribution: the ACTIVE (downgraded) policy, not the configured one.
  EXPECT_EQ(r.policy_name, std::string(core::to_string(
                               PolicyChoice::CycleOnly)));
  EXPECT_EQ(r.policy_id,
            static_cast<std::uint8_t>(PolicyChoice::CycleOnly));
  EXPECT_EQ(r.degradation_level, 2u);
  EXPECT_NE(r.degradation_history.find("bytes"), std::string::npos);
  ASSERT_FALSE(r.stalled.empty());
  EXPECT_TRUE(r.cycles.empty());  // external stall, not a deadlock
  // The human-readable form carries the degradation context too.
  EXPECT_NE(r.to_string().find("degraded"), std::string::npos);
}

}  // namespace
}  // namespace tj::runtime
