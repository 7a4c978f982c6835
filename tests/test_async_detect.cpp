// Optimistic async verification (PolicyChoice::Async): joins/awaits are
// approved with zero policy work, a background detector confirms cycles
// against the live WFG, and the recovery supervisor breaks them by faulting
// a victim with DeadlockAvoidedError — the same fault-and-retry contract
// every synchronous policy honours. These tests pin down:
//
//   1. recovery — a genuine cross-await deadlock is confirmed, one victim
//      faults, the victim's retry succeeds, and nothing hangs;
//   2. the async ledger — observed WfgCycle-witnessed faults reconcile
//      exactly: incidents == deadlocks_averted + cycles_recovered;
//   3. determinism — the victim rule (lowest tenant priority, then youngest)
//      picks the same task on every run of the same program;
//   4. provenance — a recovered cycle's witness validates Confirmed through
//      the offline formalism, never Spurious;
//   5. bounded-latency failover — exhausting the lag, drop, or respawn
//      budget downgrades the ladder to the synchronous floor, after which
//      deadlocks are averted *before* blocking again;
//   6. chaos — a 16-seed × both-scheduler sweep with detector faults armed
//      stays hang-free, loses no results, and reconciles exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <tuple>
#include <vector>

#include "core/guarded.hpp"
#include "obs/witness.hpp"
#include "runtime/api.hpp"
#include "wfg/waits_for_graph.hpp"

namespace tj::runtime {
namespace {

void expect_clean_graph(const Runtime& rt) {
  const wfg::WaitsForGraph& g = rt.gate().graph();
  EXPECT_EQ(g.edge_count(), 0u) << "leaked wait edges after recovery";
  EXPECT_EQ(g.probation_count(), 0u) << "leaked probation edges";
  EXPECT_EQ(g.owner_edge_count(), 0u) << "leaked promise owner edges";
}

/// Fast-detector knobs so tests spend milliseconds, not the production
/// 200 µs × 16-tick scan cadence.
core::DetectorConfig fast_detector() {
  core::DetectorConfig d;
  d.tick_us = 100;
  d.full_scan_ticks = 4;
  return d;
}

struct CrossOutcome {
  long sum = 0;        ///< both awaited values (10 + 20 when healthy)
  int recoveries = 0;  ///< DeadlockAvoidedError catches inside the pair
  int victim = -1;     ///< which logical task faulted (0 = first spawned)
};

/// The canonical optimistic deadlock: two tasks that each own a promise and
/// await the other's. Under Async both awaits are approved and both tasks
/// park — a real deadlock that only the detector can break. The victim
/// recovers by discharging its own obligation first (waking the peer), then
/// retrying the await.
CrossOutcome cross_await_round() {  // pre: called from inside a task context
  CrossOutcome out;
  std::atomic<int> recoveries{0};
  std::atomic<int> victim{-1};
  auto p1 = make_promise<long>();
  auto p2 = make_promise<long>();
  auto cross = [&recoveries, &victim](Promise<long> mine,
                                      Promise<long> other, long val,
                                      int who) -> long {
    bool mine_done = false;
    long got = -1;
    try {
      got = other.get();  // closes the cycle: certain deadlock
    } catch (const DeadlockAvoidedError&) {
      recoveries.fetch_add(1, std::memory_order_relaxed);
      victim.store(who, std::memory_order_relaxed);
      mine.fulfill(val);  // discharge own obligation: the peer wakes
      mine_done = true;
      got = other.get();  // retry: the peer now fulfills in turn
    }
    if (!mine_done) mine.fulfill(val);
    return got;
  };
  auto a = async_owning(p1, [&cross, p1, p2] { return cross(p1, p2, 10, 0); });
  auto b = async_owning(p2, [&cross, p2, p1] { return cross(p2, p1, 20, 1); });
  out.sum = a.get() + b.get();
  out.recoveries = recoveries.load(std::memory_order_relaxed);
  out.victim = victim.load(std::memory_order_relaxed);
  return out;
}

CrossOutcome run_cross_await(Runtime& rt) {
  CrossOutcome out;
  rt.root([&out] { out = cross_await_round(); });
  return out;
}

TEST(AsyncDetect, ApprovesWithZeroPolicyWorkAndForcesRecorderOn) {
  Config cfg;
  cfg.policy = core::PolicyChoice::Async;
  cfg.workers = 3;
  cfg.detector = fast_detector();
  Runtime rt(cfg);
  ASSERT_NE(rt.recorder(), nullptr)
      << "Async requires the flight recorder; normalize() must force it on";
  ASSERT_NE(rt.recovery(), nullptr);
  EXPECT_EQ(rt.active_policy(), core::PolicyChoice::Async);
  // The detector thread publishes `running` asynchronously after the
  // Runtime constructor returns; poll instead of asserting instantly.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!rt.recovery()->status().detector.running &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(rt.recovery()->status().detector.running);

  long sum = 0;
  rt.root([&sum] {
    std::vector<Future<long>> fs;
    for (int i = 0; i < 32; ++i) {
      fs.push_back(async([i]() -> long {
        auto inner = async([i] { return static_cast<long>(i); });
        return inner.get() + 1;
      }));
    }
    for (auto& f : fs) sum += f.get();
  });
  EXPECT_EQ(sum, 32L * 31 / 2 + 32);

  // Zero policy work: no rejections, no synchronous cycle faults, and on a
  // deadlock-free program no recoveries either.
  const core::GateStats s = rt.gate_stats();
  EXPECT_EQ(s.policy_rejections, 0u);
  EXPECT_EQ(s.false_positives, 0u);
  EXPECT_EQ(s.deadlocks_averted, 0u);
  EXPECT_EQ(s.cycles_recovered, 0u);
  expect_clean_graph(rt);
}

TEST(AsyncDetect, RecoveryOffOutsideAsyncMode) {
  Runtime rt({.policy = core::PolicyChoice::TJ_SP});
  EXPECT_EQ(rt.recovery(), nullptr);
}

TEST(AsyncDetect, CrossAwaitDeadlockRecoveredAndVictimRetries) {
  Config cfg;
  cfg.policy = core::PolicyChoice::Async;
  cfg.workers = 3;
  cfg.detector = fast_detector();
  Runtime rt(cfg);
  const CrossOutcome out = run_cross_await(rt);

  EXPECT_EQ(out.sum, 30);
  EXPECT_EQ(out.recoveries, 1) << "exactly one victim per cycle incarnation";

  const core::GateStats s = rt.gate_stats();
  EXPECT_EQ(s.cycles_recovered, 1u);
  EXPECT_EQ(s.deadlocks_averted, 0u) << "nothing was averted synchronously";
  // The async ledger, observed form: every incident surfaced exactly once.
  EXPECT_EQ(static_cast<std::uint64_t>(out.recoveries),
            s.deadlocks_averted + s.cycles_recovered);

  ASSERT_NE(rt.recovery(), nullptr);
  const RecoveryStatus rs = rt.recovery()->status();
  EXPECT_GE(rs.breaks_posted, 1u);
  EXPECT_EQ(rs.waits_registered, 0u) << "registry must drain";
  EXPECT_GE(rs.detector.cycles_confirmed, 1u);
  ASSERT_EQ(rs.recent.size(), 1u);
  EXPECT_TRUE(rs.recent[0].on_promise);
  EXPECT_GE(rs.recent[0].cycle_len, 2u);
  expect_clean_graph(rt);
}

TEST(AsyncDetect, RepeatedIncidentsReconcileExactly) {
  // Four sequential deadlock incarnations through one runtime: each must be
  // counted exactly once (the incarnation dedup both suppresses re-reports
  // of a live cycle and retires keys when the victim unwinds, so fresh
  // incarnations count again).
  Config cfg;
  cfg.policy = core::PolicyChoice::Async;
  cfg.workers = 3;
  cfg.detector = fast_detector();
  Runtime rt(cfg);
  int recoveries = 0;
  rt.root([&recoveries] {
    for (int round = 0; round < 4; ++round) {
      const CrossOutcome out = cross_await_round();
      EXPECT_EQ(out.sum, 30) << "round " << round;
      recoveries += out.recoveries;
    }
  });
  const core::GateStats s = rt.gate_stats();
  EXPECT_EQ(s.cycles_recovered, 4u);
  EXPECT_EQ(static_cast<std::uint64_t>(recoveries),
            s.deadlocks_averted + s.cycles_recovered);
  EXPECT_EQ(rt.recovery()->status().waits_registered, 0u);
  expect_clean_graph(rt);
}

TEST(AsyncDetect, VictimDeterministicAcrossRuns) {
  // The victim rule is a pure function of the registry: lowest recovery
  // priority first, ties to the youngest task. With equal priorities the
  // second-spawned (younger) member of the pair must die on every run.
  for (int rep = 0; rep < 3; ++rep) {
    Config cfg;
    cfg.policy = core::PolicyChoice::Async;
    cfg.workers = 2;
    cfg.chaos_seed = 0xabc;  // fixed schedule perturbation, same every rep
    cfg.detector = fast_detector();
    Runtime rt(cfg);
    const CrossOutcome out = run_cross_await(rt);
    EXPECT_EQ(out.sum, 30) << "rep " << rep;
    EXPECT_EQ(out.victim, 1) << "rep " << rep
                             << ": the youngest cycle member must be chosen";
  }
}

TEST(AsyncDetect, RecoveredWitnessValidatesConfirmedNeverSpurious) {
  Config cfg;
  cfg.policy = core::PolicyChoice::Async;
  cfg.workers = 3;
  cfg.record_trace = true;
  cfg.detector = fast_detector();
  Runtime rt(cfg);
  const CrossOutcome out = run_cross_await(rt);
  EXPECT_EQ(out.recoveries, 1);

  const std::vector<core::Witness> ws = rt.gate().witnesses();
  std::size_t recovered = 0;
  for (const core::Witness& w : ws) {
    if (w.kind != core::WitnessKind::WfgCycle) continue;
    ASSERT_EQ(w.policy, core::PolicyChoice::Async);
    ++recovered;
    const obs::WitnessValidation v =
        obs::validate_witness(w, rt.recorded_trace());
    EXPECT_EQ(v.verdict, obs::WitnessVerdict::Confirmed) << v.reason;
    EXPECT_NE(v.verdict, obs::WitnessVerdict::Spurious)
        << "a recovery must never be spurious: " << v.reason;
    EXPECT_GE(w.chain.size(), 2u);
    EXPECT_EQ(w.chain.front(), w.waiter) << "chain starts at the victim";
  }
  EXPECT_EQ(recovered, 1u);
}

// ---- bounded-latency failover -------------------------------------------

/// Feeds the recorder with join events until the detector fails over (or a
/// generous deadline passes). Returns true on failover. Pre: called from
/// inside a task context.
bool feed_until_failover_body(Runtime& rt) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    if (rt.recovery()->failed_over()) return true;
    async([] { return 0; }).join();  // a steady trickle of events
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return false;
}

bool feed_until_failover(Runtime& rt) {
  bool failed = false;
  rt.root([&rt, &failed] { failed = feed_until_failover_body(rt); });
  return failed;
}

TEST(AsyncFailover, DropBudgetExhaustionDowngradesToSynchronousFloor) {
  Config cfg;
  cfg.policy = core::PolicyChoice::Async;
  cfg.workers = 2;
  cfg.detector = fast_detector();
  cfg.detector.drop_budget_events = 1;  // first dropped batch trips it
  FaultPlan plan;
  plan.seed = 5;
  plan.detector_drop_period = 1;  // drop every consumed batch
  cfg.fault_plan = plan;
  Runtime rt(cfg);

  // One root hosts both phases (a runtime allows exactly one root task):
  // feed until the drop budget trips, then — post-failover — rerun the
  // deliberate deadlock to prove it is now averted synchronously.
  bool failed = false;
  CrossOutcome out;
  rt.root([&rt, &failed, &out] {
    failed = feed_until_failover_body(rt);
    if (failed) out = cross_await_round();
  });
  ASSERT_TRUE(failed);
  const RecoveryStatus rs = rt.recovery()->status();
  EXPECT_TRUE(rs.detector.failed_over);
  EXPECT_GT(rs.detector.events_lost, 0u);
  EXPECT_EQ(rt.active_policy(), core::PolicyChoice::CycleOnly)
      << "failover must land on the synchronous WFG-checked floor";

  // Post-failover, deadlocks are averted synchronously again: the same
  // cross-await pair now faults at the cycle-closing await, before blocking.
  EXPECT_EQ(out.sum, 30);
  EXPECT_EQ(out.recoveries, 1);
  const core::GateStats s = rt.gate_stats();
  EXPECT_GE(s.deadlocks_averted, 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(out.recoveries),
            s.deadlocks_averted + s.cycles_recovered);
  expect_clean_graph(rt);
}

TEST(AsyncFailover, DetectorDeathsPastRespawnBudgetFailOver) {
  Config cfg;
  cfg.policy = core::PolicyChoice::Async;
  cfg.workers = 2;
  cfg.detector = fast_detector();
  cfg.detector.max_respawns = 2;
  FaultPlan plan;
  plan.seed = 7;
  plan.detector_death_period = 1;  // every incarnation dies on its first tick
  cfg.fault_plan = plan;
  Runtime rt(cfg);

  ASSERT_TRUE(feed_until_failover(rt));
  const RecoveryStatus rs = rt.recovery()->status();
  EXPECT_TRUE(rs.detector.failed_over);
  EXPECT_GE(rs.detector.respawns, cfg.detector.max_respawns)
      << "the supervisor must revive the thread up to the budget first";
  EXPECT_EQ(rt.active_policy(), core::PolicyChoice::CycleOnly);
  EXPECT_GT(rt.fault_stats().detector_deaths, 0u);
}

TEST(AsyncFailover, LagPastBudgetFailsOver) {
  Config cfg;
  cfg.policy = core::PolicyChoice::Async;
  cfg.workers = 2;
  cfg.detector = fast_detector();
  cfg.detector.lag_budget_events = 1;
  cfg.detector.lag_trips_to_failover = 2;
  FaultPlan plan;
  plan.seed = 9;
  plan.detector_delay_period = 1;  // stall consumption on every tick
  plan.detector_delay_us = 2000;
  cfg.fault_plan = plan;
  Runtime rt(cfg);

  ASSERT_TRUE(feed_until_failover(rt));
  EXPECT_TRUE(rt.recovery()->status().detector.failed_over);
  EXPECT_GT(rt.fault_stats().detector_delays, 0u);
  EXPECT_EQ(rt.active_policy(), core::PolicyChoice::CycleOnly);
}

// ---- chaos sweep ---------------------------------------------------------

constexpr int kFanout = 16;
constexpr int kPromises = 6;

struct AsyncChaosOutcome {
  std::uint64_t futures_resolved = 0;
  std::uint64_t promises_resolved = 0;
  std::uint64_t pair_resolved = 0;
  /// DeadlockAvoidedError observations carrying a witness — exactly the
  /// faults the gate counted (synchronous averts + recovery breaks). The
  /// witness-less variant (woken by orphaning mid-block) is a separate
  /// phenomenon tracked by promises_orphaned.
  std::uint64_t witnessed = 0;
};

/// The fault-injection chaos workload (nested joins, owned promises,
/// fulfillers that may be injected to fail) PLUS one deliberate cross-await
/// deadlock whose members recover defensively: every obligation is
/// discharged even when a chaos fault lands inside the recovery path, so a
/// hang can only come from the machinery under test.
AsyncChaosOutcome run_async_chaos(Runtime& rt) {
  AsyncChaosOutcome out;
  rt.root([&out] {
    std::atomic<std::uint64_t> witnessed{0};
    const auto tally = [&witnessed](const DeadlockAvoidedError& e) {
      if (!e.witness().empty()) {
        witnessed.fetch_add(1, std::memory_order_relaxed);
      }
    };

    // Deliberate deadlock pair, defensively recovered.
    auto p1 = make_promise<long>();
    auto p2 = make_promise<long>();
    auto cross = [&tally](Promise<long> mine, Promise<long> other,
                          long val) -> long {
      bool mine_done = false;
      const auto discharge = [&] {
        if (mine_done) return;
        mine_done = true;
        try {
          mine.fulfill(val);
        } catch (const TjError&) {
          // injected fulfill failure: the promise orphans at task exit and
          // the peer's await faults — survivable, not silent
        }
      };
      long got = -2;
      try {
        got = other.get();
      } catch (const DeadlockAvoidedError& e) {
        tally(e);
        discharge();  // break the cycle before retrying
        try {
          got = other.get();
        } catch (const DeadlockAvoidedError& e2) {
          tally(e2);
          got = -3;
        } catch (const TjError&) {
          got = -3;
        }
      } catch (const TjError&) {
        got = -3;
      }
      discharge();
      return got;
    };
    auto ca = async_owning(p1, [&cross, p1, p2] { return cross(p1, p2, 10); });
    auto cb = async_owning(p2, [&cross, p2, p1] { return cross(p2, p1, 20); });

    // Deadlock-free background load across every injection site.
    std::vector<Future<long>> fs;
    for (int i = 0; i < kFanout; ++i) {
      fs.push_back(async([i]() -> long {
        auto inner = async([i] { return static_cast<long>(i); });
        return inner.get() + 1;
      }));
    }
    std::vector<Promise<long>> ps;
    std::vector<Future<void>> fulfillers;
    for (int i = 0; i < kPromises; ++i) {
      ps.push_back(make_promise<long>());
      fulfillers.push_back(async_owning(
          ps.back(), [p = ps.back(), i] { p.fulfill(100 + i); }));
    }

    for (auto& f : fs) {
      try {
        (void)f.get();
      } catch (const DeadlockAvoidedError& e) {
        tally(e);
      } catch (const TjError&) {
      }
      ++out.futures_resolved;
    }
    for (auto& p : ps) {
      try {
        (void)p.get();
      } catch (const DeadlockAvoidedError& e) {
        tally(e);
      } catch (const TjError&) {
      }
      ++out.promises_resolved;
    }
    for (auto& f : fulfillers) {
      try {
        f.join();
      } catch (const TjError&) {
      }
    }
    for (auto* f : {&ca, &cb}) {
      try {
        (void)f->get();
      } catch (const DeadlockAvoidedError& e) {
        tally(e);
      } catch (const TjError&) {
      }
      ++out.pair_resolved;
    }
    out.witnessed = witnessed.load(std::memory_order_relaxed);
  });
  return out;
}

class AsyncChaos
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 SchedulerMode>> {};

TEST_P(AsyncChaos, SurvivesDetectorFaultsWithExactReconciliation) {
  const auto [seed, mode] = GetParam();
  Config cfg;
  cfg.policy = core::PolicyChoice::Async;
  cfg.fault = core::FaultMode::Fallback;
  cfg.scheduler = mode;
  cfg.workers = 3;
  cfg.detector = fast_detector();
  cfg.fault_plan = FaultPlan::chaos_detector(seed);
  Runtime rt(cfg);
  const AsyncChaosOutcome out = run_async_chaos(rt);

  // (1) hang-freedom is the run completing; (2) no silently lost results.
  EXPECT_EQ(out.futures_resolved, static_cast<std::uint64_t>(kFanout));
  EXPECT_EQ(out.promises_resolved, static_cast<std::uint64_t>(kPromises));
  EXPECT_EQ(out.pair_resolved, 2u);

  // (3) exact reconciliation of the async ledger: every witnessed deadlock
  // fault was either averted synchronously (post-failover, or an orphan the
  // OWP caught pre-block) or recovered by the detector — and vice versa.
  const core::GateStats s = rt.gate_stats();
  EXPECT_EQ(out.witnessed, s.deadlocks_averted + s.cycles_recovered);

  // (4) the deliberate cycle was handled one way or the other: recovered
  // under optimism, or averted synchronously when chaos forced failover (or
  // dissolved by an injected fulfill failure orphaning a pair promise).
  EXPECT_GE(s.deadlocks_averted + s.cycles_recovered + s.promises_orphaned,
            1u);

  // (5) every recovery posted a break and nothing leaks.
  ASSERT_NE(rt.recovery(), nullptr);
  const RecoveryStatus rs = rt.recovery()->status();
  EXPECT_GE(rs.breaks_posted, s.cycles_recovered);
  EXPECT_EQ(rs.waits_registered, 0u);
  EXPECT_EQ(s.promises_orphaned, rt.fault_stats().fulfill_failures);
  expect_clean_graph(rt);
}

INSTANTIATE_TEST_SUITE_P(
    SeedSweep, AsyncChaos,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 17),
                       ::testing::Values(SchedulerMode::Cooperative,
                                         SchedulerMode::Blocking)));

}  // namespace
}  // namespace tj::runtime
