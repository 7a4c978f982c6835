// Ownership-policy judgment: unit semantics of the offline reference
// (owner tracking, frozen obligation edges, await/join cycle rejection),
// agreement between the *online* OwpVerifier and the offline judgment on
// random and exhaustively enumerated promise traces, the soundness
// cross-check that OWP-valid traces are extended-deadlock-free, and the
// online verifier's pruning of history that no query can reach.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/owp.hpp"
#include "core/owp_replay.hpp"
#include "trace/deadlock.hpp"
#include "trace/owp_judgment.hpp"
#include "trace/trace.hpp"
#include "trace/trace_gen.hpp"
#include "trace/validity.hpp"

namespace tj::trace {
namespace {

TEST(OwpJudgment, MakerOwnsAndFulfillClears) {
  OwpJudgment j;
  j.push(init(0));
  j.push(make(0, 1));
  EXPECT_EQ(j.owner_of(1), std::optional<TaskId>(0));
  EXPECT_TRUE(j.valid_fulfill(0, 1));
  EXPECT_FALSE(j.valid_fulfill(3, 1));  // not the owner
  j.push(fulfill(0, 1));
  EXPECT_EQ(j.owner_of(1), std::nullopt);
  EXPECT_TRUE(j.fulfilled(1));
  EXPECT_FALSE(j.valid_fulfill(0, 1));  // single assignment
}

TEST(OwpJudgment, TransferMovesObligation) {
  OwpJudgment j;
  j.push(init(0));
  j.push(fork(0, 1));
  j.push(make(0, 0));
  EXPECT_TRUE(j.valid_transfer(0, 1, 0));
  EXPECT_FALSE(j.valid_transfer(1, 0, 0));  // only the owner transfers
  j.push(transfer(0, 1, 0));
  EXPECT_EQ(j.owner_of(0), std::optional<TaskId>(1));
  EXPECT_FALSE(j.valid_fulfill(0, 0));
  EXPECT_TRUE(j.valid_fulfill(1, 0));
}

TEST(OwpJudgment, AwaitingYourOwnPromiseIsInvalid) {
  OwpJudgment j;
  j.push(init(0));
  j.push(make(0, 0));
  EXPECT_FALSE(j.valid_await(0, 0));  // reaches() is reflexive
  j.push(fulfill(0, 0));
  EXPECT_TRUE(j.valid_await(0, 0));  // fulfilled: never blocks
}

TEST(OwpJudgment, ObligationCycleThroughTwoPromises) {
  // Task 1 awaits p0 (owned by 2): edge 1 → 2. Task 2 awaiting p1 (owned
  // by 1) would close the cycle 2 → 1 → 2.
  OwpJudgment j;
  j.push(init(0));
  j.push(fork(0, 1));
  j.push(fork(0, 2));
  j.push(make(1, 1));
  j.push(make(2, 0));
  EXPECT_TRUE(j.valid_await(1, 0));
  j.push(await(1, 0));
  EXPECT_FALSE(j.valid_await(2, 1));
}

TEST(OwpJudgment, EdgesAreFrozenAtInsertionTimeOwner) {
  // 1 awaits p0 while 2 owns it (edge 1 → 2). Transferring p0 to task 3
  // afterwards must NOT rewrite that edge: 2 → 1 obligations still cycle,
  // 3 → 1 ones do not.
  OwpJudgment j;
  j.push(init(0));
  j.push(fork(0, 1));
  j.push(fork(0, 2));
  j.push(fork(0, 3));
  j.push(make(2, 0));
  j.push(await(1, 0));
  j.push(transfer(2, 3, 0));
  j.push(make(1, 1));
  EXPECT_FALSE(j.valid_await(2, 1));  // 2: H still has 1 → 2
  EXPECT_TRUE(j.valid_await(3, 1));   // 3 inherited no history
}

TEST(OwpJudgment, JoinsAreAwaitsOnCompletionPromises) {
  OwpJudgment j;
  j.push(init(0));
  j.push(fork(0, 1));
  j.push(join(0, 1));  // edge 0 → 1
  EXPECT_FALSE(j.valid_join(1, 0));  // 1 joining 0 would close the cycle
  // ...and the same through a promise: p owned by 0, awaited by 1 would
  // add 1 → 0, closing the same cycle.
  j.push(make(0, 0));
  EXPECT_FALSE(j.valid_await(1, 0));
}

// ---------------------------------------------------------------------------
// Online / offline agreement.

// Feeds `t` action-by-action to the online verifier and the offline
// judgment, requiring the same verdict for every policy-relevant action.
void expect_agreement(const Trace& t, std::uint64_t seed) {
  core::OwpTraceReplay online;
  OwpJudgment offline;
  std::size_t idx = 0;
  for (const Action& a : t.actions()) {
    bool offline_ok = true;
    switch (a.kind) {
      case ActionKind::Join:
        offline_ok = offline.valid_join(a.actor, a.target);
        break;
      case ActionKind::Await:
        offline_ok = offline.valid_await(a.actor, a.promise);
        break;
      case ActionKind::Fulfill:
        offline_ok = offline.valid_fulfill(a.actor, a.promise);
        break;
      case ActionKind::Transfer:
        offline_ok = offline.valid_transfer(a.actor, a.target, a.promise);
        break;
      default:
        break;
    }
    const bool online_ok = online.feed(a);
    ASSERT_EQ(online_ok, offline_ok)
        << "disagreement at action " << idx << " of seed-" << seed
        << " trace:\n"
        << t;
    offline.push(a);
    ++idx;
  }
}

TEST(OwpAgreement, RandomAdversarialTraces) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    expect_agreement(random_promise_trace(6, 4, 24, seed), seed);
  }
}

TEST(OwpAgreement, RandomValidTraces) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const Trace t = random_owp_valid_trace(5, 3, 20, seed);
    ASSERT_TRUE(is_owp_valid(t)) << "generator emitted OWP-invalid trace:\n"
                                 << t;
    expect_agreement(t, seed);
  }
}

// Exhaustive small-scope agreement: every sequence of promise/join ops over
// a fixed fork skeleton, checked step by step (online vs offline) via full
// prefix replays.
void exhaust(std::vector<Action>& prefix, const std::vector<Action>& skeleton,
             std::uint32_t n_tasks, std::uint32_t n_promises,
             std::uint32_t depth, std::uint64_t* checked) {
  {
    Trace t(skeleton);
    for (const Action& a : prefix) t.push(a);
    expect_agreement(t, /*seed=*/depth);
    ++*checked;
  }
  if (depth == 0) return;
  const auto made = [&](PromiseId p) {
    for (const Action& a : prefix) {
      if (a.kind == ActionKind::Make && a.promise == p) return true;
    }
    return false;
  };
  for (TaskId a = 0; a < n_tasks; ++a) {
    for (PromiseId p = 0; p < n_promises; ++p) {
      if (!made(p)) {
        prefix.push_back(make(a, p));
        exhaust(prefix, skeleton, n_tasks, n_promises, depth - 1, checked);
        prefix.pop_back();
        continue;  // ops on an unmade promise are structurally invalid
      }
      for (const Action& op : {fulfill(a, p), await(a, p)}) {
        prefix.push_back(op);
        exhaust(prefix, skeleton, n_tasks, n_promises, depth - 1, checked);
        prefix.pop_back();
      }
      for (TaskId b = 0; b < n_tasks; ++b) {
        if (b == a) continue;
        prefix.push_back(transfer(a, b, p));
        exhaust(prefix, skeleton, n_tasks, n_promises, depth - 1, checked);
        prefix.pop_back();
      }
    }
    for (TaskId b = 0; b < n_tasks; ++b) {
      if (b == a) continue;
      prefix.push_back(join(a, b));
      exhaust(prefix, skeleton, n_tasks, n_promises, depth - 1, checked);
      prefix.pop_back();
    }
  }
}

TEST(OwpAgreement, ExhaustiveTwoTasksDepthFour) {
  const std::vector<Action> skeleton = {init(0), fork(0, 1)};
  std::vector<Action> prefix;
  std::uint64_t checked = 0;
  exhaust(prefix, skeleton, /*n_tasks=*/2, /*n_promises=*/2, /*depth=*/4,
          &checked);
  EXPECT_GT(checked, 5000u);
}

TEST(OwpAgreement, ExhaustiveThreeTasksDepthThree) {
  const std::vector<Action> skeleton = {init(0), fork(0, 1), fork(0, 2)};
  std::vector<Action> prefix;
  std::uint64_t checked = 0;
  exhaust(prefix, skeleton, /*n_tasks=*/3, /*n_promises=*/2, /*depth=*/3,
          &checked);
  EXPECT_GT(checked, 3000u);
}

// ---------------------------------------------------------------------------
// Soundness cross-check against the extended deadlock definition.

TEST(OwpSoundness, ValidTracesAreDeadlockFree) {
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    const Trace t = random_owp_valid_trace(6, 4, 24, seed);
    EXPECT_FALSE(contains_deadlock(t))
        << "OWP-valid trace contains a deadlock (seed " << seed << "):\n"
        << t;
  }
}

TEST(OwpSoundness, DeadlockingPromiseTraceIsOwpInvalid) {
  // The canonical cross-handoff: each task awaits the promise the *other*
  // task owns. The second await closes the obligation cycle.
  Trace t({init(0), fork(0, 1), fork(0, 2), make(1, 0), make(2, 1),
           await(1, 1), await(2, 0)});
  EXPECT_TRUE(contains_deadlock(t));
  EXPECT_FALSE(is_owp_valid(t));
}

// ---------------------------------------------------------------------------
// History pruning in the online verifier: edges into terminated tasks that
// have no out-edges of their own are dropped, and nothing else.

/// One promise ping by `waiter`: child `c` makes a promise, the waiter
/// awaits it while it is unfulfilled, the child fulfills it and exits, and
/// the waiter joins the child.
void ping(core::OwpVerifier& v, std::uint64_t waiter, std::uint64_t c) {
  core::PromiseNode* p = v.on_make(c, c);
  ASSERT_EQ(v.permits_await(waiter, p), core::AwaitVerdict::Allow);
  v.on_await(waiter, p);
  ASSERT_EQ(v.check_fulfill(p, c), core::FulfillResult::Ok);
  v.commit_fulfill(p);
  EXPECT_TRUE(v.on_task_exit(c).empty());
  ASSERT_TRUE(v.permits_join(waiter, c));
  v.on_join(waiter, c);
  v.release(p);
}

TEST(OwpHistory, FinishedChildrenDoNotAccumulate) {
  core::OwpVerifier v;
  for (std::uint64_t c = 2; c < 10'002; ++c) ping(v, 1, c);
  // Without pruning, the waiter keeps one edge per ping.
  EXPECT_LT(v.bytes_in_use(), 64 * sizeof(std::uint64_t));
}

TEST(OwpHistory, ChildThatAwaitedALongerLivedSiblingIsReleased) {
  // Each child c awaits a promise of its sibling s and exits while s still
  // runs, so the waiter's join edge to c is kept (c reaches the live s).
  // Once s exits, c leads nowhere and the waiter's edge to it must go.
  core::OwpVerifier v;
  const std::uint64_t w = 1;
  for (std::uint64_t c = 2; c < 20'002; c += 2) {
    const std::uint64_t s = c + 1;
    core::PromiseNode* p = v.on_make(s, c);
    ASSERT_EQ(v.permits_await(c, p), core::AwaitVerdict::Allow);
    v.on_await(c, p);  // c -> s
    ASSERT_EQ(v.check_fulfill(p, s), core::FulfillResult::Ok);
    v.commit_fulfill(p);
    EXPECT_TRUE(v.on_task_exit(c).empty());
    ASSERT_TRUE(v.permits_join(w, c));
    v.on_join(w, c);  // w -> c -> s
    ASSERT_FALSE(v.permits_join(s, w));
    EXPECT_TRUE(v.on_task_exit(s).empty());
    v.release(p);
  }
  EXPECT_LT(v.bytes_in_use(), 64 * sizeof(std::uint64_t));
}

TEST(OwpHistory, PathThroughAFinishedTaskSurvivesPruning) {
  core::OwpVerifier v;
  const std::uint64_t w = 1, b = 2, c = 3;
  core::PromiseNode* p = v.on_make(c, 100);
  ASSERT_EQ(v.permits_await(b, p), core::AwaitVerdict::Allow);
  v.on_await(b, p);  // b -> c
  EXPECT_TRUE(v.on_task_exit(b).empty());
  v.on_join(w, b);  // w -> b: b has exited, but reaches the live c
  for (std::uint64_t x = 10; x < 100; ++x) ping(v, w, x);  // prunes w's set
  EXPECT_FALSE(v.permits_join(c, w));
  EXPECT_EQ(v.explain_join(c, w).chain, (std::vector<std::uint64_t>{w, b, c}));
  v.commit_fulfill(p);
  v.release(p);
}

TEST(OwpHistory, TransferToAFinishedTaskIsRefusedAtAnyUid) {
  core::OwpVerifier v;
  const std::uint64_t owner = 1, gone = (std::uint64_t{1} << 40) + 5;
  core::PromiseNode* p = v.on_make(owner, 7);
  EXPECT_TRUE(v.on_task_exit(gone).empty());
  EXPECT_EQ(v.check_transfer(p, owner, gone), core::TransferResult::TargetDead);
  EXPECT_EQ(v.check_transfer(p, owner, gone + 1), core::TransferResult::Ok);
  EXPECT_TRUE(v.commit_transfer(p, gone));  // orphaned, not lost
  v.release(p);
}

}  // namespace
}  // namespace tj::trace
