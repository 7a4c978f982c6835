// Rejection-provenance witnesses end to end: every policy's known-rejection
// scenario produces a witness the offline validator independently confirms;
// injected (spurious) rejections validate as Spurious; hand-crafted
// inconsistent witnesses validate as Invalid; the DOT rendering is
// structurally well-formed; and the gate's witness ring is bounded.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/ladder.hpp"
#include "core/witness.hpp"
#include "obs/witness.hpp"
#include "runtime/api.hpp"
#include "trace/trace.hpp"

namespace tj::runtime {
namespace {

using core::PolicyChoice;
using core::Witness;
using core::WitnessKind;
using obs::WitnessValidation;
using obs::WitnessVerdict;

core::WitnessKind expected_kind(PolicyChoice p) {
  switch (p) {
    case PolicyChoice::KJ_VC: return WitnessKind::KjClock;
    case PolicyChoice::KJ_SS: return WitnessKind::KjSet;
    default: return WitnessKind::TjPath;  // TJ_GT / TJ_JP / TJ_SP
  }
}

/// Older sibling joins its younger sibling: forbidden by every policy family
/// (TJ: the waiter does not precede the target in the newest-first preorder;
/// KJ: the older sibling never learned the younger one). Under
/// FaultMode::Throw the rejection surfaces as PolicyViolationError carrying
/// the policy's witness, with trace_pos stamped because record_trace is on.
Witness older_joins_younger(Runtime& rt) {
  std::mutex mu;
  Witness captured;
  rt.root([&] {
    std::atomic<const Future<int>*> slot{nullptr};
    Future<int> older = async([&]() -> int {
      const Future<int>* f;
      while ((f = slot.load(std::memory_order_acquire)) == nullptr) {
        std::this_thread::yield();
      }
      try {
        return f->get();
      } catch (const PolicyViolationError& e) {
        const std::lock_guard<std::mutex> lock(mu);
        captured = e.witness();
        return -1;
      }
    });
    Future<int> younger = async([] { return 7; });
    slot.store(&younger, std::memory_order_release);
    EXPECT_EQ(older.get(), -1);
    EXPECT_EQ(younger.get(), 7);
  });
  return captured;
}

class WitnessPerPolicy : public ::testing::TestWithParam<PolicyChoice> {};

TEST_P(WitnessPerPolicy, KnownRejectionYieldsConfirmedWitness) {
  Runtime rt({.policy = GetParam(),
              .fault = core::FaultMode::Throw,
              .workers = 4,
              .record_trace = true});
  const Witness w = older_joins_younger(rt);
  ASSERT_FALSE(w.empty());
  EXPECT_EQ(w.kind, expected_kind(GetParam()));
  EXPECT_EQ(w.policy, GetParam());
  EXPECT_FALSE(w.on_promise);
  EXPECT_NE(w.waiter, w.target);
  EXPECT_GT(w.trace_pos, 0u);

  const WitnessValidation v = obs::validate_witness(w, rt.recorded_trace());
  EXPECT_EQ(v.verdict, WitnessVerdict::Confirmed) << v.reason;

  // The renderings always cover the kind's evidence.
  const std::string text = obs::to_text(w);
  EXPECT_NE(text.find("witness["), std::string::npos);
  EXPECT_NE(text.find("evidence:"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, WitnessPerPolicy,
                         ::testing::Values(PolicyChoice::TJ_GT,
                                           PolicyChoice::TJ_JP,
                                           PolicyChoice::TJ_SP,
                                           PolicyChoice::KJ_VC,
                                           PolicyChoice::KJ_SS));

TEST(WitnessWfg, CrossSiblingDeadlockYieldsConfirmedCycle) {
  // Two siblings join each other: the WFG fallback averts the deadlock and
  // the faulted task's error carries the concrete cycle as its witness.
  Runtime rt({.policy = PolicyChoice::TJ_SP,
              .workers = 4,
              .record_trace = true});
  std::mutex mu;
  Witness captured;
  rt.root([&] {
    std::atomic<const Future<int>*> slot1{nullptr};
    std::atomic<const Future<int>*> slot2{nullptr};
    auto cross = [&](std::atomic<const Future<int>*>& other) {
      const Future<int>* f;
      while ((f = other.load(std::memory_order_acquire)) == nullptr) {
        std::this_thread::yield();
      }
      try {
        return f->get() + 1;
      } catch (const DeadlockAvoidedError& e) {
        const std::lock_guard<std::mutex> lock(mu);
        captured = e.witness();
        return 100;
      }
    };
    Future<int> t1 = async([&] { return cross(slot2); });
    Future<int> t2 = async([&] { return cross(slot1); });
    slot1.store(&t1, std::memory_order_release);
    slot2.store(&t2, std::memory_order_release);
    EXPECT_EQ(t1.get() + t2.get(), 201);
  });
  ASSERT_FALSE(captured.empty());
  EXPECT_EQ(captured.kind, WitnessKind::WfgCycle);
  ASSERT_GE(captured.chain.size(), 2u);
  EXPECT_EQ(captured.chain.front(), captured.waiter);

  const WitnessValidation v =
      obs::validate_witness(captured, rt.recorded_trace());
  EXPECT_EQ(v.verdict, WitnessVerdict::Confirmed) << v.reason;
}

TEST(WitnessOwp, SelfAwaitYieldsConfirmedObligationChain) {
  // Awaiting a promise you own: OWP's obligation chain is reflexive, so the
  // rejection is deterministic; Throw mode keeps the OWP evidence (the
  // fallback would supersede it with the concrete WFG cycle).
  Config cfg;
  cfg.policy = PolicyChoice::TJ_SP;
  cfg.promise_policy = core::PromisePolicy::OWP;
  cfg.fault = core::FaultMode::Throw;
  cfg.workers = 2;
  cfg.record_trace = true;
  Runtime rt(cfg);
  Witness captured;
  rt.root([&] {
    auto p = make_promise<int>();
    try {
      (void)p.get();
    } catch (const PolicyViolationError& e) {
      captured = e.witness();
    }
  });
  ASSERT_FALSE(captured.empty());
  EXPECT_EQ(captured.kind, WitnessKind::OwpChain);
  EXPECT_TRUE(captured.on_promise);
  ASSERT_FALSE(captured.chain.empty());
  EXPECT_EQ(captured.chain.back(), captured.waiter);
  EXPECT_GT(captured.trace_pos, 0u);

  const WitnessValidation v =
      obs::validate_witness(captured, rt.recorded_trace());
  EXPECT_EQ(v.verdict, WitnessVerdict::Confirmed) << v.reason;
}

TEST(WitnessOwp, OrphanedPromiseYieldsConfirmedOrphanWitness) {
  // The maker exits still owning the promise: awaiting it afterwards is a
  // certain deadlock (RejectOrphaned faults directly, no WFG consultation).
  Config cfg;
  cfg.policy = PolicyChoice::TJ_SP;
  cfg.promise_policy = core::PromisePolicy::OWP;
  cfg.workers = 2;
  cfg.record_trace = true;
  Runtime rt(cfg);
  Witness captured;
  rt.root([&] {
    Promise<int> p;
    auto f = async([&p] { p = make_promise<int>(); });
    f.join();
    try {
      (void)p.get();
    } catch (const DeadlockAvoidedError& e) {
      captured = e.witness();
    }
  });
  ASSERT_FALSE(captured.empty());
  EXPECT_EQ(captured.kind, WitnessKind::OwpOrphan);
  EXPECT_TRUE(captured.on_promise);

  const WitnessValidation v =
      obs::validate_witness(captured, rt.recorded_trace());
  EXPECT_EQ(v.verdict, WitnessVerdict::Confirmed) << v.reason;
}

TEST(WitnessInjected, InjectedRejectionValidatesSpurious) {
  // Fault injection flips approved verdicts; the fallback clears every one.
  // The gate's ring keeps the Injected witnesses, which by construction
  // carry no evidence and must validate as Spurious, never Confirmed.
  Config cfg;
  cfg.policy = PolicyChoice::TJ_SP;
  cfg.workers = 2;
  cfg.record_trace = true;
  cfg.fault_plan.seed = 7;
  cfg.fault_plan.join_rejection_period = 1;
  Runtime rt(cfg);
  rt.root([] {
    for (int i = 0; i < 8; ++i) {
      auto f = async([i] { return i; });
      EXPECT_EQ(f.get(), i);
    }
  });
  const std::vector<Witness> ring = rt.gate().witnesses();
  const auto it = std::find_if(ring.begin(), ring.end(), [](const Witness& w) {
    return w.kind == WitnessKind::Injected;
  });
  ASSERT_NE(it, ring.end());
  const WitnessValidation v =
      obs::validate_witness(*it, rt.recorded_trace());
  EXPECT_EQ(v.verdict, WitnessVerdict::Spurious) << v.reason;
  EXPECT_GE(rt.gate_stats().false_positives, 1u);
}

TEST(WitnessInjected, GateRingIsBoundedWithDropAccounting) {
  Config cfg;
  cfg.policy = PolicyChoice::TJ_SP;
  cfg.workers = 2;
  cfg.fault_plan.seed = 11;
  cfg.fault_plan.join_rejection_period = 1;
  Runtime rt(cfg);
  constexpr int kJoins = 300;  // > the ring's capacity of 256
  rt.root([] {
    for (int i = 0; i < kJoins; ++i) {
      auto f = async([] { return 0; });
      f.join();
    }
  });
  const std::vector<Witness> ring = rt.gate().witnesses();
  EXPECT_LE(ring.size(), 256u);
  EXPECT_GE(ring.size(), 1u);
  EXPECT_GT(rt.gate().witnesses_dropped(), 0u);
}

TEST(WitnessLadder, MixedLevelPairExplainsAndConfirms) {
  // Direct ladder exercise: nodes created under different levels (and
  // forests) are conservatively rejected; the witness quotes both tags.
  auto ladder = core::make_ladder_verifier(PolicyChoice::TJ_SP);
  ASSERT_NE(ladder, nullptr);
  core::PolicyNode* a = ladder->add_child(nullptr);
  ASSERT_TRUE(ladder->downgrade());
  core::PolicyNode* b = ladder->add_child(nullptr);
  EXPECT_FALSE(ladder->permits_join(a, b));

  const Witness w = ladder->explain(a, b);
  EXPECT_EQ(w.kind, WitnessKind::LadderMixed);
  EXPECT_TRUE(w.waiter_level != w.target_level ||
              w.waiter_forest != w.target_forest);

  const WitnessValidation v = obs::validate_witness(w, trace::Trace{});
  EXPECT_EQ(v.verdict, WitnessVerdict::Confirmed) << v.reason;
  ladder->release(a);
  ladder->release(b);
}

// --- hand-crafted inconsistent witnesses must validate as Invalid ---------

Witness base(WitnessKind kind) {
  Witness w;
  w.kind = kind;
  w.policy = PolicyChoice::TJ_SP;
  w.waiter = 1;
  w.target = 2;
  return w;
}

TEST(WitnessInvalid, EmptyOrMalformedCyclesExplainNothing) {
  const trace::Trace none;
  Witness w = base(WitnessKind::WfgCycle);
  EXPECT_EQ(obs::validate_witness(w, none).verdict, WitnessVerdict::Invalid)
      << "empty cycle";
  w.chain = {2, 3};  // does not start at the waiter
  EXPECT_EQ(obs::validate_witness(w, none).verdict, WitnessVerdict::Invalid);
  w.chain = {1, 3};  // second node is not the rejected edge's target
  EXPECT_EQ(obs::validate_witness(w, none).verdict, WitnessVerdict::Invalid);
  w.chain = {1, 2, 3, 2};  // revisits a node before closing
  EXPECT_EQ(obs::validate_witness(w, none).verdict, WitnessVerdict::Invalid);
}

TEST(WitnessInvalid, EvidenceThatPermitsTheJoinIsInconsistent) {
  const trace::Trace none;
  // TJ: the recorded paths actually order waiter before target.
  Witness tj = base(WitnessKind::TjPath);
  tj.waiter_path = {1};
  tj.target_path = {0};
  EXPECT_EQ(obs::validate_witness(tj, none).verdict, WitnessVerdict::Invalid);

  // KJ-VC: the observed clock reaches the joinee's birth.
  Witness vc = base(WitnessKind::KjClock);
  vc.joinee_birth = 2;
  vc.observed_clock = 5;
  EXPECT_EQ(obs::validate_witness(vc, none).verdict, WitnessVerdict::Invalid);

  // KJ-SS: the snapshot set contains the joinee.
  Witness ss = base(WitnessKind::KjSet);
  ss.set_member = true;
  EXPECT_EQ(obs::validate_witness(ss, none).verdict, WitnessVerdict::Invalid);

  // OWP orphan claims need a promise target.
  Witness orphan = base(WitnessKind::OwpOrphan);
  orphan.on_promise = false;
  EXPECT_EQ(obs::validate_witness(orphan, none).verdict,
            WitnessVerdict::Invalid);

  // No evidence at all.
  Witness none_w;
  EXPECT_EQ(obs::validate_witness(none_w, none).verdict,
            WitnessVerdict::Invalid);
}

// --- DOT rendering ---------------------------------------------------------

void expect_wellformed_dot(const Witness& w) {
  const std::string dot = obs::to_dot(w);
  EXPECT_EQ(dot.rfind("digraph", 0), 0u) << dot;
  EXPECT_NE(dot.find("->"), std::string::npos) << dot;
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'))
      << dot;
  EXPECT_EQ(dot.back(), '\n');
}

TEST(WitnessDot, EveryKindRendersACompleteDigraph) {
  Witness tj = base(WitnessKind::TjPath);
  tj.waiter_path = {0, 1};
  tj.target_path = {0, 2, 1};
  expect_wellformed_dot(tj);

  Witness vc = base(WitnessKind::KjClock);
  vc.joinee_birth = 3;
  vc.observed_clock = 1;
  expect_wellformed_dot(vc);
  expect_wellformed_dot(base(WitnessKind::KjSet));

  Witness chain = base(WitnessKind::OwpChain);
  chain.on_promise = true;
  chain.chain = {2, 3, 1};
  expect_wellformed_dot(chain);

  Witness orphan = base(WitnessKind::OwpOrphan);
  orphan.on_promise = true;
  expect_wellformed_dot(orphan);

  Witness ladder = base(WitnessKind::LadderMixed);
  ladder.waiter_level = 0;
  ladder.target_level = 1;
  expect_wellformed_dot(ladder);

  Witness cycle = base(WitnessKind::WfgCycle);
  cycle.chain = {1, 2, 3};
  expect_wellformed_dot(cycle);

  expect_wellformed_dot(base(WitnessKind::Injected));
  expect_wellformed_dot(base(WitnessKind::None));
}

}  // namespace
}  // namespace tj::runtime
