// Per-tenant admission control (service mode): budget isolation, cooldown
// hysteresis, cause-carrying rejections, the exact front-door reconciliation
// invariant (requests_checked == requests_admitted + requests_shed, per
// tenant admitted == released + in_flight) — standalone, wired through a
// live Runtime, under a 16-seed chaos sweep on both schedulers, and
// interacting with governor-off spawn backpressure (the
// spawn_inline_watermark contract: enforced whenever non-zero, independent
// of GovernorConfig::enabled).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "runtime/admission.hpp"
#include "runtime/api.hpp"
#include "runtime/introspect.hpp"

namespace tj::runtime {
namespace {

using core::PolicyChoice;

// A standalone controller over a bare gate: no runtime, fully deterministic.
struct BareController {
  core::JoinGate gate{PolicyChoice::None, nullptr, core::FaultMode::Fallback};
  std::size_t live_tasks = 0;
  std::size_t verifier_bytes = 0;
  AdmissionController ctl;

  explicit BareController(std::vector<TenantBudget> tenants)
      : ctl(std::move(tenants), gate, [this] { return live_tasks; },
            [this] { return verifier_bytes; }) {}
};

std::vector<TenantBudget> two_tenants() {
  TenantBudget a;
  a.name = "gold";
  a.max_in_flight = 4;
  TenantBudget b;
  b.name = "noisy";
  b.max_in_flight = 1;
  return {a, b};
}

// ---------------------------------------------------- controller basics --

TEST(Admission, TenantIndexAndBudgets) {
  BareController c(two_tenants());
  EXPECT_EQ(c.ctl.tenant_count(), 2u);
  EXPECT_EQ(c.ctl.tenant_index("gold"), 0u);
  EXPECT_EQ(c.ctl.tenant_index("noisy"), 1u);
  EXPECT_EQ(c.ctl.budget(1).max_in_flight, 1u);
  EXPECT_THROW((void)c.ctl.tenant_index("unknown"), UsageError);
  EXPECT_THROW((void)c.ctl.budget(2), UsageError);
  EXPECT_THROW((void)c.ctl.try_admit(2), UsageError);
  EXPECT_THROW(AdmissionController({}, c.gate, [] { return 0u; },
                                   [] { return 0u; }),
               UsageError);
}

TEST(Admission, InFlightBudgetIsolatesTenants) {
  BareController c(two_tenants());
  // The noisy tenant's single slot fills; its second request sheds.
  EXPECT_TRUE(c.ctl.try_admit(1).admitted);
  const auto v = c.ctl.try_admit(1);
  EXPECT_FALSE(v.admitted);
  EXPECT_EQ(v.cause, AdmissionCause::InFlightBudget);
  // Gold is untouched by noisy's saturation.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(c.ctl.try_admit(0).admitted);
  EXPECT_FALSE(c.ctl.try_admit(0).admitted);
  // Releases reopen exactly the freed capacity.
  c.ctl.release(1);
  EXPECT_TRUE(c.ctl.try_admit(1).admitted);
  c.ctl.release(1);
  for (int i = 0; i < 4; ++i) c.ctl.release(0);
  // Books balance: per tenant, admitted == released + in_flight.
  for (const auto& s : c.ctl.snapshot()) {
    EXPECT_EQ(s.admitted, s.released + s.in_flight) << s.name;
  }
}

TEST(Admission, SharedPressureBudgets) {
  TenantBudget t;
  t.name = "solo";
  t.max_live_tasks = 10;
  t.max_verifier_bytes = 1000;
  BareController c({t});
  EXPECT_TRUE(c.ctl.try_admit(0).admitted);
  c.live_tasks = 10;  // at the budget: over the line (>=)
  EXPECT_EQ(c.ctl.try_admit(0).cause, AdmissionCause::LiveTaskBudget);
  c.live_tasks = 0;
  c.verifier_bytes = 1000;
  EXPECT_EQ(c.ctl.try_admit(0).cause, AdmissionCause::VerifierBytesBudget);
  c.verifier_bytes = 0;
  EXPECT_TRUE(c.ctl.try_admit(0).admitted);
  c.ctl.release(0);
  c.ctl.release(0);
}

TEST(Admission, ShedThenRetryAfterCooldown) {
  TenantBudget t;
  t.name = "cool";
  t.max_in_flight = 1;
  t.shed_cooldown_ms = 60;
  BareController c({t});
  EXPECT_TRUE(c.ctl.try_admit(0).admitted);
  // Budget shed arms the cooldown...
  EXPECT_EQ(c.ctl.try_admit(0).cause, AdmissionCause::InFlightBudget);
  c.ctl.release(0);
  // ...so the retry storm is answered from the cooldown alone, even though
  // capacity is back. Cooldown sheds must NOT extend the window.
  EXPECT_EQ(c.ctl.try_admit(0).cause, AdmissionCause::Cooldown);
  EXPECT_EQ(c.ctl.try_admit(0).cause, AdmissionCause::Cooldown);
  const auto snap = c.ctl.snapshot();
  EXPECT_TRUE(snap[0].in_cooldown);
  EXPECT_EQ(snap[0].current_verdict, AdmissionCause::Cooldown);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_TRUE(c.ctl.try_admit(0).admitted);  // cooldown expired, slot free
  c.ctl.release(0);
}

TEST(Admission, RejectedErrorCarriesTenantAndCause) {
  BareController c(two_tenants());
  c.ctl.admit_or_throw(1);
  try {
    c.ctl.admit_or_throw(1);
    FAIL() << "expected AdmissionRejected";
  } catch (const AdmissionRejected& e) {
    EXPECT_EQ(e.tenant(), "noisy");
    EXPECT_EQ(e.cause(), AdmissionCause::InFlightBudget);
    EXPECT_NE(std::string(e.what()).find("noisy"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("in-flight-budget"),
              std::string::npos);
  }
  c.ctl.release(1);
  // An unbalanced release is a pairing bug, loudly.
  EXPECT_THROW(c.ctl.release(1), UsageError);
}

TEST(Admission, GateStatsReconcileExactly) {
  BareController c(two_tenants());
  std::uint64_t admitted = 0, shed = 0;
  for (int i = 0; i < 50; ++i) {
    if (c.ctl.try_admit(i % 2).admitted) {
      ++admitted;
      if (i % 3 == 0) c.ctl.release(i % 2);
    } else {
      ++shed;
    }
  }
  const core::GateStats s = c.gate.stats();
  EXPECT_EQ(s.requests_checked, 50u);
  EXPECT_EQ(s.requests_checked, s.requests_admitted + s.requests_shed);
  EXPECT_EQ(s.requests_admitted, admitted);
  EXPECT_EQ(s.requests_shed, shed);
  EXPECT_EQ(c.ctl.total_shed(), shed);
}

// ------------------------------------------------------- runtime wiring --

TEST(Admission, RuntimeWiresControllerFromGovernorConfig) {
  Config cfg;
  EXPECT_EQ(Runtime(cfg).admission(), nullptr);  // no tenants → no controller

  cfg.governor.tenants = two_tenants();
  // Inline machinery: wired even with the governor's poll loop disabled.
  ASSERT_FALSE(cfg.governor.enabled);
  Runtime rt(cfg);
  ASSERT_NE(rt.admission(), nullptr);
  EXPECT_EQ(rt.admission()->tenant_count(), 2u);
  EXPECT_TRUE(rt.admission()->try_admit(0).admitted);
  rt.admission()->release(0);
  EXPECT_EQ(rt.gate_stats().requests_checked, 1u);
}

TEST(Admission, SnapshotSurfacesTenants) {
  Config cfg;
  cfg.governor.tenants = two_tenants();
  Runtime rt(cfg);
  rt.admission()->admit_or_throw(1);
  (void)rt.admission()->try_admit(1);  // shed: noisy's slot is taken
  RuntimeSnapshot s = snapshot(rt);
  ASSERT_TRUE(s.admission_attached);
  ASSERT_EQ(s.tenants.size(), 2u);
  EXPECT_EQ(s.tenants[1].name, "noisy");
  EXPECT_EQ(s.tenants[1].in_flight, 1u);
  EXPECT_EQ(s.tenants[1].shed, 1u);
  EXPECT_EQ(s.tenants[1].current_verdict, AdmissionCause::InFlightBudget);
  EXPECT_EQ(s.requests_shed_total, 1u);
  const std::string text = s.to_string();
  EXPECT_NE(text.find("admission: 2 tenant(s)"), std::string::npos);
  EXPECT_NE(text.find("noisy"), std::string::npos);
  EXPECT_NE(text.find("in-flight-budget"), std::string::npos);
  rt.admission()->release(1);
}

// ------------------------------------------------------------- chaos sweep --

/// Mini service loop: admission-gated requests against a live runtime with
/// chaos armed; the books must balance exactly for every seed and scheduler.
void chaos_sweep_mode(SchedulerMode mode, std::uint64_t seed) {
  Config cfg;
  cfg.policy = PolicyChoice::TJ_GT;
  cfg.scheduler = mode;
  cfg.workers = 2;
  cfg.obs.enabled = true;
  cfg.fault_plan = FaultPlan::chaos(seed);
  cfg.governor.tenants = two_tenants();
  cfg.governor.spawn_inline_watermark = 8;  // backpressure in the mix too
  Runtime rt(cfg);
  AdmissionController& adm = *rt.admission();

  std::uint64_t submitted = 0, completed = 0, shed = 0;
  rt.root([&] {
    std::vector<std::pair<std::size_t, Future<int>>> in_flight;
    for (int i = 0; i < 60; ++i) {
      const std::size_t tenant = (seed + static_cast<std::uint64_t>(i)) % 2;
      ++submitted;
      if (!adm.try_admit(tenant).admitted) {
        ++shed;
        continue;
      }
      in_flight.emplace_back(tenant, async([i] { return i * 2; }));
      if (in_flight.size() >= 3) {
        auto [t, f] = in_flight.front();
        in_flight.erase(in_flight.begin());
        try {
          (void)f.get();
        } catch (const TjError&) {
          // Chaos faults settle the request; never lost, never double.
        }
        ++completed;
        adm.release(t);
      }
    }
    for (auto& [t, f] : in_flight) {
      try {
        (void)f.get();
      } catch (const TjError&) {
      }
      ++completed;
      adm.release(t);
    }
  });

  EXPECT_EQ(submitted, completed + shed) << "seed " << seed;
  const core::GateStats s = rt.gate_stats();
  EXPECT_EQ(s.requests_checked, submitted) << "seed " << seed;
  EXPECT_EQ(s.requests_checked, s.requests_admitted + s.requests_shed);
  EXPECT_EQ(s.requests_admitted, completed);
  EXPECT_EQ(s.requests_shed, shed);
  // Policy-side reconciliation stays exact under the same chaos.
  EXPECT_EQ(s.policy_rejections + s.owp_rejections,
            s.false_positives + s.owp_false_positives +
                (s.deadlocks_averted - s.deadlocks_averted_approved))
      << "seed " << seed;
  for (const auto& t : adm.snapshot()) {
    EXPECT_EQ(t.in_flight, 0u) << t.name;
    EXPECT_EQ(t.admitted, t.released) << t.name;
  }
}

TEST(AdmissionChaos, SixteenSeedSweepReconcilesOnBothSchedulers) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    chaos_sweep_mode(SchedulerMode::Blocking, seed);
    chaos_sweep_mode(SchedulerMode::Cooperative, seed);
  }
}

// ----------------------------------- governor-off backpressure interplay --

// The spawn_inline_watermark contract: enforced at every spawn whenever
// non-zero, even with GovernorConfig::enabled == false — and admission
// shedding (also governor-independent) composes with it: rung 1 sheds at
// the front door, rung 2 inlines what was admitted.
TEST(Admission, GovernorOffBackpressureStillEnforced) {
  Config cfg;
  cfg.scheduler = SchedulerMode::Blocking;
  cfg.workers = 2;
  cfg.obs.enabled = true;
  ASSERT_FALSE(cfg.governor.enabled);
  cfg.governor.spawn_inline_watermark = 1;
  TenantBudget t;
  t.name = "svc";
  t.max_in_flight = 2;
  cfg.governor.tenants = {t};
  Runtime rt(cfg);
  AdmissionController& adm = *rt.admission();

  std::uint64_t inlined_ok = 0, shed = 0;
  rt.root([&] {
    // Park one live task so every later spawn is at/over the watermark.
    std::atomic<bool> go{false};
    adm.admit_or_throw(0);
    Future<void> sleeper = async([&go] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
    // Admitted requests run inline (deterministically: live >= 1 == the
    // watermark at every spawn below); the third concurrent request sheds.
    adm.admit_or_throw(0);
    Future<int> a = async([] { return 7; });
    EXPECT_TRUE(a.ready());  // inline spawn: already done when async returns
    if (a.get() == 7) ++inlined_ok;

    // Both slots held (sleeper + the just-finished-but-unreleased request):
    // the third concurrent request sheds at the front door.
    if (!adm.try_admit(0).admitted) {
      ++shed;
    } else {
      ADD_FAILURE() << "expected the in-flight budget to shed";
      adm.release(0);
    }
    adm.release(0);
    go.store(true, std::memory_order_release);
    sleeper.join();
    adm.release(0);
  });

  EXPECT_EQ(inlined_ok, 1u);
  EXPECT_EQ(shed, 1u);
  ASSERT_NE(rt.recorder(), nullptr);
  EXPECT_GE(rt.recorder()->metrics().spawn_inlines.load(), 1u);
  const core::GateStats s = rt.gate_stats();
  EXPECT_EQ(s.requests_checked, 3u);
  EXPECT_EQ(s.requests_admitted, 2u);
  EXPECT_EQ(s.requests_shed, 1u);
}

// Regression: a spawn-time inlined child that blocks on a promise only the
// suspended parent's continuation can fulfill used to hang on an
// acyclic-looking graph; run_inline's probation WFG edge makes the gate's
// fallback see parent → child, so the child's await faults as an averted
// deadlock and the parent resumes.
TEST(Admission, InlinedChildAwaitingParentPromiseFaultsInsteadOfHanging) {
  Config cfg;
  cfg.policy = PolicyChoice::TJ_GT;
  cfg.scheduler = SchedulerMode::Blocking;
  cfg.workers = 2;
  cfg.governor.spawn_inline_watermark = 1;  // every spawn at live >= 1 inlines
  Runtime rt(cfg);

  rt.root([&] {
    std::atomic<bool> go{false};
    Future<void> sleeper = async([&go] {  // live = 1: arms the watermark
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
    Promise<int> p = make_promise<int>();  // owned by root
    // Runs inline in root; root cannot fulfill p until it returns.
    Future<int> child = async([p] { return p.get(); });
    EXPECT_TRUE(child.ready());
    EXPECT_THROW((void)child.get(), DeadlockAvoidedError);
    p.fulfill(42);  // root's continuation DOES resume — no hang
    go.store(true, std::memory_order_release);
    sleeper.join();
  });
  EXPECT_GE(rt.gate_stats().deadlocks_averted, 1u);
}

// The same program under Async: run_inline's edge enters the WFG unchecked,
// so the cycle child -> p -> root -> child is only found by the detector.
// The root thread registers no wait of its own (it is running the child,
// not joining), and recovery must still break the child's await.
TEST(Admission, InlinedChildAwaitingParentPromiseRecoveredUnderAsync) {
  Config cfg;
  cfg.policy = PolicyChoice::Async;
  cfg.scheduler = SchedulerMode::Blocking;
  cfg.workers = 2;
  cfg.governor.spawn_inline_watermark = 1;
  cfg.detector.tick_us = 100;
  Runtime rt(cfg);

  rt.root([&] {
    std::atomic<bool> go{false};
    Future<void> sleeper = async([&go] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
    Promise<int> p = make_promise<int>();
    Future<int> child = async([p] { return p.get(); });
    EXPECT_TRUE(child.ready());
    EXPECT_THROW((void)child.get(), DeadlockAvoidedError);
    p.fulfill(42);
    go.store(true, std::memory_order_release);
    sleeper.join();
  });
  EXPECT_GE(rt.gate_stats().cycles_recovered, 1u);
}

}  // namespace
}  // namespace tj::runtime
