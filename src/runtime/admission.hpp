#pragma once
// Per-tenant admission control: the front door of the service scenario.
// A long-lived runtime serving open-loop traffic cannot let overload express
// itself as unbounded queueing — by the time the policy ladder degrades, the
// tail latency of *every* tenant is already gone. Admission control sheds
// excess work per tenant before anything is spawned, so a noisy tenant
// exhausts its own budget while quiet tenants keep their latency.
//
// This is the outermost rung of the runtime's admission ladder:
//
//   1. shed         — AdmissionController rejects the request outright
//                     (AdmissionRejected; nothing was spawned, retry later)
//   2. backpressure — GovernorConfig::spawn_inline_watermark runs admitted
//                     work's children inline instead of growing the pool
//   3. downgrade    — the governor steps the policy ladder toward WFG-only
//
// Each rung is strictly cheaper for the system than the next: a shed costs
// one mutex acquisition and touches no verifier state at all.
//
// Budgets live in GovernorConfig::tenants, but — like the spawn-inline
// watermark — admission is *inline* machinery enforced on every try_admit
// regardless of GovernorConfig::enabled; the background governor's poll loop
// never makes admission decisions.
//
// Accounting contract (the reconciliation invariant tests assert): every
// try_admit reports its verdict to the JoinGate, so the gate's stats obey
//   requests_checked == requests_admitted + requests_shed   (exactly),
// and within the controller, per tenant,
//   admitted == released + in_flight                        (exactly).
// A shed emits an obs AdmissionShed event; admits are counted (by the gate)
// but not per-event recorded (they are the common case and would swamp the
// ring at service rates).

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/errors.hpp"

namespace tj::core {
class JoinGate;
}
namespace tj::obs {
class FlightRecorder;
}

namespace tj::runtime {

/// One tenant's admission budgets. A budget of 0 means "unlimited"; a tenant
/// with all budgets 0 is still tracked (in-flight counts, snapshots) but
/// never shed.
struct TenantBudget {
  std::string name;
  /// Recovery priority: when the async detector must pick a deadlock victim
  /// and the cycle spans tenants, lower-priority tenants are sacrificed
  /// first (0 = lowest = victim first). Gold tenants set this high so a
  /// noisy tenant's cycle participant dies instead of theirs. Ties fall to
  /// the youngest participant.
  std::uint32_t priority = 0;
  /// Concurrent admitted-but-not-released requests.
  std::size_t max_in_flight = 0;
  /// Runtime-wide live (submitted, unfinished) tasks at admission time —
  /// a crude but cheap proxy for "the machine is saturated".
  std::size_t max_live_tasks = 0;
  /// Verifier-state footprint (policy bytes) at admission time: under
  /// memory pressure the tenant is shed before the governor must degrade.
  std::size_t max_verifier_bytes = 0;
  /// After a budget shed the tenant keeps shedding for this long
  /// (hysteresis: a saturated tenant's retry storm is answered from the
  /// cooldown check alone, without re-probing live tasks or verifier
  /// bytes). 0 = re-evaluate budgets on every attempt.
  std::uint32_t shed_cooldown_ms = 0;
};

/// The admit/shed decision point. Owned by the Runtime when
/// GovernorConfig::tenants is non-empty; thread-safe (one short-lived mutex,
/// never on the join/await hot path — only request entry/exit touch it).
class AdmissionController {
 public:
  struct Verdict {
    bool admitted = false;
    AdmissionCause cause = AdmissionCause::None;  ///< None iff admitted
  };

  /// Moment-in-time view of one tenant, for RuntimeSnapshot/SIGUSR1 dumps.
  struct TenantSnapshot {
    std::string name;
    std::size_t in_flight = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t released = 0;
    AdmissionCause last_shed_cause = AdmissionCause::None;
    bool in_cooldown = false;
    /// What try_admit would rule right now (None = would admit). Computed
    /// without committing: counters and cooldowns are not touched.
    AdmissionCause current_verdict = AdmissionCause::None;
  };

  /// `gate` receives every verdict (requests_* stats); `live_tasks` /
  /// `verifier_bytes` supply the shared-pressure signals; `rec` (nullable)
  /// receives AdmissionShed events.
  AdmissionController(std::vector<TenantBudget> tenants, core::JoinGate& gate,
                      std::function<std::size_t()> live_tasks,
                      std::function<std::size_t()> verifier_bytes,
                      obs::FlightRecorder* rec = nullptr);

  std::size_t tenant_count() const { return budgets_.size(); }
  /// Index of the tenant named `name`; throws UsageError when unknown.
  std::size_t tenant_index(std::string_view name) const;
  const TenantBudget& budget(std::size_t tenant) const;

  /// The admit/shed ruling. On admit the tenant's in-flight count is up by
  /// one and the caller MUST eventually call release(tenant) — completion,
  /// timeout and abandonment all count as release. Throws UsageError on a
  /// bad tenant index.
  Verdict try_admit(std::size_t tenant);

  /// try_admit, but a shed throws AdmissionRejected carrying the tenant
  /// name and the tripped budget.
  void admit_or_throw(std::size_t tenant);

  /// Returns an admitted request's in-flight slot. Throws UsageError when
  /// the tenant has no request in flight (a release/admit pairing bug).
  void release(std::size_t tenant);

  std::vector<TenantSnapshot> snapshot() const;

  /// Sheds across all tenants (cheap sum; tests and progress lines).
  std::uint64_t total_shed() const;

 private:
  struct State {
    std::size_t in_flight = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t released = 0;
    AdmissionCause last_shed_cause = AdmissionCause::None;
    /// Cooldown expiry; default-constructed (epoch) = no cooldown armed.
    std::chrono::steady_clock::time_point cooldown_until{};
  };

  /// The would-be ruling for `tenant` right now (pre: mu_ held).
  AdmissionCause evaluate_locked(std::size_t tenant,
                                 std::chrono::steady_clock::time_point now)
      const;

  const std::vector<TenantBudget> budgets_;
  core::JoinGate& gate_;
  const std::function<std::size_t()> live_tasks_;
  const std::function<std::size_t()> verifier_bytes_;
  obs::FlightRecorder* const rec_;  // not owned; nullptr ⇒ recording off

  mutable std::mutex mu_;
  std::vector<State> states_;  // guarded by mu_
};

}  // namespace tj::runtime
