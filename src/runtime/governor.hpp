#pragma once
// ResourceGovernor: the runtime's overload-response loop. Run every poll_ms
// on the runtime's housekeeping thread, poll_now() checks the footprint of
// the verification machinery — live verifier state bytes/nodes, waits-for-
// graph size, live tasks, and the rolling p99 policy-check latency from the
// obs metrics registry — against the budgets in GovernorConfig. When a
// budget stays tripped for `trip_polls` consecutive samples (hysteresis:
// transient spikes do not flap the policy), the governor responds in
// escalating order:
//
//   1. If the active ladder level is KJ-VC and its epoch GC is not yet on,
//      enable it and give the compactor a full trip window to relieve the
//      pressure before anything else (Table 1's KJ-VC space blow-up often
//      only needs dead components reclaimed, not a policy change).
//   2. Otherwise step the degradation ladder down one level
//      (LadderVerifier::downgrade) — e.g. TJ-GT → TJ-SP → WFG-only — and
//      enter a cooldown of `cooldown_polls` samples so successive levels get
//      a chance to absorb the load before the next step.
//
// Every response is recorded in the transition history (surfaced in watchdog
// StallReports), mirrored as an obs event (PolicyDowngrade / KjGcEnabled)
// and a metrics counter. Downgrades are monotone: the ladder never climbs
// back up (see core/ladder.hpp for why this is the sound direction);
// "recovery" means pressure subsides and the governor simply stops stepping.
//
// Admission control (the spawn-inline watermark) and deadline joins are
// enforced inline by the runtime — the governor's polling is not on any
// hot path, and a join's only governance cost is the one relaxed load the
// ladder's kind()/permits_join routing already pays.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/ladder.hpp"
#include "obs/recorder.hpp"
#include "runtime/admission.hpp"
#include "wfg/waits_for_graph.hpp"

namespace tj::runtime {

/// Governance knobs (embedded in runtime::Config). A budget of 0 means
/// "unlimited" — with all budgets 0 polling only snapshots.
struct GovernorConfig {
  bool enabled = false;
  std::uint32_t poll_ms = 5;  ///< sampling cadence

  // Budgets; 0 = unlimited.
  std::size_t max_verifier_bytes = 0;  ///< policy state footprint (bytes)
  std::size_t max_verifier_nodes = 0;  ///< live policy nodes
  std::size_t max_wfg_edges = 0;       ///< registered wait edges
  std::uint64_t max_policy_check_p99_ns = 0;  ///< needs obs enabled to feed it

  // Hysteresis.
  std::uint32_t trip_polls = 3;      ///< consecutive over-budget samples to act
  std::uint32_t cooldown_polls = 8;  ///< quiet samples after acting

  /// Spawn backpressure: past this many live tasks, async() runs the child
  /// inline in the caller instead of growing the queue/pool. 0 = off.
  ///
  /// Contract: this watermark is enforced by the runtime at EVERY spawn
  /// whenever it is non-zero — independently of `enabled`, which gates only
  /// the background polling (downgrades / GC / snapshots). It is rung 2
  /// of the service's admission ladder (docs/robustness.md): per-tenant
  /// shedding at the front door, then spawn backpressure, then policy
  /// downgrade. Regression-tested by
  /// test_admission.GovernorOffBackpressureStillEnforced.
  std::size_t spawn_inline_watermark = 0;

  /// Per-tenant admission budgets. Non-empty ⇒ the runtime constructs an
  /// AdmissionController (Runtime::admission()) that sheds requests at the
  /// front door before any task is spawned. Like spawn_inline_watermark,
  /// this is inline machinery enforced regardless of `enabled`.
  std::vector<TenantBudget> tenants;
};

class ResourceGovernor {
 public:
  /// One sampled footprint reading.
  struct Snapshot {
    std::size_t verifier_bytes = 0;
    std::size_t verifier_nodes = 0;
    std::size_t wfg_edges = 0;
    std::size_t live_tasks = 0;
    std::uint64_t policy_check_p99_ns = 0;
  };

  /// One governance action (downgrade or GC enablement), timestamped with
  /// steady-clock ns since governor construction.
  struct Transition {
    std::uint64_t t_ns = 0;
    std::size_t from_level = 0;
    std::size_t to_level = 0;
    core::PolicyChoice from = core::PolicyChoice::None;
    core::PolicyChoice to = core::PolicyChoice::None;
    std::string reason;  ///< which budget tripped / "kj-gc"

    std::string to_string() const;
  };

  /// `ladder` may be nullptr (policy None/CycleOnly: nothing to degrade —
  /// the governor still samples, for the snapshot/diagnostics surface).
  /// `live_tasks` supplies the scheduler's live-task count; `rec` (nullable)
  /// feeds the p99 budget and receives events/counters.
  ResourceGovernor(GovernorConfig cfg, core::LadderVerifier* ladder,
                   const wfg::WaitsForGraph* wfg,
                   std::function<std::size_t()> live_tasks,
                   obs::FlightRecorder* rec = nullptr);
  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  /// Samples and evaluates once — the housekeeping thread calls this every
  /// poll_ms; tests call it directly (with a large poll_ms, so calls never
  /// overlap).
  void poll_now();

  Snapshot snapshot() const;

  /// Budget trip state of the most recent poll.
  bool under_pressure() const {
    return pressure_.load(std::memory_order_relaxed);
  }
  std::uint64_t polls() const { return polls_.load(std::memory_order_relaxed); }

  /// The ladder's current level (0 when no ladder exists).
  std::size_t level() const {
    return ladder_ != nullptr ? ladder_->level() : 0;
  }

  std::vector<Transition> transitions() const;
  /// "tj-gt->tj-sp@12ms(bytes); ..." — compact history for stall reports.
  std::string history_string() const;

 private:
  void act(const std::string& reason);
  void record_transition(Transition t, obs::EventKind kind);

  const GovernorConfig cfg_;
  core::LadderVerifier* const ladder_;   // not owned; may be nullptr
  const wfg::WaitsForGraph* const wfg_;  // not owned
  const std::function<std::size_t()> live_tasks_;
  obs::FlightRecorder* const rec_;  // not owned; nullptr ⇒ recording off
  const std::chrono::steady_clock::time_point epoch_;

  std::atomic<bool> pressure_{false};
  std::atomic<std::uint64_t> polls_{0};
  std::uint32_t consecutive_ = 0;          // poll_now() only
  std::uint32_t cooldown_left_ = 0;        // poll_now() only
  std::uint64_t kj_compactions_seen_ = 0;  // poll_now() only

  mutable std::mutex mu_;
  std::vector<Transition> transitions_;  // guarded by mu_
};

}  // namespace tj::runtime
