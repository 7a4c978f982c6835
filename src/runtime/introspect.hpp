#pragma once
// Live runtime introspection: an on-demand snapshot of the deadlock-
// avoidance machinery mid-run — what the WFG currently believes, which
// ladder level is ruling, what the governor last measured, every counter,
// the recent rejection witnesses, and each currently-blocked wait with its
// last recorded events. Capturing a snapshot never stops the world: every
// source is either atomic or guarded by its own short-lived lock, so the
// result is a moment-in-time cut (fields may be skewed by in-flight
// operations), which is exactly what a stuck-process diagnosis needs.
//
// Two triggers are provided on top of the direct snapshot() call: an
// IntrospectionHook, polled on the runtime's housekeeping thread, whose
// request() is safe from any context, and a SIGUSR-style process signal
// routed to the most recently armed hook (`kill -USR1 <pid>` dumps the
// snapshot to stderr).

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/guarded.hpp"
#include "core/policy_ids.hpp"
#include "core/witness.hpp"
#include "obs/contention.hpp"
#include "obs/metrics.hpp"
#include "runtime/governor.hpp"
#include "runtime/housekeeper.hpp"
#include "runtime/recovery.hpp"
#include "wfg/waits_for_graph.hpp"

namespace tj::runtime {

class Runtime;

struct RuntimeSnapshot {
  // --- policy / degradation ladder ---
  core::PolicyChoice configured = core::PolicyChoice::None;
  core::PolicyChoice active = core::PolicyChoice::None;
  bool ladder_attached = false;
  std::size_t ladder_level = 0;   ///< 0 = configured policy
  std::size_t ladder_levels = 1;  ///< total rungs (1 when no ladder)
  std::string degradation_history;  ///< governor transitions, "" when none

  // --- counters ---
  std::uint64_t tasks_created = 0;
  std::uint64_t promises_made = 0;
  std::size_t live_tasks = 0;
  core::GateStats gate;
  std::size_t verifier_bytes = 0;
  std::size_t owp_bytes = 0;

  // --- waits-for graph ---
  std::vector<wfg::WaitsForGraph::EdgeView> wfg_edges;

  // --- resource governor ---
  bool governor_attached = false;
  bool governor_pressure = false;
  ResourceGovernor::Snapshot governor;

  // --- per-tenant admission control (service mode) ---
  bool admission_attached = false;
  std::vector<AdmissionController::TenantSnapshot> tenants;
  std::uint64_t requests_shed_total = 0;

  // --- rejection provenance ---
  std::vector<core::Witness> witnesses;  ///< gate's recent ring, oldest first
  std::uint64_t witnesses_dropped = 0;

  // --- blocked waits (needs the watchdog; its bookkeeping is the only
  // runtime-wide registry of who is blocked on what right now) ---
  bool watchdog_attached = false;
  std::uint64_t watchdog_stalls = 0;  ///< stall batches reported so far
  std::uint64_t watchdog_cycles = 0;  ///< cycles found by on-demand scans
  struct BlockedWait {
    std::uint64_t waiter = 0;
    std::uint64_t target = 0;
    bool on_promise = false;
    std::string verdict;
    std::uint64_t blocked_ms = 0;
    /// Last flight-recorder events naming the waiter (formatted, oldest
    /// first); empty when the recorder is off.
    std::vector<std::string> recent_events;
  };
  std::vector<BlockedWait> blocked;

  // --- flight recorder ---
  bool recorder_attached = false;
  std::uint64_t obs_events = 0;
  std::uint64_t obs_dropped = 0;
  obs::Counters counters;  ///< the metrics registry's counters

  // --- contention observatory ---
  /// True while lock/worker profiling was enabled at capture time. The
  /// registry is process-global and cumulative; when profiling never ran
  /// it is empty (registry-inert contract).
  bool contention_enabled = false;
  std::vector<obs::SiteSnapshot> lock_sites;
  /// Worker-state census + cumulative timelines from this runtime's
  /// scheduler (zeros when profiling never ran).
  obs::WorkerStateBoard::Totals workers;

  // --- async detection / recovery (PolicyChoice::Async only) ---
  bool recovery_attached = false;
  RecoveryStatus recovery;

  /// Multi-line human-readable dump (the hooks' default sink).
  std::string to_string() const;
};

/// Captures a snapshot of `rt`. Safe to call mid-run from any thread,
/// including concurrently with joins, downgrades, and faults.
RuntimeSnapshot snapshot(const Runtime& rt);

/// A polling trigger: request() (async-signal-safe after construction: one
/// relaxed atomic store) makes the next poll — every 50 ms on the runtime's
/// housekeeping thread — capture a snapshot and hand it to the sink, stderr
/// text when no sink is given. The most recently constructed hook is also
/// the process-wide signal target. A hook must not outlive its runtime.
class IntrospectionHook {
 public:
  using Sink = std::function<void(const RuntimeSnapshot&)>;

  explicit IntrospectionHook(const Runtime& rt, Sink sink = {});
  ~IntrospectionHook();  // cancels the poll, waiting out one in flight
  IntrospectionHook(const IntrospectionHook&) = delete;
  IntrospectionHook& operator=(const IntrospectionHook&) = delete;

  /// Arms the next poll to dump. Async-signal-safe.
  void request() { want_.store(true, std::memory_order_relaxed); }

  /// Flags the most recently constructed live hook (async-signal-safe).
  /// False when no hook is armed.
  static bool request_current();

  /// Installs a SIGUSR1 handler (where the platform has one) that routes to
  /// request_current(). Returns false when the platform lacks SIGUSR1.
  static bool install_signal_handler();

 private:
  void poll();

  const Runtime& rt_;
  Sink sink_;
  std::atomic<bool> want_{false};
  Housekeeper::Id timer_ = 0;
};

}  // namespace tj::runtime
