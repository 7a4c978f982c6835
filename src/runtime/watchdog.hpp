#pragma once
// Join watchdog: a stall detector for the waits the avoidance policy
// *admitted*. The policies guarantee no join closes a waits-for cycle, but a
// join can still block forever for reasons outside the policy's model — a
// target stuck on external I/O, a lost wakeup, a livelocked peer. The
// watchdog samples the set of currently-blocked joins/awaits, and when one
// has been blocked past the configured threshold it runs an on-demand WFG
// cycle scan and hands a diagnostic report (blocked task uids, join targets,
// the gate verdict that admitted each join, any cycles found) to a
// configurable callback.
//
// Cost model: when disabled (the default) the runtime never touches the
// watchdog — joins pay nothing. When enabled, a blocking join costs one
// mutex-guarded map insert/erase, and the housekeeper polls every poll_ms.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace tj::core {
class JoinGate;
}

namespace tj::obs {
class FlightRecorder;
}

namespace tj::runtime {

class ResourceGovernor;
class RecoverySupervisor;

/// What the watchdog saw when it found stalled joins.
struct StallReport {
  struct BlockedJoin {
    std::uint64_t waiter = 0;   ///< blocked task uid
    std::uint64_t target = 0;   ///< joined task uid, or promise uid
    bool on_promise = false;    ///< true: an await, target is a promise uid
    const char* verdict = "";   ///< gate verdict that admitted the wait
    std::chrono::milliseconds blocked_for{0};
    /// Last recorded flight-recorder events naming the waiter or (for task
    /// joins) the target, formatted one per entry. Empty when the flight
    /// recorder is off.
    std::vector<std::string> recent_events;
  };
  /// ACTIVE join policy (core::to_string of the PolicyChoice) and its raw
  /// enum value — which verifier's verdicts admitted the stalled waits.
  /// Under a governor this is the current (possibly downgraded) ladder
  /// level, not the configured policy.
  std::string policy_name;
  std::uint8_t policy_id = 0;
  /// Degradation ladder level at report time (0 = configured policy; only
  /// meaningful when a governor is attached).
  std::uint32_t degradation_level = 0;
  /// Comma-joined governor transition history ("tj-gt->tj-sp@12ms(bytes)");
  /// empty when no governor is attached or nothing degraded yet.
  std::string degradation_history;
  std::vector<BlockedJoin> stalled;
  /// Task-level waits-for cycles found by the on-demand scan (normally
  /// empty: the policies prevent them; non-empty means the stall is a
  /// genuine deadlock the gate could not see, e.g. through external locks —
  /// or, in async mode, one the detector has confirmed but not yet broken).
  std::vector<std::vector<std::uint64_t>> cycles;
  /// Async (optimistic) mode context: whether the background detector is
  /// still trusted, how far behind the event stream it is, and what it has
  /// recovered so far. All-default when no recovery supervisor is attached.
  bool async_mode = false;
  bool detector_running = false;
  bool detector_failed_over = false;
  std::uint64_t detector_lag_events = 0;
  std::uint64_t detector_events_lost = 0;
  std::uint64_t cycles_recovered = 0;
  /// Recent recovery incidents, formatted one per entry ("victim 12 ...").
  std::vector<std::string> recovery_history;

  std::string to_string() const;
};

/// Watchdog knobs (embedded in runtime::Config).
struct WatchdogConfig {
  bool enabled = false;
  std::uint32_t poll_ms = 50;    ///< sampling cadence
  std::uint32_t stall_ms = 500;  ///< blocked longer than this ⇒ stalled
  /// Invoked for each newly stalled join batch on the runtime's shared
  /// housekeeping thread, so it must not block on task progress. Default
  /// (nullptr): write report.to_string() to stderr.
  std::function<void(const StallReport&)> on_stall;
};

/// The sampler. Owned by the Runtime when cfg.watchdog.enabled.
class JoinWatchdog {
 public:
  /// `rec` (may be nullptr) lets stall reports quote the last recorded
  /// events of each stalled waiter/target, and mirrors every reported batch
  /// into the event stream (EventKind::WatchdogStall). `governor` (may be
  /// nullptr) lets reports name the current degradation level and the
  /// transition history that led to it. `recovery` (may be nullptr) lets
  /// async-mode reports name the detector's health — lag, failover state,
  /// recovery history — so a stall under optimistic verification is
  /// attributable to a lagging/abandoned detector at a glance.
  JoinWatchdog(WatchdogConfig cfg, const core::JoinGate& gate,
               obs::FlightRecorder* rec = nullptr,
               const ResourceGovernor* governor = nullptr,
               const RecoverySupervisor* recovery = nullptr);
  JoinWatchdog(const JoinWatchdog&) = delete;
  JoinWatchdog& operator=(const JoinWatchdog&) = delete;

  /// Records that `waiter` is about to block (join on a task, or await on a
  /// promise when `on_promise`). `verdict` must be a string literal.
  void blocked(std::uint64_t waiter, std::uint64_t target, bool on_promise,
               const char* verdict);

  /// Removes the record (the wait ended, however it ended).
  void unblocked(std::uint64_t waiter);

  /// Reports the waits newly blocked past stall_ms as one batch; the
  /// housekeeping thread calls this every poll_ms.
  void poll_now();

  /// Stall batches reported so far (each batch = one callback invocation).
  std::uint64_t stalls_reported() const;

  /// Total waits-for cycles found by on-demand stall scans across all
  /// reports — the `watchdog_cycles` signal the SLO evaluator gates on
  /// (nonzero means a genuine deadlock slipped past the policy's model).
  std::uint64_t cycles_found() const {
    return cycles_found_.load(std::memory_order_relaxed);
  }

  /// Moment-in-time view of the currently-blocked admitted waits (for
  /// introspection snapshots; the stall path has its own reporting).
  struct BlockedWait {
    std::uint64_t waiter = 0;
    std::uint64_t target = 0;
    bool on_promise = false;
    const char* verdict = "";
    std::chrono::milliseconds blocked_for{0};
  };
  std::vector<BlockedWait> blocked_now() const;

 private:
  struct Entry {
    std::uint64_t target;
    bool on_promise;
    const char* verdict;
    std::chrono::steady_clock::time_point since;
    bool reported = false;  // each stalled join is reported once
  };

  const WatchdogConfig cfg_;
  const core::JoinGate& gate_;
  obs::FlightRecorder* const rec_;  // not owned; nullptr ⇒ recording off
  const ResourceGovernor* const governor_;  // not owned; may be nullptr
  const RecoverySupervisor* const recovery_;  // not owned; may be nullptr

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> blocked_;  // guarded by mu_
  std::uint64_t stalls_reported_ = 0;                 // guarded by mu_
  std::atomic<std::uint64_t> cycles_found_{0};
};

/// RAII bracket for a blocking wait; tolerates a null watchdog (disabled).
class WatchdogBlockGuard {
 public:
  WatchdogBlockGuard(JoinWatchdog* wd, std::uint64_t waiter,
                     std::uint64_t target, bool on_promise,
                     const char* verdict)
      : wd_(wd), waiter_(waiter) {
    if (wd_ != nullptr) wd_->blocked(waiter, target, on_promise, verdict);
  }
  ~WatchdogBlockGuard() {
    if (wd_ != nullptr) wd_->unblocked(waiter_);
  }
  WatchdogBlockGuard(const WatchdogBlockGuard&) = delete;
  WatchdogBlockGuard& operator=(const WatchdogBlockGuard&) = delete;

 private:
  JoinWatchdog* wd_;
  std::uint64_t waiter_;
};

}  // namespace tj::runtime
