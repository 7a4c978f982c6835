#pragma once
// Recovery supervisor: the runtime half of the optimistic (async-detection)
// mode. The core::AsyncDetector it owns finds and confirms deadlock cycles
// against the gate's live WFG; everything that requires runtime knowledge
// happens here — mapping confirmed cycle nodes back to blocked TaskBase
// waiters, choosing a victim (tenant-priority-aware, then youngest), breaking
// the victim's wait so DeadlockAvoidedError surfaces exactly where a
// synchronous policy would have thrown it (the request's retry loop then
// handles it — the PR-2 Backoff contract), and stepping the degradation
// ladder down to a synchronous level when the detector's latency budget is
// exhausted.
//
// The registry: every gate-approved blocking join/await in async mode
// brackets its wait with a RecoveryWaitGuard, which registers the waiter
// here. Registration is what makes a waiter *breakable* — the supervisor
// only ever posts wait-breaks to currently registered entries, under the
// registry mutex, so a break can never land on a task that already moved on
// (stale breaks are cleared at unregister, under the same mutex, making the
// post/clear pairing airtight).
//
// Victim selection is deterministic: among the confirmed cycle's registered
// members, restrict to each thread's *leaf* wait (the youngest entry per
// OS thread — under cooperative inlining one thread can hold several nested
// frames' waits, and only the leaf is actually parked; the functional-graph
// chain guarantees the leaf of any thread whose frame is a cycle member is
// itself a cycle member), then pick the lowest tenant recovery priority,
// breaking ties by the youngest task uid. Fixed seed ⇒ fixed victim.
//
// Accounting contract (tests assert it exactly): each confirmed cycle
// *incarnation* — identified by the exact set of (waiter uid, registry entry
// id) pairs, so the same tasks re-deadlocking after a retry is a new
// incident — is counted once into GateStats::cycles_recovered, keeping the
// async ledger  deadlock_incidents == deadlocks_averted + cycles_recovered.
// The detector re-reports a still-unbroken cycle on every scan; re-reports
// re-post + re-nudge (closing the check-then-park race) but never re-count.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/async_detect.hpp"
#include "core/guarded.hpp"
#include "core/ladder.hpp"
#include "obs/contention.hpp"

namespace tj::runtime {

class TaskBase;
namespace detail {
class PromiseStateBase;
}

/// Point-in-time recovery health for watchdog stall reports, introspection
/// snapshots, and telemetry.
struct RecoveryStatus {
  core::DetectorStatus detector;
  /// Wait-breaks installed; at least GateStats::cycles_recovered (the
  /// distinct incarnations broken), since unbroken cycles are re-posted.
  std::uint64_t breaks_posted = 0;
  std::size_t waits_registered = 0;  ///< breakable waits right now

  /// One recovered incident, newest last (bounded history).
  struct Incident {
    std::uint64_t victim = 0;     ///< task uid whose wait was broken
    std::uint64_t waited_on = 0;  ///< uid of the node the victim waited on
    bool on_promise = false;      ///< waited_on names a promise
    std::uint32_t cycle_len = 0;
    std::uint8_t tenant = 0;      ///< victim's tenant lane (index + 1; 0 none)
    std::uint64_t t_ns = 0;       ///< recorder timestamp of the break
  };
  std::vector<Incident> recent;
};

/// Owns the AsyncDetector and implements its sink. Constructed by the
/// Runtime only under PolicyChoice::Async (where the recorder is forced on).
class RecoverySupervisor final : public core::DetectorSink {
 public:
  /// `ladder` is the gate's degradation ladder (failover steps it down);
  /// `faults` may be nullptr. `tenant_priorities[i]` is tenant i's recovery
  /// priority (see TenantBudget::priority); unattributed waits rank lowest.
  RecoverySupervisor(const core::DetectorConfig& cfg, core::JoinGate& gate,
                     obs::FlightRecorder& rec, core::LadderVerifier* ladder,
                     core::DetectorFaultHooks* faults,
                     std::vector<std::uint32_t> tenant_priorities);
  ~RecoverySupervisor() override;
  RecoverySupervisor(const RecoverySupervisor&) = delete;
  RecoverySupervisor& operator=(const RecoverySupervisor&) = delete;

  void start() { detector_.start(); }
  /// Stops the detector (final drain included). Any still-broken waiters
  /// have already consumed their breaks or will at the next check.
  void stop() { detector_.stop(); }

  /// Registers a gate-approved blocking wait as breakable. Exactly one of
  /// `target_task` / `promise` is non-null (what the waiter parks on — the
  /// supervisor nudges it after posting a break). Returns the entry id the
  /// matching unregister_wait must pass back.
  std::uint64_t register_wait(TaskBase* waiter, TaskBase* target_task,
                              detail::PromiseStateBase* promise,
                              std::uint8_t tenant);

  /// Removes a breakable wait (however the wait ended) and clears any
  /// pending break so it cannot leak into the waiter's next wait. When the
  /// entry was broken, records the recovery latency (cycle formation → now)
  /// into the metrics `recovery_ns` histogram — the recovery_p99_ms SLO.
  void unregister_wait(std::uint64_t waiter_uid, std::uint64_t entry_id);

  /// True iff the detector failed over to a synchronous ladder level.
  bool failed_over() const { return detector_.failed_over(); }

  RecoveryStatus status() const;

  // ---- core::DetectorSink (called from the detector thread) ----
  void recover_cycle(const std::vector<wfg::NodeId>& cycle) override;
  void on_failover(obs::DetectorFailoverReason reason,
                   std::uint64_t backlog) override;

 private:
  struct WaitRecord {
    std::uint64_t uid = 0;  // waiter task uid (the registry key, repeated)
    TaskBase* waiter = nullptr;
    TaskBase* target_task = nullptr;            // null for awaits
    detail::PromiseStateBase* promise = nullptr;  // null for joins
    std::uint8_t tenant = 0;
    std::thread::id tid;        // OS thread parked (leaf-wait selection)
    std::uint64_t entry_id = 0;  // monotonic, never reused
    std::uint64_t since_ns = 0;  // recorder clock at registration
    bool broken = false;         // a break was posted at this entry
    std::uint64_t formation_ns = 0;  // cycle formation time when broken
  };

  /// A cycle incarnation: the sorted (uid, entry_id) pairs of its registered
  /// members. Same tasks, new waits ⇒ new key ⇒ new incident.
  using IncarnationKey = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

  std::uint32_t priority_of(std::uint8_t tenant) const {
    if (tenant == 0 || tenant > tenant_priorities_.size()) return 0;
    return tenant_priorities_[tenant - 1];
  }

  core::JoinGate& gate_;
  obs::FlightRecorder& rec_;
  core::LadderVerifier* const ladder_;  // not owned; may be nullptr (tests)
  const std::vector<std::uint32_t> tenant_priorities_;

  // Profiled ("recovery.registry"): every async-mode blocking wait
  // registers/unregisters here while the detector posts breaks.
  mutable obs::ProfiledMutex mu_{"recovery.registry"};
  std::unordered_map<std::uint64_t, WaitRecord> waits_;  // by waiter uid
  std::uint64_t next_entry_id_ = 1;                      // guarded by mu_
  std::set<IncarnationKey> counted_;                     // guarded by mu_
  std::vector<RecoveryStatus::Incident> recent_;  // ring, newest last
  std::atomic<std::uint64_t> breaks_posted_{0};

  core::AsyncDetector detector_;  // last: its thread may call back into us
};

/// RAII bracket for a breakable wait; tolerates a null supervisor (any
/// non-async mode) and a null waiter (external threads cannot be victims).
class RecoveryWaitGuard {
 public:
  RecoveryWaitGuard(RecoverySupervisor* sup, TaskBase* waiter,
                    TaskBase* target_task, detail::PromiseStateBase* promise,
                    std::uint8_t tenant);
  ~RecoveryWaitGuard();
  RecoveryWaitGuard(const RecoveryWaitGuard&) = delete;
  RecoveryWaitGuard& operator=(const RecoveryWaitGuard&) = delete;

 private:
  RecoverySupervisor* sup_;
  std::uint64_t waiter_uid_ = 0;
  std::uint64_t entry_id_ = 0;
};

}  // namespace tj::runtime
