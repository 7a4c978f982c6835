#pragma once
// Flight-recorder events. One fixed-size POD per runtime occurrence:
// structural events (spawn/join/fulfill/... — these map 1:1 onto the offline
// trace actions of Def. 3.1, see obs/replay_bridge.hpp), gate verdicts
// (every JoinDecision/FulfillDecision with the ruling policy id), fallback
// cycle scans with their duration, scheduler and fault-injection incidents,
// and watchdog stall reports. Events carry a global sequence number (their
// total order — timestamps from different threads are not comparable at ns
// resolution) and a nanosecond timestamp relative to the recorder's epoch.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace tj::obs {

enum class EventKind : std::uint8_t {
  // --- structural events: map onto offline trace actions (Def. 3.1) ---
  TaskInit,         ///< root task registered        → init(actor)
  TaskSpawn,        ///< actor forked target         → fork(actor, target)
  JoinComplete,     ///< actor's join on target done → join(actor, target)
  PromiseMake,      ///< actor made promise target   → make(actor, p:target)
  PromiseFulfill,   ///< actor fulfilled p:target    → fulfill(actor, p:target)
  PromiseTransfer,  ///< actor gave p:payload to target → transfer(a,b,p)
  AwaitComplete,    ///< actor's await on p:target done → await(actor, p)

  // --- task lifecycle / scheduler ---
  TaskStart,        ///< actor's body began executing (payload: worker flag)
  TaskEnd,          ///< actor's body finished (detail: 1 iff it faulted)
  SchedInline,      ///< cooperative help: actor inlined queued task target
  SchedCompensate,  ///< pool grew a compensation worker (payload: pool size)
  WorkerDeath,      ///< injected worker death at a task boundary

  // --- join gate ---
  JoinVerdict,      ///< gate ruled on actor join target (detail: JoinDecision)
  AwaitVerdict,     ///< gate ruled on actor await p:target (detail: JoinDecision)
  FulfillVerdict,   ///< gate ruled on actor fulfill p:target (detail: FulfillDecision)
  CycleScan,        ///< WFG fallback scan for actor→target (payload: ns;
                    ///< detail: 1 iff a cycle was found)
  JoinBlocked,      ///< actor's join on target blocked (payload: ns blocked)
  AwaitBlocked,     ///< actor's await on p:target blocked (payload: ns)

  // --- robustness layers ---
  BarrierPhase,     ///< actor completed barrier target's phase payload
  CancelAll,        ///< runtime root scope cancelled (actor: requester, if any)
  FaultInjected,    ///< fault plan fired (detail: InjectedFault site)
  WatchdogStall,    ///< watchdog reported a stall batch (payload: batch size)

  // --- resource governance ---
  PolicyDowngrade,  ///< governor stepped the degradation ladder (policy: new
                    ///< active PolicyChoice; detail: previous PolicyChoice;
                    ///< payload: new level index)
  KjGcEnabled,      ///< governor enabled KJ-VC epoch GC under memory pressure
  SpawnInlined,     ///< backpressure: actor ran child target inline at spawn
                    ///< (payload: live tasks at the decision)
  JoinTimeout,      ///< actor's join_for/get_for on target expired
                    ///< (payload: timeout ns; kFlagPromise unused — futures only)
  VerdictExplained, ///< a rejection's provenance witness was captured (policy:
                    ///< Witness::policy; detail: WitnessKind; payload: chain
                    ///< length; kFlagPromise mirrors Witness::on_promise)

  // --- per-tenant admission control ---
  AdmissionShed,    ///< a request was shed at the front door (actor: tenant
                    ///< index; detail: AdmissionCause; payload: tenant
                    ///< in-flight count at the decision). Admits are counted
                    ///< (gate requests_admitted) but not per-event
                    ///< recorded — they are the service's common case.

  // --- async detection / bounded-latency recovery ---
  CycleRecovered,   ///< detector broke a confirmed cycle (actor: victim uid;
                    ///< target: node the victim waited on; payload: cycle
                    ///< length; detail: victim's tenant lane)
  DetectorLag,      ///< consumption watermark fell behind (payload: backlog
                    ///< events; target: events lost so far — ring drops plus
                    ///< injected batch drops)
  DetectorFailover, ///< lag/drop/death budget exhausted: the runtime stepped
                    ///< the ladder to a synchronous level (payload: backlog
                    ///< at the decision; detail: DetectorFailoverReason)

  // --- contention observatory ---
  WorkerSample,     ///< telemetry tick: worker-state census (payload packs
                    ///< the per-state worker counts, 12 bits per state in
                    ///< WorkerState order; actor: total workers). Rendered
                    ///< as Chrome counter tracks by export_chrome.
};

/// Why the async detector failed over (Event::detail for DetectorFailover).
enum class DetectorFailoverReason : std::uint8_t {
  Lag,    ///< consumption backlog exceeded the lag budget
  Drops,  ///< events lost (ring overflow or injected drop) past the budget
  Death,  ///< detector thread died more times than max_respawns tolerates
};

/// Which fault-injection site fired (Event::detail for FaultInjected).
enum class InjectedFault : std::uint8_t {
  JoinRejection,
  AwaitRejection,
  DroppedWakeup,
  DetectorDelay,  ///< detector consumption stalled for an injected interval
  DetectorDrop,   ///< detector discarded one consumed batch unapplied
  DetectorDeath,  ///< detector thread killed (the supervisor respawns it)
};

/// Set in Event::flags when `target` (and transfer's `payload`) names a
/// promise uid rather than a task uid.
inline constexpr std::uint8_t kFlagPromise = 1;

struct Event {
  std::uint64_t seq = 0;      ///< global total order (recorder-assigned)
  std::uint64_t t_ns = 0;     ///< ns since recorder epoch (recorder-assigned)
  std::uint64_t actor = 0;    ///< acting task uid (worker index for pool events)
  std::uint64_t target = 0;   ///< join target / forked child / promise uid
  std::uint64_t payload = 0;  ///< durations (ns), phase numbers, pool sizes
  /// Request span this event belongs to; 0 = unattributed (no RequestScope
  /// was installed on the emitting thread/task). Stamped by emit() from the
  /// thread-local RequestContext unless the site set it explicitly.
  std::uint64_t request = 0;
  EventKind kind = EventKind::TaskInit;
  std::uint8_t policy = 0;    ///< core::PolicyChoice of the ruling verifier
  std::uint8_t detail = 0;    ///< verdict / fault-site enum value
  std::uint8_t flags = 0;     ///< kFlagPromise etc.
  /// Tenant lane: 0 = none, else admission tenant index + 1 (so a zero-
  /// initialized event stays unattributed). Stamped like `request`.
  std::uint8_t tenant = 0;
};

/// Thread-local request attribution: which request (and tenant) the current
/// thread is working for. The runtime installs it around every task body
/// from the task's inherited context; services install it explicitly at
/// submission via RequestScope. Lives in the obs layer so the recorder can
/// stamp events without depending on runtime headers.
struct RequestContext {
  std::uint64_t request = 0;  ///< 0 = no request
  std::uint8_t tenant = 0;    ///< 0 = none, else tenant index + 1
};

/// This thread's current request context (mutable reference).
RequestContext& tls_request_context() noexcept;

/// RAII override of the thread-local request context. Install one around a
/// request's submission (spawn + admission check) and every task spawned
/// under it inherits the ids; destruction restores the previous context.
class RequestScope {
 public:
  RequestScope(std::uint64_t request, std::uint8_t tenant) noexcept
      : prev_(tls_request_context()) {
    tls_request_context() = RequestContext{request, tenant};
  }
  ~RequestScope() { tls_request_context() = prev_; }
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  RequestContext prev_;
};

/// True for the events replay_bridge turns into offline trace actions.
constexpr bool is_structural(EventKind k) {
  return k == EventKind::TaskInit || k == EventKind::TaskSpawn ||
         k == EventKind::JoinComplete || k == EventKind::PromiseMake ||
         k == EventKind::PromiseFulfill || k == EventKind::PromiseTransfer ||
         k == EventKind::AwaitComplete;
}

std::string_view to_string(EventKind k);

/// One human-readable line: "[seq @t_ns] kind actor→target (detail...)".
std::string to_string(const Event& e);

std::ostream& operator<<(std::ostream& os, const Event& e);

}  // namespace tj::obs
