#pragma once
// JoinGate: composes a conservative policy verifier with the waits-for-graph
// fallback, reproducing the paper's evaluation setup (Sec. 6): "if the given
// policy flags a join as invalid, general cycle detection is invoked to
// determine if the join would truly create a deadlock or if it is just a
// false positive" — sound *and* precise as implemented.

// Promises route through the same composition (the follow-up paper's
// Ownership Policy): OWP rejections on awaits fall back to the WFG exactly
// like TJ rejections on joins, and the WFG's persistent owner edges make
// mixed future/promise cycles visible to either side's fallback.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "core/owp.hpp"
#include "core/verifier.hpp"
#include "obs/contention.hpp"
#include "obs/recorder.hpp"
#include "wfg/waits_for_graph.hpp"

namespace tj::core {

/// What a join attempt may do after the gate has ruled.
enum class JoinDecision : std::uint8_t {
  Proceed,               ///< policy-approved
  ProceedFalsePositive,  ///< policy rejected; cycle detection cleared it
  FaultPolicy,           ///< policy rejected and FaultMode::Throw is active
  FaultDeadlock,         ///< blocking would truly deadlock (WFG cycle)
};

constexpr bool is_fault(JoinDecision d) {
  return d == JoinDecision::FaultPolicy || d == JoinDecision::FaultDeadlock;
}

/// How a policy rejection is handled.
enum class FaultMode : std::uint8_t {
  Fallback,  ///< consult cycle detection; fault only on a real cycle
  Throw,     ///< fault immediately on any policy rejection (policy-only mode)
};

/// The gate's counter table: one X(name, help) entry per GateStats field,
/// in declaration order. The GateStats fields, the JoinGate atomics,
/// operator+=/-=, JoinGate::stats() and for_each_field() all expand it, and
/// every exporter walks for_each_field(), so a counter is named only here.
/// W marks cycle_checks, which the waits-for graph counts itself: it is a
/// GateStats field but not a gate atomic.
///
/// The ledgers these counters keep exact:
///  - rejections (reconciles()): every policy/OWP rejection was cleared by
///    the fallback or was a genuinely averted deadlock. deadlocks_averted
///    also counts cycles caught on an edge the policy/OWP had APPROVED (an
///    allowed wait closed the cycle, or a transfer's retarget would have);
///    deadlocks_averted_approved is that share.
///  - admission (zero unless per-tenant budgets are wired, see
///    runtime/admission.hpp): requests_checked == requests_admitted +
///    requests_shed.
///  - async recovery: cycles_recovered counts cycles the background detector
///    confirmed against this gate's WFG and broke by killing a victim —
///    deadlocks that formed BECAUSE the optimistic mode approved without
///    checking. Disjoint from deadlocks_averted (synchronous pre-block
///    faults), so deadlock_incidents == deadlocks_averted + cycles_recovered,
///    and the rejection identity is untouched: it rejects nothing.
#define TJ_GATE_STATS(X, W)                                                  \
  X(joins_checked, "gate join verdicts")                                     \
  X(policy_rejections, "joins the policy flagged")                           \
  X(false_positives, "policy rejections the WFG fallback cleared")           \
  X(deadlocks_averted, "joins and awaits faulted on a real cycle")           \
  X(deadlocks_averted_approved,                                              \
    "averted deadlocks closed by a policy-approved edge")                    \
  W(cycle_checks, "WFG fallback scans")                                      \
  X(awaits_checked, "gate await verdicts")                                   \
  X(owp_rejections, "awaits and joins the ownership policy flagged")         \
  X(owp_false_positives, "ownership rejections the WFG fallback cleared")    \
  X(ownership_violations, "non-owner fulfill or transfer attempts")          \
  X(promises_orphaned, "promises orphaned by their owner's exit")           \
  X(requests_checked, "admission verdicts")                                  \
  X(requests_admitted, "requests admitted")                                  \
  X(requests_shed, "requests shed")                                          \
  X(cycles_recovered, "async-mode deadlock cycles broken by recovery")

/// Counters mirrored from the evaluation's discussion (see TJ_GATE_STATS).
struct GateStats {
#define TJ_GATE_FIELD(name, help) std::uint64_t name = 0;
  TJ_GATE_STATS(TJ_GATE_FIELD, TJ_GATE_FIELD)
#undef TJ_GATE_FIELD

  /// The exact rejection identity: every rejection was either cleared by
  /// the fallback or a genuinely averted deadlock.
  bool reconciles() const {
    return policy_rejections + owp_rejections ==
           false_positives + owp_false_positives +
               (deadlocks_averted - deadlocks_averted_approved);
  }
};

/// Visits f(name, value, help) for every GateStats field in table order;
/// `value` is a reference into `s`, so a non-const `s` can be filled.
template <typename Stats, typename F>
  requires std::is_same_v<std::remove_const_t<Stats>, GateStats>
void for_each_field(Stats& s, F&& f) {
#define TJ_GATE_VISIT(name, help) f(#name, s.name, help);
  TJ_GATE_STATS(TJ_GATE_VISIT, TJ_GATE_VISIT)
#undef TJ_GATE_VISIT
}

/// Field-complete accumulation (harness aggregation across reps, test
/// assertions) and difference (telemetry's per-tick deltas).
inline GateStats& operator+=(GateStats& acc, const GateStats& s) {
#define TJ_GATE_ADD(name, help) acc.name += s.name;
  TJ_GATE_STATS(TJ_GATE_ADD, TJ_GATE_ADD)
#undef TJ_GATE_ADD
  return acc;
}
inline GateStats& operator-=(GateStats& acc, const GateStats& s) {
#define TJ_GATE_SUB(name, help) acc.name -= s.name;
  TJ_GATE_STATS(TJ_GATE_SUB, TJ_GATE_SUB)
#undef TJ_GATE_SUB
  return acc;
}

/// "name=value" for every field, space-separated (diagnostics, snapshots).
std::string to_string(const GateStats& s);

/// Gate ruling on a fulfill attempt.
enum class FulfillDecision : std::uint8_t {
  Proceed,         ///< fulfill may commit
  FaultNotOwner,   ///< ownership violation under FaultMode::Throw
  AlreadySettled,  ///< promise already fulfilled or orphaned (usage error)
};

/// Seam for the deterministic fault-injection layer (testing only; see
/// runtime/fault_injection.hpp). When wired, the gate consults it on every
/// join/await ruling and may flip an approved verdict into a *spurious*
/// policy rejection — which then flows through the ordinary rejection
/// accounting and fallback machinery, so injected rejections are
/// indistinguishable from real ones to everything downstream (including the
/// stats reconciliation `rejections == false_positives + deadlocks_averted`).
class GateFaultHooks {
 public:
  virtual ~GateFaultHooks() = default;
  /// True ⇒ treat the current (policy-approved) join as a policy rejection.
  virtual bool inject_join_rejection() noexcept = 0;
  /// True ⇒ treat the current (OWP-approved) await as an OWP rejection.
  virtual bool inject_await_rejection() noexcept = 0;
};

/// Gate ruling on an ownership transfer.
enum class TransferDecision : std::uint8_t {
  Ok,
  OrphanedReceiverDead,  ///< transfer landed on a task that died meanwhile;
                         ///< the promise is now orphaned — propagate it
  FaultNotOwner,         ///< caller does not own the promise
  FaultWouldDeadlock,    ///< new owner transitively waits on this promise
  FaultSettled,          ///< promise already fulfilled or orphaned
  FaultTargetDead,       ///< receiving task already terminated
};

class JoinGate {
 public:
  /// `verifier` may be nullptr for PolicyChoice::None (every join approved
  /// unchecked) and CycleOnly (every join cycle-checked). `owp` may be
  /// nullptr (PromisePolicy::Unverified): promise operations are then
  /// recorded but never checked.
  /// `hooks` may be nullptr (no fault injection — the production setup).
  /// `rec` may be nullptr (flight recording off — the default): every
  /// instrumentation site then costs exactly one null-pointer branch.
  JoinGate(PolicyChoice kind, Verifier* verifier, FaultMode mode,
           OwpVerifier* owp = nullptr, GateFaultHooks* hooks = nullptr,
           obs::FlightRecorder* rec = nullptr);

  /// Rules on a join (waiter → target). Unless the target has already
  /// terminated (`target_done`, which cannot deadlock) or the verdict is a
  /// fault, the wait edge is registered so later checks can see it. On a
  /// Proceed* verdict the caller MUST eventually call leave_join().
  /// The policy-state pointers may be nullptr when no verifier is active.
  /// When `why` is non-null, any ruling other than a plain approval fills it
  /// with the rejection's provenance (see core/witness.hpp) — cold path only;
  /// approvals never touch it.
  JoinDecision enter_join(wfg::NodeId waiter, wfg::NodeId target,
                          PolicyNode* waiter_state,
                          const PolicyNode* target_state, bool target_done,
                          Witness* why = nullptr);

  /// Unregisters the wait edge and applies the policy's join rule (KJ-learn)
  /// plus, when promises are live, the OWP's obligation edge.
  /// `completed` is false when the join was abandoned (e.g. an exception).
  void leave_join(wfg::NodeId waiter, wfg::NodeId target,
                  PolicyNode* waiter_state, const PolicyNode* target_state,
                  bool completed);

  /// Registers a spawn-backpressure inline run as a waits-for edge
  /// waiter → target: the inlining parent cannot proceed until the child
  /// completes, exactly like a join — but with no policy ruling, KJ-learn,
  /// or trace action (from the formalism's view no join happens). The edge
  /// is registered as *probation* deliberately: while it lives, every
  /// join/await ruling cycle-checks, so an inlined child that blocks on
  /// something only its suspended parent's continuation can provide (e.g.
  /// awaiting a promise the parent still owns) is faulted as an averted
  /// deadlock instead of hanging on an acyclic-looking graph. Returns false
  /// (registering nothing) when the gate maintains no graph or the edge
  /// would itself close a cycle (unreachable for a fresh child: it has no
  /// out-edges yet); pair a true return with inline_run_end().
  bool inline_run_begin(wfg::NodeId waiter, wfg::NodeId target);
  void inline_run_end(wfg::NodeId waiter);

  // ---- promise path (all no-ops / Proceed when no OwpVerifier is wired) ----

  /// Registers a fresh promise: OWP node + persistent WFG owner edge.
  /// Returns nullptr when promises are unverified.
  PromiseNode* promise_made(std::uint64_t owner_uid, std::uint64_t promise_uid);

  /// Rules on and (if clean) commits an ownership transfer p: from → to.
  TransferDecision promise_transfer(PromiseNode* p, std::uint64_t from_uid,
                                    std::uint64_t to_uid);

  /// Rules on a blocking await. `fulfilled` short-circuits (cannot block).
  /// On a Proceed* verdict the caller MUST eventually call leave_await().
  /// `why` as in enter_join (Witness::on_promise is set; target is p's uid).
  JoinDecision enter_await(std::uint64_t waiter_uid, PromiseNode* p,
                           bool fulfilled, Witness* why = nullptr);

  /// Unregisters the await's wait edge.
  void leave_await(std::uint64_t waiter_uid);

  /// Ownership check before fulfilling. The caller performs the state
  /// transition itself and then calls fulfill_committed().
  FulfillDecision enter_fulfill(PromiseNode* p, std::uint64_t by_uid);

  /// Marks the promise settled in the OWP and drops its owner edge.
  void fulfill_committed(PromiseNode* p);

  /// Records a task's termination; orphans every unfulfilled promise it still
  /// owned and returns their uids so the runtime can fault their awaiters.
  std::vector<std::uint64_t> task_exited(std::uint64_t uid);

  /// Releases a promise's policy state when its last handle dies.
  void promise_released(PromiseNode* p);

  /// Admission seam: the runtime's AdmissionController reports every
  /// front-door verdict here, so request accounting lives beside the
  /// join/await accounting and GateStats carries the exact invariant
  /// requests_checked == requests_admitted + requests_shed.
  void note_admission(bool admitted) {
    requests_checked_.fetch_add(1, std::memory_order_relaxed);
    (admitted ? requests_admitted_ : requests_shed_)
        .fetch_add(1, std::memory_order_relaxed);
  }

  /// Recovery seam: the async detector's supervisor confirmed a cycle in
  /// this gate's WFG and is breaking it. Counts the recovery
  /// (GateStats::cycles_recovered) and files the witness — whose chain is
  /// the concrete confirmed cycle, rotated to start at the victim — into
  /// the same bounded ring the rejection witnesses use, so introspection
  /// and offline validation see recoveries exactly like avoidances.
  void note_cycle_recovered(Witness w);

  GateStats stats() const;

  /// The most recent rejection witnesses (bounded ring, newest last). Each
  /// non-approval ruling appends its witness; once full, the oldest is
  /// dropped and witnesses_dropped() counts it. For introspection dumps and
  /// tests — rejections are rare, so the lock here is uncontended.
  std::vector<Witness> witnesses() const;
  std::uint64_t witnesses_dropped() const {
    return witnesses_dropped_.load(std::memory_order_relaxed);
  }

  const wfg::WaitsForGraph& graph() const { return wfg_; }
  PolicyChoice kind() const { return kind_; }
  /// The policy actually ruling right now. Differs from kind() only when the
  /// verifier is a degradation ladder that has been stepped down (its kind()
  /// reports the active level); diagnostics (watchdog stall reports, verdict
  /// events) use this so a degraded gate is never misattributed to the
  /// configured policy.
  PolicyChoice active_kind() const {
    return verifier_ != nullptr ? verifier_->kind() : kind_;
  }
  OwpVerifier* ownership_verifier() const { return owp_; }
  obs::FlightRecorder* recorder() const { return rec_; }

 private:
  /// The actual join ruling; enter_join wraps it with verdict recording.
  /// `why` is never null here (enter_join supplies a local when the caller
  /// passed none) and is filled on every non-approval ruling.
  JoinDecision rule_join(wfg::NodeId waiter, wfg::NodeId target,
                         PolicyNode* waiter_state,
                         const PolicyNode* target_state, bool target_done,
                         Witness* why);
  /// The actual await ruling; enter_await wraps it with verdict recording.
  JoinDecision rule_await(std::uint64_t waiter_uid, PromiseNode* p,
                          bool fulfilled, Witness* why);
  /// Stamps the ruling's endpoints/outcome on a freshly filled witness,
  /// appends it to the bounded log, and emits a VerdictExplained event.
  void record_witness(Witness& w, std::uint64_t waiter, std::uint64_t target,
                      JoinDecision d, bool on_promise);
  /// Runs `scan()` (a WFG add_*_wait call), timing it and emitting a
  /// CycleScan event when the graph actually performed a cycle detection.
  template <typename F>
  wfg::WaitVerdict timed_scan(std::uint64_t waiter, std::uint64_t target,
                              F&& scan);
  /// Records a fault-injection firing (event + metrics counter).
  void record_injected(std::uint64_t actor, obs::InjectedFault site);

  PolicyChoice kind_;
  Verifier* verifier_;  // not owned
  FaultMode mode_;
  OwpVerifier* owp_;        // not owned; nullptr ⇒ promises unverified
  GateFaultHooks* hooks_;   // not owned; nullptr ⇒ no fault injection
  obs::FlightRecorder* rec_;  // not owned; nullptr ⇒ recording off
  wfg::WaitsForGraph wfg_;
  // Serializes {permits_await, WFG edge insertion, on_await} so two racing
  // awaits cannot both observe a cycle-free obligation graph and insert the
  // edges that jointly close a cycle. Without it the WFG still averts the
  // deadlock (it sees the union atomically) but attributes the fault to the
  // fallback instead of an OWP rejection. Profiled: ROADMAP item 1 names
  // this serialization as the scaling ceiling, so its contention is a
  // first-class measurement ("gate.await" in the contention registry).
  obs::ProfiledMutex await_mu_{"gate.await"};
  // One relaxed atomic per gate-owned counter, in table order.
#define TJ_GATE_ATOMIC(name, help) std::atomic<std::uint64_t> name##_{0};
#define TJ_GATE_NOT_OWNED(name, help)
  TJ_GATE_STATS(TJ_GATE_ATOMIC, TJ_GATE_NOT_OWNED)
#undef TJ_GATE_ATOMIC
#undef TJ_GATE_NOT_OWNED

  static constexpr std::size_t kWitnessLogCap = 256;
  mutable obs::ProfiledMutex witness_mu_{"gate.witness"};
  std::vector<Witness> witness_log_;  // ring, newest last; guarded above
  std::size_t witness_head_ = 0;      // ring start index; guarded above
  std::atomic<std::uint64_t> witnesses_dropped_{0};
};

}  // namespace tj::core
