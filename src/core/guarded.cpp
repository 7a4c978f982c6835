#include "core/guarded.hpp"

#include <sstream>
#include <utility>

namespace tj::core {

namespace {
// A WFG-fallback witness: the concrete cycle the rejected edge would close.
// `attributed` is the join policy whose rejection routed the edge into the
// fallback (active_kind() on the probation path), CycleOnly when the cycle
// was found on an edge no policy had rejected (pure WFG evidence), or None
// when the rejection originated from the ownership policy.
Witness wfg_witness(PolicyChoice attributed,
                    std::vector<wfg::NodeId>&& cycle) {
  Witness w;
  w.kind = WitnessKind::WfgCycle;
  w.policy = attributed;
  w.chain = std::move(cycle);
  return w;
}
}  // namespace

JoinGate::JoinGate(PolicyChoice kind, Verifier* verifier, FaultMode mode,
                   OwpVerifier* owp, GateFaultHooks* hooks,
                   obs::FlightRecorder* rec)
    : kind_(kind), verifier_(verifier), mode_(mode), owp_(owp),
      hooks_(hooks), rec_(rec) {}

template <typename F>
wfg::WaitVerdict JoinGate::timed_scan(std::uint64_t waiter,
                                      std::uint64_t target, F&& scan) {
  if (rec_ == nullptr) return scan();
  const std::uint64_t scans_before = wfg_.cycle_checks();
  const std::uint64_t t0 = rec_->now_ns();
  const wfg::WaitVerdict v = scan();
  const std::uint64_t dt = rec_->now_ns() - t0;
  if (wfg_.cycle_checks() != scans_before) {
    rec_->metrics().cycle_scan_ns.record(dt);
    obs::Event e;
    e.kind = obs::EventKind::CycleScan;
    e.actor = waiter;
    e.target = target;
    e.payload = dt;
    e.detail = v == wfg::WaitVerdict::WouldDeadlock ? 1 : 0;
    rec_->emit(e);
  }
  return v;
}

void JoinGate::record_injected(std::uint64_t actor, obs::InjectedFault site) {
  if (rec_ == nullptr) return;
  rec_->metrics().faults_injected.fetch_add(1, std::memory_order_relaxed);
  obs::Event e;
  e.kind = obs::EventKind::FaultInjected;
  e.actor = actor;
  e.detail = static_cast<std::uint8_t>(site);
  rec_->emit(e);
}

JoinDecision JoinGate::enter_join(wfg::NodeId waiter, wfg::NodeId target,
                                  PolicyNode* waiter_state,
                                  const PolicyNode* target_state,
                                  bool target_done, Witness* why) {
  Witness local;
  Witness* w = why != nullptr ? why : &local;
  if (rec_ == nullptr) {
    const JoinDecision d =
        rule_join(waiter, target, waiter_state, target_state, target_done, w);
    if (!w->empty()) record_witness(*w, waiter, target, d, false);
    return d;
  }
  const std::uint64_t t0 = rec_->now_ns();
  const JoinDecision d =
      rule_join(waiter, target, waiter_state, target_state, target_done, w);
  const std::uint64_t dt = rec_->now_ns() - t0;
  rec_->metrics().policy_check_ns.record(dt);
  obs::Event e;
  e.kind = obs::EventKind::JoinVerdict;
  e.actor = waiter;
  e.target = target;
  e.payload = dt;  // ruling duration: the critical-path profiler attributes it
  e.policy = static_cast<std::uint8_t>(active_kind());
  e.detail = static_cast<std::uint8_t>(d);
  rec_->emit(e);
  if (!w->empty()) record_witness(*w, waiter, target, d, false);
  return d;
}

JoinDecision JoinGate::rule_join(wfg::NodeId waiter, wfg::NodeId target,
                                 PolicyNode* waiter_state,
                                 const PolicyNode* target_state,
                                 bool target_done, Witness* why) {
  joins_checked_.fetch_add(1, std::memory_order_relaxed);
  // TJ/KJ soundness covers futures only; once a promise exists, joins are
  // additionally screened by the ownership policy's obligation history.
  const bool owp_live = owp_ != nullptr && owp_->active();

  if (kind_ == PolicyChoice::None && !owp_live) {
    // Baseline: unchecked joins, no graph maintenance at all.
    return JoinDecision::Proceed;
  }

  if (kind_ == PolicyChoice::Async &&
      active_kind() == PolicyChoice::Async) {
    // Optimistic mode: approve immediately with zero policy work — no
    // verifier, no OWP verdict, no cycle scan, no injection hook (detector
    // faults are this mode's chaos surface). Blocking joins still register
    // their edge UNCHECKED so the graph stays the ground truth the
    // background detector confirms candidate cycles against; the cycles
    // this may admit are the detector's job to recover. Once the ladder
    // has failed over (active_kind() != Async) new joins fall through to
    // the synchronous machinery below — no quiescent point needed.
    if (target_done) return JoinDecision::Proceed;
    wfg_.add_unchecked_wait(waiter, target);
    return JoinDecision::Proceed;
  }

  if (kind_ == PolicyChoice::CycleOnly) {
    // The Armus-alone baseline: every blocking join pays a cycle check.
    // Owner edges are visible to the chain walk, so mixed future/promise
    // cycles are covered with no extra OWP consultation.
    if (target_done) return JoinDecision::Proceed;
    std::vector<wfg::NodeId> cycle;
    if (timed_scan(waiter, target, [&] {
          return wfg_.add_checked_wait(waiter, target, &cycle);
        }) == wfg::WaitVerdict::WouldDeadlock) {
      deadlocks_averted_.fetch_add(1, std::memory_order_relaxed);
      deadlocks_averted_approved_.fetch_add(1, std::memory_order_relaxed);
      *why = wfg_witness(PolicyChoice::CycleOnly, std::move(cycle));
      return JoinDecision::FaultDeadlock;
    }
    return JoinDecision::Proceed;
  }

  bool approved = verifier_ == nullptr ||  // PolicyChoice::None with live OWP
                  verifier_->permits_join(waiter_state, target_state);
  bool owp_rejected = false;
  if (approved && owp_live && !owp_->permits_join(waiter, target)) {
    approved = false;
    owp_rejected = true;
  }
  // Fault injection: a spurious rejection takes the exact path a real one
  // takes (counters, fallback, probation edge), so chaos tests exercise the
  // recovery machinery and the stats still reconcile.
  bool injected = false;
  if (approved && hooks_ != nullptr && hooks_->inject_join_rejection()) {
    approved = false;
    injected = true;
    record_injected(waiter, obs::InjectedFault::JoinRejection);
  }

  if (approved) {
    if (target_done) return JoinDecision::Proceed;
    // Approved blocking joins still register their edge: a probation edge
    // elsewhere may need it to witness (or rule out) a cycle.
    std::vector<wfg::NodeId> cycle;
    if (timed_scan(waiter, target, [&] {
          return wfg_.add_wait(waiter, target, &cycle);
        }) == wfg::WaitVerdict::WouldDeadlock) {
      deadlocks_averted_.fetch_add(1, std::memory_order_relaxed);
      deadlocks_averted_approved_.fetch_add(1, std::memory_order_relaxed);
      // No policy rejected this edge: the cycle is pure WFG evidence.
      *why = wfg_witness(PolicyChoice::CycleOnly, std::move(cycle));
      return JoinDecision::FaultDeadlock;
    }
    return JoinDecision::Proceed;
  }

  // Rejection provenance (cold path — the edge is already off the fast path).
  if (injected) {
    why->kind = WitnessKind::Injected;
    why->policy = active_kind();
  } else if (owp_rejected) {
    *why = owp_->explain_join(waiter, target);
  } else if (verifier_ != nullptr) {
    *why = verifier_->explain(waiter_state, target_state);
  }

  auto& rejections = owp_rejected ? owp_rejections_ : policy_rejections_;
  auto& cleared = owp_rejected ? owp_false_positives_ : false_positives_;
  rejections.fetch_add(1, std::memory_order_relaxed);
  if (mode_ == FaultMode::Throw) {
    return JoinDecision::FaultPolicy;
  }
  if (target_done) {
    // A join on a terminated task cannot block, hence cannot deadlock:
    // trivially a false positive of the policy.
    cleared.fetch_add(1, std::memory_order_relaxed);
    return JoinDecision::ProceedFalsePositive;
  }
  std::vector<wfg::NodeId> cycle;
  if (timed_scan(waiter, target, [&] {
        return wfg_.add_probation_wait(waiter, target, &cycle);
      }) == wfg::WaitVerdict::WouldDeadlock) {
    deadlocks_averted_.fetch_add(1, std::memory_order_relaxed);
    // The fallback confirmed the rejection: the concrete cycle supersedes
    // the policy's conservative evidence, attributed to the rejecting policy.
    *why = wfg_witness(owp_rejected ? PolicyChoice::None : active_kind(),
                       std::move(cycle));
    return JoinDecision::FaultDeadlock;
  }
  cleared.fetch_add(1, std::memory_order_relaxed);
  return JoinDecision::ProceedFalsePositive;
}

void JoinGate::record_witness(Witness& w, std::uint64_t waiter,
                              std::uint64_t target, JoinDecision d,
                              bool on_promise) {
  w.waiter = waiter;
  w.target = target;
  w.outcome = static_cast<std::uint8_t>(d);
  w.on_promise = w.on_promise || on_promise;
  if (rec_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::VerdictExplained;
    e.actor = waiter;
    e.target = target;
    e.payload = w.chain.size();  // evidence-chain length (0 for local facts)
    e.policy = static_cast<std::uint8_t>(w.policy);
    e.detail = static_cast<std::uint8_t>(w.kind);
    if (w.on_promise) e.flags = obs::kFlagPromise;
    rec_->emit(e);
  }
  std::scoped_lock lock(witness_mu_);
  if (witness_log_.size() < kWitnessLogCap) {
    witness_log_.push_back(w);
  } else {
    witness_log_[witness_head_] = w;
    witness_head_ = (witness_head_ + 1) % kWitnessLogCap;
    witnesses_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<Witness> JoinGate::witnesses() const {
  std::scoped_lock lock(witness_mu_);
  std::vector<Witness> out;
  out.reserve(witness_log_.size());
  for (std::size_t i = 0; i < witness_log_.size(); ++i) {
    out.push_back(witness_log_[(witness_head_ + i) % witness_log_.size()]);
  }
  return out;
}

void JoinGate::leave_join(wfg::NodeId waiter, wfg::NodeId target,
                          PolicyNode* waiter_state,
                          const PolicyNode* target_state, bool completed) {
  const bool owp_live = owp_ != nullptr && owp_->active();
  if (kind_ != PolicyChoice::None || owp_live) {
    wfg_.remove_wait(waiter);  // no-op if the join never registered an edge
  }
  if (completed && verifier_ != nullptr) {
    verifier_->on_join_complete(waiter_state, target_state);
  }
  if (completed && owp_live) {
    // The completed join's obligation edge enters H: a later await must not
    // send target's fulfilment duties back through this waiter.
    owp_->on_join(waiter, target);
  }
}

bool JoinGate::inline_run_begin(wfg::NodeId waiter, wfg::NodeId target) {
  const bool owp_live = owp_ != nullptr && owp_->active();
  if (kind_ == PolicyChoice::None && !owp_live) {
    return false;  // baseline: no graph maintenance at all
  }
  if (kind_ == PolicyChoice::Async &&
      active_kind() == PolicyChoice::Async) {
    // Optimistic mode: the inline-run edge enters unchecked like every
    // other async edge; a child that blocks on its suspended parent's
    // obligations becomes a detector-recovered cycle, not a sync scan.
    wfg_.add_unchecked_wait(waiter, target);
    return true;
  }
  std::vector<wfg::NodeId> cycle;
  return timed_scan(waiter, target, [&] {
           return wfg_.add_probation_wait(waiter, target, &cycle);
         }) == wfg::WaitVerdict::Added;
}

void JoinGate::inline_run_end(wfg::NodeId waiter) {
  wfg_.remove_wait(waiter);
}

PromiseNode* JoinGate::promise_made(std::uint64_t owner_uid,
                                    std::uint64_t promise_uid) {
  if (owp_ == nullptr) return nullptr;
  PromiseNode* node = owp_->on_make(owner_uid, promise_uid);
  wfg_.add_owner_edge(wfg::promise_node_id(promise_uid), owner_uid);
  return node;
}

TransferDecision JoinGate::promise_transfer(PromiseNode* p,
                                            std::uint64_t from_uid,
                                            std::uint64_t to_uid) {
  if (owp_ == nullptr) return TransferDecision::Ok;  // unverified: no owners
  switch (owp_->check_transfer(p, from_uid, to_uid)) {
    case TransferResult::Fulfilled:
    case TransferResult::Orphaned:
      return TransferDecision::FaultSettled;
    case TransferResult::NotOwner:
      ownership_violations_.fetch_add(1, std::memory_order_relaxed);
      return TransferDecision::FaultNotOwner;
    case TransferResult::TargetDead:
      ownership_violations_.fetch_add(1, std::memory_order_relaxed);
      return TransferDecision::FaultTargetDead;
    case TransferResult::Ok:
      break;
  }
  // The new owner must not already (transitively) wait on this promise.
  const wfg::NodeId pnode = wfg::promise_node_id(p->uid());
  if (wfg_.retarget_owner_edge(pnode, to_uid) ==
      wfg::WaitVerdict::WouldDeadlock) {
    deadlocks_averted_.fetch_add(1, std::memory_order_relaxed);
    deadlocks_averted_approved_.fetch_add(1, std::memory_order_relaxed);
    return TransferDecision::FaultWouldDeadlock;
  }
  if (owp_->commit_transfer(p, to_uid)) {
    // Receiver died between check and commit: the promise is orphaned.
    wfg_.remove_owner_edge(pnode);
    promises_orphaned_.fetch_add(1, std::memory_order_relaxed);
    return TransferDecision::OrphanedReceiverDead;
  }
  return TransferDecision::Ok;
}

JoinDecision JoinGate::enter_await(std::uint64_t waiter_uid, PromiseNode* p,
                                   bool fulfilled, Witness* why) {
  Witness local;
  Witness* w = why != nullptr ? why : &local;
  const std::uint64_t pr_uid = p != nullptr ? p->uid() : 0;
  if (rec_ == nullptr) {
    const JoinDecision d = rule_await(waiter_uid, p, fulfilled, w);
    if (!w->empty()) record_witness(*w, waiter_uid, pr_uid, d, true);
    return d;
  }
  const std::uint64_t t0 = rec_->now_ns();
  const JoinDecision d = rule_await(waiter_uid, p, fulfilled, w);
  const std::uint64_t dt = rec_->now_ns() - t0;
  rec_->metrics().policy_check_ns.record(dt);
  obs::Event e;
  e.kind = obs::EventKind::AwaitVerdict;
  e.actor = waiter_uid;
  e.target = pr_uid;
  e.payload = dt;  // ruling duration: the critical-path profiler attributes it
  e.policy = static_cast<std::uint8_t>(active_kind());
  e.detail = static_cast<std::uint8_t>(d);
  e.flags = obs::kFlagPromise;
  rec_->emit(e);
  if (!w->empty()) record_witness(*w, waiter_uid, pr_uid, d, true);
  return d;
}

JoinDecision JoinGate::rule_await(std::uint64_t waiter_uid, PromiseNode* p,
                                  bool fulfilled, Witness* why) {
  awaits_checked_.fetch_add(1, std::memory_order_relaxed);
  if (fulfilled || owp_ == nullptr) {
    // A settled promise cannot block; unverified promises are never checked.
    return JoinDecision::Proceed;
  }
  const wfg::NodeId pnode = wfg::promise_node_id(p->uid());
  if (kind_ == PolicyChoice::Async &&
      active_kind() == PolicyChoice::Async) {
    // Optimistic mode, await flavour: skip the OWP verdict and the
    // check-and-insert lock entirely; the unchecked edge (plus the owner
    // edges promise_made/transfer keep maintaining) makes promise cycles
    // visible to the detector's ground-truth scan. An await on an already
    // orphaned promise is caught by the runtime's post-wait settle check.
    wfg_.add_unchecked_wait(waiter_uid, pnode);
    return JoinDecision::Proceed;
  }
  // Check-and-insert must be atomic across both graphs (see await_mu_).
  std::scoped_lock lock(await_mu_);
  AwaitVerdict verdict = owp_->permits_await(waiter_uid, p);
  bool injected = false;
  if (verdict == AwaitVerdict::Allow && hooks_ != nullptr &&
      hooks_->inject_await_rejection()) {
    // Injected spurious rejection: route through the probation path exactly
    // like a conservative OWP rejection.
    verdict = AwaitVerdict::RejectCycle;
    injected = true;
    record_injected(waiter_uid, obs::InjectedFault::AwaitRejection);
  }
  switch (verdict) {
    case AwaitVerdict::RejectOrphaned:
      // Nobody is obligated to fulfill the promise: blocking on it is a
      // certain deadlock, and no WFG cycle can witness the absence of a
      // fulfiller — fault directly.
      owp_rejections_.fetch_add(1, std::memory_order_relaxed);
      deadlocks_averted_.fetch_add(1, std::memory_order_relaxed);
      *why = owp_->explain_await(waiter_uid, p);
      return JoinDecision::FaultDeadlock;
    case AwaitVerdict::Allow: {
      std::vector<wfg::NodeId> cycle;
      if (timed_scan(waiter_uid, pnode, [&] {
            return wfg_.add_wait(waiter_uid, pnode, &cycle);
          }) == wfg::WaitVerdict::WouldDeadlock) {
        deadlocks_averted_.fetch_add(1, std::memory_order_relaxed);
        deadlocks_averted_approved_.fetch_add(1, std::memory_order_relaxed);
        *why = wfg_witness(PolicyChoice::CycleOnly, std::move(cycle));
        why->on_promise = true;
        return JoinDecision::FaultDeadlock;
      }
      owp_->on_await(waiter_uid, p);
      return JoinDecision::Proceed;
    }
    case AwaitVerdict::RejectCycle:
      break;
  }
  if (injected) {
    why->kind = WitnessKind::Injected;
    why->policy = PolicyChoice::None;
    why->on_promise = true;
  } else {
    *why = owp_->explain_await(waiter_uid, p);
  }
  owp_rejections_.fetch_add(1, std::memory_order_relaxed);
  if (mode_ == FaultMode::Throw) {
    return JoinDecision::FaultPolicy;
  }
  std::vector<wfg::NodeId> cycle;
  if (timed_scan(waiter_uid, pnode, [&] {
        return wfg_.add_probation_wait(waiter_uid, pnode, &cycle);
      }) == wfg::WaitVerdict::WouldDeadlock) {
    deadlocks_averted_.fetch_add(1, std::memory_order_relaxed);
    *why = wfg_witness(PolicyChoice::None, std::move(cycle));
    why->on_promise = true;
    return JoinDecision::FaultDeadlock;
  }
  // A historical obligation path that is no longer live: proceed, but keep
  // the (now probationary) edge and still learn the obligation.
  owp_false_positives_.fetch_add(1, std::memory_order_relaxed);
  owp_->on_await(waiter_uid, p);
  return JoinDecision::ProceedFalsePositive;
}

void JoinGate::leave_await(std::uint64_t waiter_uid) {
  if (owp_ == nullptr) return;
  wfg_.remove_wait(waiter_uid);
}

FulfillDecision JoinGate::enter_fulfill(PromiseNode* p, std::uint64_t by_uid) {
  const auto ruled = [&](FulfillDecision d) {
    if (rec_ != nullptr) {
      obs::Event e;
      e.kind = obs::EventKind::FulfillVerdict;
      e.actor = by_uid;
      e.target = p != nullptr ? p->uid() : 0;
      e.policy = static_cast<std::uint8_t>(kind_);
      e.detail = static_cast<std::uint8_t>(d);
      e.flags = obs::kFlagPromise;
      rec_->emit(e);
    }
    return d;
  };
  if (owp_ == nullptr) return ruled(FulfillDecision::Proceed);
  switch (owp_->check_fulfill(p, by_uid)) {
    case FulfillResult::Settled:
      return ruled(FulfillDecision::AlreadySettled);
    case FulfillResult::NotOwner:
      // The value still gets published either way (the fulfilment itself is
      // benign); the *violation* is what the policy reports.
      ownership_violations_.fetch_add(1, std::memory_order_relaxed);
      return ruled(mode_ == FaultMode::Throw ? FulfillDecision::FaultNotOwner
                                             : FulfillDecision::Proceed);
    case FulfillResult::Ok:
      break;
  }
  return ruled(FulfillDecision::Proceed);
}

void JoinGate::fulfill_committed(PromiseNode* p) {
  if (owp_ == nullptr || p == nullptr) return;
  owp_->commit_fulfill(p);
  wfg_.remove_owner_edge(wfg::promise_node_id(p->uid()));
}

std::vector<std::uint64_t> JoinGate::task_exited(std::uint64_t uid) {
  if (owp_ == nullptr) return {};
  std::vector<std::uint64_t> orphans = owp_->on_task_exit(uid);
  for (const std::uint64_t promise_uid : orphans) {
    wfg_.remove_owner_edge(wfg::promise_node_id(promise_uid));
  }
  promises_orphaned_.fetch_add(orphans.size(), std::memory_order_relaxed);
  return orphans;
}

void JoinGate::promise_released(PromiseNode* p) {
  if (owp_ == nullptr || p == nullptr) return;
  owp_->release(p);
}

void JoinGate::note_cycle_recovered(Witness w) {
  cycles_recovered_.fetch_add(1, std::memory_order_relaxed);
  record_witness(w, w.waiter, w.target, JoinDecision::FaultDeadlock,
                 w.on_promise);
}

GateStats JoinGate::stats() const {
  GateStats s;
#define TJ_GATE_LOAD(name, help) \
  s.name = name##_.load(std::memory_order_relaxed);
#define TJ_WFG_LOAD(name, help) s.name = wfg_.name();
  TJ_GATE_STATS(TJ_GATE_LOAD, TJ_WFG_LOAD)
#undef TJ_GATE_LOAD
#undef TJ_WFG_LOAD
  return s;
}

std::string to_string(const GateStats& s) {
  std::ostringstream os;
  const char* sep = "";
  for_each_field(s, [&](const char* name, std::uint64_t v, const char*) {
    os << sep << name << '=' << v;
    sep = " ";
  });
  return os.str();
}

}  // namespace tj::core
