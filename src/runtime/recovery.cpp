#include "runtime/recovery.hpp"

#include <algorithm>
#include <unordered_set>

#include "core/witness.hpp"
#include "runtime/errors.hpp"
#include "runtime/promise.hpp"
#include "runtime/task.hpp"

namespace tj::runtime {

namespace {
constexpr std::size_t kRecentCap = 32;
}  // namespace

RecoverySupervisor::RecoverySupervisor(
    const core::DetectorConfig& cfg, core::JoinGate& gate,
    obs::FlightRecorder& rec, core::LadderVerifier* ladder,
    core::DetectorFaultHooks* faults,
    std::vector<std::uint32_t> tenant_priorities)
    : gate_(gate),
      rec_(rec),
      ladder_(ladder),
      tenant_priorities_(std::move(tenant_priorities)),
      detector_(cfg, gate, rec, *this, faults) {}

RecoverySupervisor::~RecoverySupervisor() { stop(); }

std::uint64_t RecoverySupervisor::register_wait(
    TaskBase* waiter, TaskBase* target_task,
    detail::PromiseStateBase* promise, std::uint8_t tenant) {
  WaitRecord r;
  r.uid = waiter->uid();
  r.waiter = waiter;
  r.target_task = target_task;
  r.promise = promise;
  r.tenant = tenant;
  r.tid = std::this_thread::get_id();
  r.since_ns = rec_.now_ns();
  std::scoped_lock lk(mu_);
  r.entry_id = next_entry_id_++;
  const std::uint64_t id = r.entry_id;
  waits_.insert_or_assign(r.uid, r);
  return id;
}

void RecoverySupervisor::unregister_wait(std::uint64_t waiter_uid,
                                         std::uint64_t entry_id) {
  std::scoped_lock lk(mu_);
  const auto it = waits_.find(waiter_uid);
  if (it == waits_.end() || it->second.entry_id != entry_id) return;
  if (it->second.broken) {
    // The victim's wait actually ended: this is the moment the deadlock is
    // resolved, so recovery latency = cycle formation → now.
    const std::uint64_t now = rec_.now_ns();
    const std::uint64_t formed = it->second.formation_ns;
    rec_.metrics().recovery_ns.record(now > formed ? now - formed : 0);
    // Retire incarnation keys that name this entry: the entry id is never
    // reused, so they can never recur — pruning keeps the dedup set bounded
    // by the number of cycles currently in flight (recoveries are rare, the
    // linear sweep is cold).
    const auto member = std::make_pair(waiter_uid, entry_id);
    for (auto k = counted_.begin(); k != counted_.end();) {
      if (std::find(k->begin(), k->end(), member) != k->end()) {
        k = counted_.erase(k);
      } else {
        ++k;
      }
    }
  }
  // Posts only happen under mu_ while the entry exists, so after this erase
  // no new break can target the waiter through this entry; clearing here
  // guarantees a stale (unconsumed) break never kills a later wait.
  it->second.waiter->clear_wait_break();
  waits_.erase(it);
}

void RecoverySupervisor::recover_cycle(const std::vector<wfg::NodeId>& cycle) {
  if (cycle.empty()) return;
  std::unordered_set<std::uint64_t> members(cycle.begin(), cycle.end());

  std::scoped_lock lk(mu_);

  // A cycle through a wait whose target has already settled is draining,
  // not deadlocked: the waiter just has not woken to withdraw its edge yet
  // (this happens right after a recovery, when the broken victim fulfilled
  // its obligation but the peer is still parked on the stale edge). Breaking
  // a member now would be a spurious kill of a wait that is about to
  // complete, so skip — a real cycle is re-reported by the next scan with
  // every target still pending.
  for (const auto& [uid, r] : waits_) {
    if (!members.contains(uid)) continue;
    if (r.promise != nullptr && r.promise->settled()) return;
    if (r.target_task != nullptr && r.target_task->done()) return;
  }

  // Per OS thread, the youngest registered wait is the one actually parked
  // (cooperative inlining stacks several frames' waits on one thread; only
  // the leaf can be woken). The WFG chain from any non-leaf frame runs
  // through its inlined child down to that leaf, so if a thread's frame is
  // on the cycle its leaf wait is too — breaking leaves is always enough.
  std::unordered_map<std::thread::id, const WaitRecord*> leaf;
  for (const auto& [uid, r] : waits_) {
    const WaitRecord*& slot = leaf[r.tid];
    if (slot == nullptr || r.entry_id > slot->entry_id) slot = &r;
  }
  const WaitRecord* victim = nullptr;
  for (const auto& [tid, r] : leaf) {
    if (!members.contains(r->uid)) continue;
    if (victim == nullptr) {
      victim = r;
      continue;
    }
    const std::uint32_t pr = priority_of(r->tenant);
    const std::uint32_t pv = priority_of(victim->tenant);
    // Lowest recovery priority dies first; ties fall to the youngest task.
    if (pr < pv || (pr == pv && r->uid > victim->uid)) victim = r;
  }
  if (victim == nullptr) return;  // no breakable member yet; next scan retries

  // One incident per cycle *incarnation*: the exact set of registered
  // (uid, entry id) member waits. Re-reports of a still-unbroken cycle match
  // the key and are not re-counted; the same tasks re-deadlocking through
  // fresh waits produce fresh entry ids and count again.
  IncarnationKey key;
  std::uint64_t formation_ns = 0;
  for (const auto& [uid, r] : waits_) {
    if (!members.contains(uid)) continue;
    key.emplace_back(uid, r.entry_id);
    formation_ns = std::max(formation_ns, r.since_ns);
  }
  std::sort(key.begin(), key.end());
  const bool first_report = counted_.insert(std::move(key)).second;

  // Rotate the confirmed cycle so the witness chain starts at the victim —
  // the same [waiter, target, …] orientation every synchronous WfgCycle
  // witness uses, so offline validation treats recoveries identically.
  const auto at =
      std::find(cycle.begin(), cycle.end(), victim->uid);
  std::vector<std::uint64_t> chain;
  chain.reserve(cycle.size());
  chain.insert(chain.end(), at, cycle.end());
  chain.insert(chain.end(), cycle.begin(), at);
  const wfg::NodeId next = chain.size() > 1 ? chain[1] : chain[0];
  const bool on_promise = wfg::is_promise_node(next);

  core::Witness w;
  w.kind = core::WitnessKind::WfgCycle;
  w.policy = core::PolicyChoice::Async;
  w.outcome = static_cast<std::uint8_t>(core::JoinDecision::FaultDeadlock);
  w.on_promise = on_promise;
  w.waiter = victim->uid;
  w.target = on_promise ? wfg::promise_uid_of(next) : next;
  w.chain = chain;

  WaitRecord& vic = waits_.at(victim->uid);
  if (!vic.broken) {
    vic.broken = true;
    vic.formation_ns = formation_ns;
  }
  if (first_report) {
    gate_.note_cycle_recovered(w);
    obs::Event e;
    e.kind = obs::EventKind::CycleRecovered;
    e.actor = vic.uid;
    e.target = w.target;
    e.payload = cycle.size();
    e.detail = vic.tenant;
    e.tenant = vic.tenant;
    if (on_promise) e.flags = obs::kFlagPromise;
    rec_.emit(e);
    RecoveryStatus::Incident inc;
    inc.victim = vic.uid;
    inc.waited_on = w.target;
    inc.on_promise = on_promise;
    inc.cycle_len = static_cast<std::uint32_t>(cycle.size());
    inc.tenant = vic.tenant;
    inc.t_ns = rec_.now_ns();
    recent_.push_back(inc);
    if (recent_.size() > kRecentCap) {
      recent_.erase(recent_.begin());
    }
  }

  // Post (or re-post, if the victim consumed a break but is somehow still
  // registered) and nudge. The detector re-reports unbroken cycles every
  // scan, so a nudge that raced the victim's park is repaired on the next
  // tick — the check-before-park + re-nudge pair is what bounds recovery
  // latency without a wakeup-proof handshake.
  if (vic.waiter->post_wait_break(std::make_exception_ptr(DeadlockAvoidedError(
          on_promise
              ? "await aborted: a deadlock formed under optimistic "
                "verification; the recovery supervisor confirmed the cycle "
                "and chose this task as its victim"
              : "join aborted: a deadlock formed under optimistic "
                "verification; the recovery supervisor confirmed the cycle "
                "and chose this task as its victim",
          std::move(w))))) {
    breaks_posted_.fetch_add(1, std::memory_order_relaxed);
  }
  if (vic.promise != nullptr) {
    vic.promise->nudge_awaiters();
  } else if (vic.target_task != nullptr) {
    vic.target_task->nudge_waiters();
  }
}

void RecoverySupervisor::on_failover(obs::DetectorFailoverReason /*reason*/,
                                     std::uint64_t /*backlog*/) {
  // Monotone downgrade to the synchronous WFG-checked floor: in-flight
  // optimistic approvals simply complete and their edges drain; every join
  // ruled after this point is cycle-checked before blocking. The detector
  // keeps scanning for stale pre-failover cycles until stopped.
  if (ladder_ == nullptr) return;
  const core::PolicyChoice from = ladder_->kind();
  if (!ladder_->downgrade()) return;
  rec_.metrics().policy_downgrades.fetch_add(1, std::memory_order_relaxed);
  obs::Event e;
  e.kind = obs::EventKind::PolicyDowngrade;
  e.payload = ladder_->level();
  e.policy = static_cast<std::uint8_t>(ladder_->kind());
  e.detail = static_cast<std::uint8_t>(from);
  rec_.emit(e);
}

RecoveryStatus RecoverySupervisor::status() const {
  RecoveryStatus s;
  s.detector = detector_.status();
  s.breaks_posted = breaks_posted_.load(std::memory_order_relaxed);
  std::scoped_lock lk(mu_);
  s.waits_registered = waits_.size();
  s.recent = recent_;
  return s;
}

RecoveryWaitGuard::RecoveryWaitGuard(RecoverySupervisor* sup, TaskBase* waiter,
                                     TaskBase* target_task,
                                     detail::PromiseStateBase* promise,
                                     std::uint8_t tenant)
    : sup_(waiter != nullptr ? sup : nullptr) {
  if (sup_ == nullptr) return;
  waiter_uid_ = waiter->uid();
  entry_id_ = sup_->register_wait(waiter, target_task, promise, tenant);
}

RecoveryWaitGuard::~RecoveryWaitGuard() {
  if (sup_ != nullptr) sup_->unregister_wait(waiter_uid_, entry_id_);
}

}  // namespace tj::runtime
