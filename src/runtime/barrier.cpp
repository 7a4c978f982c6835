#include "runtime/barrier.hpp"

#include <algorithm>
#include <utility>

#include "runtime/cancellation.hpp"
#include "runtime/runtime.hpp"

namespace tj::runtime {

namespace {
void erase_value(std::vector<wfg::TaskUid>& xs, wfg::TaskUid v) {
  xs.erase(std::remove(xs.begin(), xs.end(), v), xs.end());
}
}  // namespace

CheckedBarrier& BarrierDomain::create_barrier() {
  std::scoped_lock lock(barriers_mu_);
  barriers_.push_back(std::shared_ptr<CheckedBarrier>(
      new CheckedBarrier(this, next_id_.fetch_add(1))));
  return *barriers_.back();
}

void CheckedBarrier::register_party() {
  register_party(current_task().uid());
}

void CheckedBarrier::register_party(wfg::TaskUid uid) {
  {
    std::scoped_lock lock(mu_);
    if (poisoned_) {
      throw CancelledError("barrier register aborted: barrier poisoned",
                           poison_cause_);
    }
    ++parties_;
    // The party gates every phase until it arrives: it provides the resource.
    domain_->graph_.add_provider(id_, uid);
  }
  // Attach the barrier to the registering task's cancellation scope: if the
  // scope cancels, the barrier is poisoned so no surviving party is stranded
  // waiting for a cancelled one.
  if (const TaskBase* cur = current_task_or_null(); cur != nullptr) {
    if (const auto& scope = cur->cancel_scope(); scope != nullptr) {
      scope->track_barrier(weak_from_this());
    }
  }
}

void CheckedBarrier::deregister() {
  const wfg::TaskUid uid = current_task().uid();
  std::scoped_lock lock(mu_);
  if (parties_ == 0) {
    throw UsageError("CheckedBarrier: deregister without registration");
  }
  --parties_;
  domain_->graph_.remove_provider(id_, uid);
  // Revoke a pending arrival in the current phase (arrive() then leave).
  const auto it =
      std::find(arrived_uids_.begin(), arrived_uids_.end(), uid);
  if (it != arrived_uids_.end()) {
    arrived_uids_.erase(it);
  }
  if (arrived_uids_.size() == parties_ && parties_ > 0) {
    release_phase_locked();
  }
}

void CheckedBarrier::release_phase_locked() {
  // Every arrived party provides the next phase again; blocked parties'
  // wait entries are cleared HERE — leaving them until the waiters wake
  // would let stale edges poison other tasks' cycle checks.
  for (wfg::TaskUid uid : arrived_uids_) {
    domain_->graph_.add_provider(id_, uid);
  }
  for (wfg::TaskUid uid : blocked_uids_) {
    domain_->graph_.clear_wait(uid);
  }
  arrived_uids_.clear();
  blocked_uids_.clear();
  if (const TaskBase* cur = current_task_or_null(); cur != nullptr &&
      cur->runtime() != nullptr && cur->runtime()->recorder() != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::BarrierPhase;
    e.actor = cur->uid();
    e.target = id_;
    e.payload = phase_;  // the phase this release just completed
    cur->runtime()->recorder()->emit(e);
  }
  ++phase_;
  cv_.notify_all();
}

bool CheckedBarrier::arrive_locked(wfg::TaskUid uid) {
  domain_->graph_.remove_provider(id_, uid);
  arrived_uids_.push_back(uid);
  if (arrived_uids_.size() == parties_) {
    release_phase_locked();
    return true;
  }
  return false;
}

void CheckedBarrier::arrive() {
  const wfg::TaskUid uid = current_task().uid();
  std::scoped_lock lock(mu_);
  if (poisoned_) {
    throw CancelledError("barrier arrive aborted: barrier poisoned",
                         poison_cause_);
  }
  (void)arrive_locked(uid);
}

bool CheckedBarrier::await() {
  TaskBase& cur = current_task();
  const wfg::TaskUid uid = cur.uid();
  if (cur.cancel_requested()) {
    throw CancelledError(
        "barrier await abandoned: the awaiting task was cancelled",
        cur.cancel_scope() ? cur.cancel_scope()->cause() : nullptr);
  }
  std::unique_lock lock(mu_);
  if (poisoned_) {
    throw CancelledError("barrier await aborted: barrier poisoned",
                         poison_cause_);
  }
  if (arrive_locked(uid)) {
    return true;  // this arrival completed the phase: the serial party
  }
  // Blocking: verify against the shared resource graph first.
  if (!domain_->graph_.try_wait(uid, {id_})) {
    // Faulting out: DROP the party rather than re-arming it as a provider.
    // The faulted task cannot be relied on to come back (it is unwinding);
    // re-arming it would leave its peers waiting on an arrival that may
    // never happen. Dropping it lets the phase complete with the survivors
    // — the party must re-register to take part again.
    erase_value(arrived_uids_, uid);
    --parties_;
    domain_->averted_.fetch_add(1, std::memory_order_relaxed);
    if (arrived_uids_.size() == parties_ && parties_ > 0) {
      release_phase_locked();
    }
    throw DeadlockAvoidedError(
        "barrier await aborted: blocking would create a deadlock cycle "
        "across barriers (party dropped)");
  }
  blocked_uids_.push_back(uid);
  const std::uint64_t my_phase = phase_;
  {
    detail::BlockingRegionGuard region(cur.runtime()->scheduler());
    cv_.wait(lock,
             [this, my_phase] { return phase_ != my_phase || poisoned_; });
  }
  if (poisoned_ && phase_ == my_phase) {
    throw CancelledError("barrier await aborted: barrier poisoned",
                         poison_cause_);
  }
  return false;
}

void CheckedBarrier::poison(std::exception_ptr cause) {
  std::scoped_lock lock(mu_);
  if (poisoned_) return;
  poisoned_ = true;
  poison_cause_ = std::move(cause);
  // Wake every blocked waiter and clear their wait entries so the stale
  // edges cannot poison other tasks' cycle checks.
  for (wfg::TaskUid uid : blocked_uids_) {
    domain_->graph_.clear_wait(uid);
  }
  blocked_uids_.clear();
  cv_.notify_all();
}

bool CheckedBarrier::poisoned() const {
  std::scoped_lock lock(mu_);
  return poisoned_;
}

std::size_t CheckedBarrier::parties() const {
  std::scoped_lock lock(mu_);
  return parties_;
}

std::uint64_t CheckedBarrier::phase() const {
  std::scoped_lock lock(mu_);
  return phase_;
}

}  // namespace tj::runtime
