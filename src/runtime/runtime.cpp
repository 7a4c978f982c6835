#include "runtime/runtime.hpp"

#include <string>
#include <thread>

#include "core/ladder.hpp"

namespace tj::runtime {

namespace {
// When the governor is enabled the configured policy is built as a
// degradation ladder (TJ-GT → ... → WFG-only) so the governor has levels to
// step down; policies with no ladder (None/CycleOnly) fall through to the
// plain verifier, as does the governor-off default.
std::unique_ptr<core::Verifier> build_verifier(const Config& cfg) {
  // Async mode ALWAYS builds its ladder, governor or not: the detector's
  // failover is a monotone downgrade to the synchronous WFG floor, which
  // needs a level to step down to.
  if (cfg.governor.enabled || cfg.policy == core::PolicyChoice::Async) {
    if (auto ladder = core::make_ladder_verifier(cfg.policy)) {
      return ladder;
    }
  }
  return core::make_verifier(cfg.policy);
}

// Cheap per-thread xorshift for chaos scheduling; distinct streams per
// thread via the TLS address, reproducibility comes from the seed salt.
bool chaos_roll(std::uint64_t seed) {
  thread_local std::uint64_t state = 0;
  if (state == 0) {
    state = seed ^ (reinterpret_cast<std::uintptr_t>(&state) | 1);
  }
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return (state & 7) == 0;
}

// Per-tenant recovery priorities for the async-mode victim picker, in
// admission tenant-index order (TenantBudget::priority).
std::vector<std::uint32_t> tenant_priorities(const Config& cfg) {
  std::vector<std::uint32_t> out;
  out.reserve(cfg.governor.tenants.size());
  for (const TenantBudget& t : cfg.governor.tenants) out.push_back(t.priority);
  return out;
}
}  // namespace

TaskBase::~TaskBase() {
  clear_wait_break();  // free an unconsumed recovery break's heap cell
  if (rt_ != nullptr && pnode_ != nullptr) {
    rt_->release_node(pnode_);
  }
}

void TaskBase::run() {
  obs::FlightRecorder* rec = rt_ != nullptr ? rt_->recorder() : nullptr;
  if (rec != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::TaskStart;
    e.actor = uid_;
    rec->emit(e);
  }
  if (cancel_requested_.load(std::memory_order_acquire)) {
    // Claimed after a cancellation request (e.g. a cooperative joiner won
    // the claim race against the canceller): honour the request, skip the
    // body.
    error_ = std::make_exception_ptr(CancelledError(
        "task cancelled before running (scope cancelled)", cancel_cause()));
  } else {
    try {
      execute();
    } catch (...) {
      error_ = std::current_exception();
    }
  }
  if (rt_ != nullptr) {
    // Must complete before the Done store: transfer_promise relies on
    // "done() implies the exit hook ran" (see Runtime::task_exiting).
    // The hook must never unwind into the claimer's frame — a cooperative
    // joiner inlining this task would otherwise see a foreign exception at
    // its join site and Done would never be published, stranding every
    // other joiner. Capture instead (the body's own error takes priority).
    try {
      rt_->task_exiting(*this);
    } catch (...) {
      if (!error_) error_ = std::current_exception();
    }
  }
  if (error_ && scope_ != nullptr) {
    // Structured recovery: a fault cancels the task's scope iff the scope
    // asked for it (CancellationScope OnFault::Cancel, or the root scope
    // under Config::cancel_on_fault).
    try {
      scope_->on_task_fault(error_);
    } catch (...) {
      // Cancellation delivery must not mask the original fault.
    }
  }
  if (rec != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::TaskEnd;
    e.actor = uid_;
    e.detail = error_ ? 1 : 0;
    rec->emit(e);
  }
  state_.store(TaskState::Done, std::memory_order_release);
  FaultInjector* inj = rt_ != nullptr ? rt_->injector_.get() : nullptr;
  if (inj == nullptr) {
    bump_wake_seq();
    return;
  }
  // Fault injection may delay this notification, or drop it entirely and
  // redeliver it from the housekeeper; the shared_ptr keeps the task alive
  // until the redelivery lands.
  auto self = shared_from_this();
  if (inj->perturb_wakeup([self] { self->bump_wake_seq(); })) {
    if (rec != nullptr) {
      rec->metrics().faults_injected.fetch_add(1, std::memory_order_relaxed);
      obs::Event e;
      e.kind = obs::EventKind::FaultInjected;
      e.actor = uid_;
      e.detail = static_cast<std::uint8_t>(obs::InjectedFault::DroppedWakeup);
      rec->emit(e);
    }
  } else {
    bump_wake_seq();
  }
}

bool TaskBase::cancel_requested() const {
  if (cancel_requested_.load(std::memory_order_acquire)) return true;
  // Scopes this task itself opened are exempt: their owner is the recovery
  // point and must be able to drain the cancelled members (see
  // CancelState::cancelled_for).
  return scope_ != nullptr && scope_->cancelled_for(this);
}

std::exception_ptr TaskBase::cancel_cause() const {
  return scope_ != nullptr ? scope_->cause() : nullptr;
}

bool TaskBase::deliver_cancel(const std::exception_ptr& cause) {
  cancel_requested_.store(true, std::memory_order_release);
  if (!try_claim()) {
    return false;  // running (cooperative flag only) or already done
  }
  // Won the claim: the body never runs. Complete the task as cancelled so
  // joiners fail fast; the exit hook orphans-and-poisons any promise the
  // task already owned (e.g. via spawn_owning's pre-submit transfer).
  error_ = std::make_exception_ptr(
      CancelledError("task cancelled before running (scope cancelled)",
                     cause));
  if (rt_ != nullptr) {
    try {
      rt_->task_exiting(*this);
    } catch (...) {
    }
  }
  state_.store(TaskState::Done, std::memory_order_release);
  bump_wake_seq();
  if (rt_ != nullptr) {
    rt_->task_cancelled_done();  // pairs with submit's live-task increment
  }
  return true;
}

namespace detail {

bool join_current_on(TaskBase& target,
                     std::optional<std::chrono::nanoseconds> timeout) {
  Runtime* rt = target.runtime();
  if (rt == nullptr) {
    throw UsageError("join: task was never registered with a runtime");
  }
  return rt->join(target, timeout);
}

PromiseStateBase::~PromiseStateBase() {
  if (rt_ != nullptr) {
    rt_->promise_state_released(*this);
  }
}

void PromiseStateBase::wait_settled_interruptible(TaskBase* waiter) const {
  if (waiter == nullptr) return wait_settled();
  // Parks on wake_seq_, NOT phase_: std::atomic::wait only returns once the
  // watched word differs from the captured value, so a recovery nudge (which
  // changes no promise phase) would never wake a phase_ waiter — the library
  // re-parks it internally and the posted break goes unobserved forever.
  // Every wake source (settlement and nudge_awaiters) bumps wake_seq_.
  while (true) {
    waiter->throw_if_wait_broken();
    const std::uint32_t seq = wake_seq_.load(std::memory_order_acquire);
    const std::uint32_t p = phase_.load(std::memory_order_acquire);
    if (p != kUnfulfilled && p != kFulfilling) return;
    // A break or settlement after the seq read bumps wake_seq_, so the wait
    // below returns immediately — no lost-wakeup window.
    waiter->throw_if_wait_broken();
    wake_seq_.wait(seq, std::memory_order_acquire);
  }
}

void await_promise_state(PromiseStateBase& s) {
  Runtime* rt = s.rt_;
  if (rt == nullptr) {
    throw UsageError("await: promise was never registered with a runtime");
  }
  rt->await_promise(s);
}

void fulfill_check(PromiseStateBase& s) {
  Runtime* rt = s.rt_;
  if (rt == nullptr) {
    throw UsageError("fulfill: promise was never registered with a runtime");
  }
  TaskBase& cur = current_task();
  if (cur.runtime() != rt) {
    throw UsageError("fulfill: current task belongs to another runtime");
  }
  switch (rt->gate_.enter_fulfill(s.pnode_, cur.uid())) {
    case core::FulfillDecision::AlreadySettled:
      throw UsageError("promise already settled");
    case core::FulfillDecision::FaultNotOwner:
      throw PolicyViolationError(
          "fulfill rejected: the calling task does not own the promise");
    case core::FulfillDecision::Proceed:
      break;
  }
  if (rt->injector_ != nullptr) {
    // Chaos: the fulfiller dies *before* the value is published — the
    // promise stays unfulfilled and is orphaned (and poisoned with this
    // fault) when the owner's exit hook runs.
    rt->injector_->maybe_fail_fulfill();
  }
}

void fulfill_record(PromiseStateBase& s) {
  Runtime* rt = s.rt_;
  if (rt->injector_ != nullptr) {
    // Chaos: stretch the kFulfilling window so awaiters race settling.
    rt->injector_->maybe_delay_publication();
  }
  if (rt->cfg_.record_trace) {
    rt->record(trace::fulfill(
        static_cast<trace::TaskId>(current_task().uid()),
        static_cast<trace::PromiseId>(s.uid_)));
  }
  if (rt->recorder_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::PromiseFulfill;
    e.actor = current_task().uid();
    e.target = s.uid_;
    e.flags = obs::kFlagPromise;
    rt->recorder_->emit(e);
  }
}

void fulfill_committed(PromiseStateBase& s) {
  s.rt_->gate_.fulfill_committed(s.pnode_);
}

void transfer_promise_state(PromiseStateBase& s, const TaskBase& to) {
  Runtime* rt = s.rt_;
  if (rt == nullptr) {
    throw UsageError("transfer: promise was never registered with a runtime");
  }
  rt->transfer_promise(s, to);
}

}  // namespace detail

Runtime::Runtime(Config cfg)
    : cfg_(Config::normalize(std::move(cfg))),
      verifier_(build_verifier(cfg_)),
      owp_(core::make_ownership_verifier(cfg_.promise_policy)),
      recorder_(cfg_.obs.enabled
                    ? std::make_unique<obs::FlightRecorder>(cfg_.obs)
                    : nullptr),
      injector_(cfg_.fault_plan.enabled()
                    ? std::make_unique<FaultInjector>(cfg_.fault_plan,
                                                      housekeeper_)
                    : nullptr),
      gate_(cfg_.policy, verifier_.get(), cfg_.fault, owp_.get(),
            injector_.get(), recorder_.get()),
      sched_(cfg_.scheduler, cfg_.effective_workers(), cfg_.max_threads,
             injector_.get(), recorder_.get()),
      root_scope_(std::make_shared<detail::CancelState>(cfg_.cancel_on_fault,
                                                        nullptr)),
      governor_(cfg_.governor.enabled
                    ? std::make_unique<ResourceGovernor>(
                          cfg_.governor,
                          dynamic_cast<core::LadderVerifier*>(verifier_.get()),
                          &gate_.graph(),
                          [this] { return sched_.live_tasks(); },
                          recorder_.get())
                    : nullptr),
      recovery_(cfg_.policy == core::PolicyChoice::Async
                    ? std::make_unique<RecoverySupervisor>(
                          cfg_.detector, gate_, *recorder_,
                          dynamic_cast<core::LadderVerifier*>(verifier_.get()),
                          injector_.get(), tenant_priorities(cfg_))
                    : nullptr),
      watchdog_(cfg_.watchdog.enabled
                    ? std::make_unique<JoinWatchdog>(cfg_.watchdog, gate_,
                                                     recorder_.get(),
                                                     governor_.get(),
                                                     recovery_.get())
                    : nullptr),
      admission_(!cfg_.governor.tenants.empty()
                     ? std::make_unique<AdmissionController>(
                           cfg_.governor.tenants, gate_,
                           [this] { return sched_.live_tasks(); },
                           [this] { return policy_bytes(); },
                           recorder_.get())
                     : nullptr) {
  if (recovery_ != nullptr) recovery_->start();
  if (governor_ != nullptr) {
    housekeeper_.every(std::chrono::milliseconds(cfg_.governor.poll_ms),
                       [g = governor_.get()] { g->poll_now(); });
  }
  if (watchdog_ != nullptr) {
    housekeeper_.every(std::chrono::milliseconds(cfg_.watchdog.poll_ms),
                       [w = watchdog_.get()] { w->poll_now(); });
  }
}

Runtime::~Runtime() {
  // All spawned tasks must finish before the scheduler can be torn down;
  // root() already quiesces, this covers error paths.
  sched_.quiesce();
  // Stop background work while every member is alive: a pending redelivery
  // can hold the last reference to a task whose release erases promises_.
  housekeeper_.stop();
  // Likewise a stale run-queue entry, or one a worker is still releasing
  // after quiesce, can hold a cancelled task whose unrun closure owns a
  // promise: join the workers and drop the entries before members die.
  sched_.stop();
}

void Runtime::claim_root() {
  if (current_task_or_null() != nullptr) {
    throw UsageError("root: already inside a task context");
  }
  bool expected = false;
  if (!root_claimed_.compare_exchange_strong(expected, true)) {
    throw UsageError("root: a runtime hosts exactly one root task");
  }
}

void Runtime::register_task(TaskBase& t, const TaskBase* parent) {
  if (cfg_.chaos_seed != 0 && chaos_roll(cfg_.chaos_seed)) {
    std::this_thread::yield();
  }
  t.uid_ = next_uid_.fetch_add(1, std::memory_order_relaxed);
  t.rt_ = this;
  // Tasks inherit the spawning task's (innermost) cancellation scope; the
  // root task lives in the runtime's root scope.
  t.scope_ = parent != nullptr ? parent->scope_ : root_scope_;
  if (verifier_ != nullptr) {
    t.pnode_ =
        verifier_->add_child(parent != nullptr ? parent->policy_node()
                                               : nullptr);
  }
  if (cfg_.record_trace) {
    const auto id = static_cast<trace::TaskId>(t.uid_);
    record(parent != nullptr
               ? trace::fork(static_cast<trace::TaskId>(parent->uid()), id)
               : trace::init(id));
  }
  if (recorder_ != nullptr) {
    // Request spans: the child inherits the spawning thread's context — the
    // parent task's (installed by CurrentTaskGuard) or an explicit
    // RequestScope at a service's submission point. Recorder-off runs skip
    // even the TLS read so the hot spawn path is untouched.
    t.req_ctx_ = obs::tls_request_context();
    obs::Event e;
    if (parent != nullptr) {
      e.kind = obs::EventKind::TaskSpawn;
      e.actor = parent->uid();
      e.target = t.uid_;
    } else {
      e.kind = obs::EventKind::TaskInit;
      e.actor = t.uid_;
    }
    recorder_->emit(e);
  }
}

void Runtime::record(const trace::Action& a) {
  std::scoped_lock lock(trace_mu_);
  recorded_.push_back(a);
}

trace::Trace Runtime::recorded_trace() const {
  std::scoped_lock lock(trace_mu_);
  return trace::Trace(recorded_);
}

std::uint64_t Runtime::trace_position() const {
  std::scoped_lock lock(trace_mu_);
  return recorded_.size();
}

void Runtime::release_node(core::PolicyNode* node) {
  if (verifier_ != nullptr) {
    verifier_->release(node);
  }
}

void Runtime::throw_if_cancelled(const TaskBase& t) {
  // Unlike the join/await checkpoints, spawning is NOT owner-exempt: a
  // cancelled scope accepts no new work from anyone — the owner drains and
  // recovers *outside* the failed scope.
  if (t.cancel_requested() ||
      (t.scope_ != nullptr && t.scope_->cancelled())) {
    throw CancelledError("spawn abandoned: the spawning task was cancelled",
                         t.cancel_cause());
  }
}

void Runtime::track_in_scope(const std::shared_ptr<TaskBase>& t) {
  if (t->scope_ != nullptr) {
    t->scope_->track_task(t);
  }
}

void Runtime::task_cancelled_done() { sched_.note_task_done(); }

void Runtime::cancel_all(std::exception_ptr cause) {
  if (recorder_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::CancelAll;
    const TaskBase* cur = current_task_or_null();
    e.actor = cur != nullptr ? cur->uid() : 0;
    recorder_->emit(e);
  }
  root_scope_->cancel(std::move(cause));
}

TaskBase& Runtime::enter_wait(const char* op) {
  if (cfg_.chaos_seed != 0 && chaos_roll(cfg_.chaos_seed)) {
    std::this_thread::yield();
  }
  TaskBase& cur = current_task();
  if (cur.runtime() != this) {
    throw UsageError(std::string(op) +
                     ": current task belongs to another runtime");
  }
  if (cur.cancel_requested()) {
    // Cancellation checkpoint: a cancelled task must not start a new
    // blocking wait. It throws whatever state the target is in, so a
    // Running target can outlive the waiter's frame (see Runtime::join).
    throw CancelledError(std::string(op) + " abandoned: the " + op +
                             "ing task was cancelled",
                         cur.cancel_cause());
  }
  return cur;
}

void Runtime::throw_if_rejected(core::JoinDecision d, core::Witness& why,
                                const char* deadlock_msg,
                                const char* policy_msg) const {
  if (d != core::JoinDecision::FaultDeadlock &&
      d != core::JoinDecision::FaultPolicy) {
    return;
  }
  if (cfg_.record_trace) why.trace_pos = trace_position();
  if (d == core::JoinDecision::FaultDeadlock) {
    throw DeadlockAvoidedError(deadlock_msg, std::move(why));
  }
  throw PolicyViolationError(policy_msg, std::move(why));
}

bool Runtime::join(TaskBase& target,
                   std::optional<std::chrono::nanoseconds> timeout) {
  TaskBase& cur = enter_wait("join");
  const bool was_done = target.done();
  // A deadline does not weaken the policy: a join the policy would reject
  // still faults rather than timing out.
  core::Witness why;
  const core::JoinDecision d =
      gate_.enter_join(cur.uid(), target.uid(), cur.policy_node(),
                       target.policy_node(), was_done, &why);
  throw_if_rejected(d, why,
                    "join aborted: blocking would create a deadlock cycle",
                    "join rejected by the active policy");
  // Async mode: the wait is breakable — registered with the recovery
  // supervisor for the guard's whole lifetime, which outlives the catch
  // block's leave_join so a broken victim's WFG edge is withdrawn *before*
  // its registry entry disappears (the detector then cannot re-confirm the
  // broken cycle against a registry that no longer names the victim).
  RecoveryWaitGuard rguard(!was_done ? recovery_.get() : nullptr, &cur,
                           &target, nullptr, cur.request_context().tenant);
  bool completed = was_done;
  try {
    if (!was_done) {
      WatchdogBlockGuard guard(
          watchdog_.get(), cur.uid(), target.uid(), /*on_promise=*/false,
          d == core::JoinDecision::ProceedFalsePositive
              ? "policy-rejected, fallback-cleared"
              : "policy-approved");
      const std::uint64_t t0 =
          recorder_ != nullptr ? recorder_->now_ns() : 0;
      completed = sched_.join_wait(target, timeout);
      if (recorder_ != nullptr && completed) {
        const std::uint64_t blocked = recorder_->now_ns() - t0;
        recorder_->metrics().blocked_join_ns.record(blocked);
        obs::Event e;
        e.kind = obs::EventKind::JoinBlocked;
        e.actor = cur.uid();
        e.target = target.uid();
        e.payload = blocked;
        recorder_->emit(e);
      }
    }
  } catch (...) {
    gate_.leave_join(cur.uid(), target.uid(), cur.policy_node(),
                     target.policy_node(), /*completed=*/false);
    throw;
  }
  gate_.leave_join(cur.uid(), target.uid(), cur.policy_node(),
                   target.policy_node(), completed);
  if (!completed) {
    // Deadline expired: the wait edge is withdrawn. No KJ-learn, no trace
    // join record — from the formalism's view this join never happened, so
    // a later retry is a fresh join.
    if (recorder_ != nullptr) {
      recorder_->metrics().join_timeouts.fetch_add(1,
                                                   std::memory_order_relaxed);
      obs::Event e;
      e.kind = obs::EventKind::JoinTimeout;
      e.actor = cur.uid();
      e.target = target.uid();
      e.payload = static_cast<std::uint64_t>(timeout->count());
      recorder_->emit(e);
    }
    return false;
  }
  if (cfg_.record_trace) {
    record(trace::join(static_cast<trace::TaskId>(cur.uid()),
                       static_cast<trace::TaskId>(target.uid())));
  }
  if (recorder_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::JoinComplete;
    e.actor = cur.uid();
    e.target = target.uid();
    recorder_->emit(e);
  }
  return true;
}

void Runtime::run_inline(TaskBase& t) {
  // Spawn-backpressure path: the caller claimed the task; run it here, in
  // the caller's context, exactly as a cooperative joiner would inline it.
  // The task was never submitted, so no live-task accounting applies.
  const TaskBase* cur = current_task_or_null();
  if (recorder_ != nullptr) {
    recorder_->metrics().spawn_inlines.fetch_add(1, std::memory_order_relaxed);
    obs::Event e;
    e.kind = obs::EventKind::SpawnInlined;
    e.actor = cur != nullptr ? cur->uid() : 0;
    e.target = t.uid();
    e.payload = sched_.live_tasks();
    recorder_->emit(e);
  }
  // Unlike a cooperative inline-claim (whose join registered a wait edge
  // before claiming), a spawn-time inline has no edge yet — register one,
  // or a child that blocks on work only this suspended caller's
  // continuation can do (e.g. awaiting a sibling promise the caller has
  // not yet routed) hangs on an acyclic-looking graph. With the edge, the
  // gate's fallback sees the cycle and faults the child's wait instead.
  const bool edged =
      cur != nullptr && gate_.inline_run_begin(cur->uid(), t.uid());
  {
    detail::CurrentTaskGuard guard(&t);
    t.run();
  }
  if (edged) {
    gate_.inline_run_end(cur->uid());
  }
}

void Runtime::init_promise_state(detail::PromiseStateBase& s) {
  TaskBase& cur = current_task();
  if (cur.runtime() != this) {
    throw UsageError("make_promise: current task belongs to another runtime");
  }
  s.uid_ = next_promise_uid_.fetch_add(1, std::memory_order_relaxed);
  s.rt_ = this;
  s.pnode_ = gate_.promise_made(cur.uid(), s.uid_);
  {
    std::scoped_lock lock(promises_mu_);
    promises_.emplace(s.uid_, &s);
  }
  if (cfg_.record_trace) {
    record(trace::make(static_cast<trace::TaskId>(cur.uid()),
                       static_cast<trace::PromiseId>(s.uid_)));
  }
  if (recorder_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::PromiseMake;
    e.actor = cur.uid();
    e.target = s.uid_;
    e.flags = obs::kFlagPromise;
    recorder_->emit(e);
  }
}

void Runtime::await_promise(detail::PromiseStateBase& s) {
  TaskBase& cur = enter_wait("await");
  const bool was_fulfilled = s.fulfilled();
  core::Witness why;
  const core::JoinDecision d =
      gate_.enter_await(cur.uid(), s.pnode_, was_fulfilled, &why);
  if (d == core::JoinDecision::FaultDeadlock) {
    if (auto cause = s.poison_cause(); cause) {
      // The owner was cancelled (or died of a fault) before we blocked:
      // surface the originating fault, not a bare orphan deadlock.
      throw CancelledError(
          "await aborted: the promise was poisoned by cancellation", cause);
    }
  }
  throw_if_rejected(d, why,
                    "await aborted: the promise is orphaned or blocking on "
                    "it would create a deadlock cycle",
                    "await rejected by the ownership policy");
  if (!was_fulfilled) {
    const std::uint64_t t0 = recorder_ != nullptr ? recorder_->now_ns() : 0;
    // Breakable-wait bracket, outliving the catch block's leave_await (see
    // join() for the ordering argument).
    RecoveryWaitGuard rguard(recovery_.get(), &cur, nullptr, &s,
                             cur.request_context().tenant);
    try {
      // Awaits cannot be helped by cooperative inlining (no known fulfiller
      // task to run), so both scheduler modes treat them as a blocking
      // region and may grow a compensation worker.
      detail::BlockingRegionGuard region(sched_);
      WatchdogBlockGuard guard(
          watchdog_.get(), cur.uid(), s.uid_, /*on_promise=*/true,
          d == core::JoinDecision::ProceedFalsePositive
              ? "owp-rejected, fallback-cleared"
              : "owp-approved");
      s.wait_settled_interruptible(&cur);
    } catch (...) {
      gate_.leave_await(cur.uid());
      throw;
    }
    gate_.leave_await(cur.uid());
    if (recorder_ != nullptr) {
      const std::uint64_t blocked = recorder_->now_ns() - t0;
      recorder_->metrics().blocked_await_ns.record(blocked);
      obs::Event e;
      e.kind = obs::EventKind::AwaitBlocked;
      e.actor = cur.uid();
      e.target = s.uid_;
      e.payload = blocked;
      e.flags = obs::kFlagPromise;
      recorder_->emit(e);
    }
  }
  if (!s.fulfilled()) {
    if (auto cause = s.poison_cause(); cause) {
      throw CancelledError(
          "await aborted: the promise was poisoned while blocking (its "
          "owner was cancelled)",
          cause);
    }
    // Woken by orphaning, not by a value: the promise's owner terminated
    // while we were blocked. Certain deadlock without the wake-up.
    throw DeadlockAvoidedError(
        "await aborted: the promise was orphaned while blocking (its owner "
        "terminated without fulfilling it)");
  }
  if (cfg_.record_trace) {
    record(trace::await(static_cast<trace::TaskId>(cur.uid()),
                        static_cast<trace::PromiseId>(s.uid_)));
  }
  if (recorder_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::AwaitComplete;
    e.actor = cur.uid();
    e.target = s.uid_;
    e.flags = obs::kFlagPromise;
    recorder_->emit(e);
  }
}

void Runtime::transfer_promise(detail::PromiseStateBase& s,
                               const TaskBase& to) {
  TaskBase& cur = current_task();
  if (cur.runtime() != this || to.runtime() != this) {
    throw UsageError("transfer: task belongs to another runtime");
  }
  if (to.done()) {
    throw UsageError("transfer: receiving task already terminated");
  }
  switch (gate_.promise_transfer(s.pnode_, cur.uid(), to.uid())) {
    case core::TransferDecision::FaultNotOwner:
      throw PolicyViolationError(
          "transfer rejected: the calling task does not own the promise");
    case core::TransferDecision::FaultSettled:
      throw UsageError("transfer: promise already settled");
    case core::TransferDecision::FaultTargetDead:
      throw UsageError("transfer: receiving task already terminated");
    case core::TransferDecision::FaultWouldDeadlock:
      throw DeadlockAvoidedError(
          "transfer aborted: the new owner transitively waits on this "
          "promise");
    case core::TransferDecision::OrphanedReceiverDead:
      // Ownership moved, but the receiver died in the handoff window: the
      // promise is orphaned exactly as if the receiver had died owning it.
      if (to.error_) s.set_poison(to.error_);
      s.try_orphan();
      break;
    case core::TransferDecision::Ok:
      break;
  }
  if (cfg_.record_trace) {
    record(trace::transfer(static_cast<trace::TaskId>(cur.uid()),
                           static_cast<trace::TaskId>(to.uid()),
                           static_cast<trace::PromiseId>(s.uid_)));
  }
  if (recorder_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::PromiseTransfer;
    e.actor = cur.uid();
    e.target = to.uid();
    e.payload = s.uid_;
    e.flags = obs::kFlagPromise;
    recorder_->emit(e);
  }
}

void Runtime::promise_state_released(detail::PromiseStateBase& s) {
  {
    std::scoped_lock lock(promises_mu_);
    promises_.erase(s.uid_);
  }
  gate_.promise_released(s.pnode_);
}

void Runtime::task_exiting(TaskBase& t) {
  const std::vector<std::uint64_t> orphans = gate_.task_exited(t.uid());
  if (!orphans.empty()) {
    // A task that died of a fault (or was cancelled) poisons the promises
    // it leaves behind: awaiters observe the originating fault instead of a
    // bare orphan deadlock.
    orphan_states(orphans, t.error_);
  }
}

void Runtime::orphan_states(const std::vector<std::uint64_t>& promise_uids,
                            const std::exception_ptr& cause) {
  std::scoped_lock lock(promises_mu_);
  for (const std::uint64_t uid : promise_uids) {
    const auto it = promises_.find(uid);
    if (it == promises_.end()) continue;  // last handle already dropped
    // Poison is written before the orphan CAS publishes (release), so any
    // reader that observed kOrphaned sees the cause.
    if (cause) it->second->set_poison(cause);
    it->second->try_orphan();  // loses to an in-flight (non-owner) fulfill
  }
}

}  // namespace tj::runtime
