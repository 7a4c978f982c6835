#pragma once
// Runtime: owns the verifier, the join gate (policy + cycle-detection
// fallback) and the scheduler; implements the instrumented Fork and Join of
// Algorithm 1. One root task per Runtime (the trace's init action); every
// other task is created by async() from within a task context.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "core/guarded.hpp"
#include "core/owp.hpp"
#include "trace/trace.hpp"
#include "core/verifier.hpp"
#include "runtime/admission.hpp"
#include "runtime/cancellation.hpp"
#include "runtime/config.hpp"
#include "runtime/errors.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/future.hpp"
#include "runtime/governor.hpp"
#include "runtime/housekeeper.hpp"
#include "runtime/promise.hpp"
#include "runtime/recovery.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task.hpp"
#include "runtime/watchdog.hpp"

namespace tj::runtime {

class Runtime {
 public:
  explicit Runtime(Config cfg = {});
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Executes `f` as the root task on the calling thread (the init action),
  /// returns its result after every spawned task has terminated. A Runtime
  /// hosts exactly one root; create a fresh Runtime per program run.
  template <typename F>
  auto root(F&& f) {
    using T = std::invoke_result_t<std::decay_t<F>>;
    claim_root();
    auto task = std::make_shared<detail::TaskImpl<T, std::decay_t<F>>>(
        std::forward<F>(f));
    register_task(*task, nullptr);  // the init action
    task->try_claim();
    {
      detail::CurrentTaskGuard guard(task.get());
      task->run();
    }
    sched_.quiesce();
    task->rethrow_if_error();
    if constexpr (!std::is_void_v<T>) {
      return task->result();
    }
  }

  /// Forks a task executing `fn` as a child of the current task
  /// (Algorithm 1 Fork). Used through the free function async().
  template <typename F>
  auto spawn(F&& fn) {
    using T = std::invoke_result_t<std::decay_t<F>>;
    TaskBase& parent = current_task();
    if (parent.runtime() != this) {
      throw UsageError("spawn: current task belongs to another runtime");
    }
    throw_if_cancelled(parent);  // spawn is a cancellation checkpoint
    auto task = std::make_shared<detail::TaskImpl<T, std::decay_t<F>>>(
        std::forward<F>(fn));
    register_task(*task, &parent);
    std::shared_ptr<Task<T>> handle = task;
    if (spawn_backpressure()) {
      // Admission control: past the live-task watermark the child runs
      // inline in the caller instead of growing the queue/pool. Claimed
      // BEFORE it is visible to the cancellation scope, so a concurrent
      // cancel sees it Running and cannot force-complete it (whose
      // accounting assumes a submitted task).
      task->try_claim();
      track_in_scope(handle);
      run_inline(*handle);
      return Future<T>(std::move(handle));
    }
    sched_.submit(std::move(task));
    // Tracked only after submit: a cancellation-driven force-complete must
    // pair with submit's live-task accounting.
    track_in_scope(handle);
    return Future<T>(std::move(handle));
  }

  /// Instrumented join of the current task on `target` (Algorithm 1 Join):
  /// policy check, fault or wait, then completion bookkeeping. Used through
  /// Future::get/join (no `timeout`) and Future::join_for/get_for.
  ///
  /// A `timeout` bounds only the wait; the gate ruling is the same. Returns
  /// true iff the target terminated (full join bookkeeping ran); false iff
  /// the deadline expired — the wait edge is withdrawn, no KJ-learn / trace
  /// join is recorded (the join did not happen), and the caller may retry.
  /// Without a timeout it returns true or throws.
  ///
  /// Cancellation: a cancelled joiner throws CancelledError at the join's
  /// checkpoint whatever state the target is in, so a target that is already
  /// Running keeps running after the joiner's frame unwinds. A task body
  /// that captures the joiner's locals by reference (`[&]`) can then read a
  /// dead frame; capture shared state by value (e.g. a std::shared_ptr)
  /// wherever the joiner can be cancelled.
  bool join(TaskBase& target,
            std::optional<std::chrono::nanoseconds> timeout);

  /// Makes a promise owned by the current task. Used through make_promise()
  /// in api.hpp.
  template <typename T>
  Promise<T> make_promise() {
    auto state = std::make_shared<detail::PromiseState<T>>();
    init_promise_state(*state);
    return Promise<T>(std::move(state));
  }

  /// Forks `fn` as a child of the current task and transfers ownership of
  /// `p` to it before it can run — the canonical "spawn the task obligated
  /// to fulfill this promise" idiom, with no window in which the child could
  /// terminate before receiving ownership.
  template <typename T, typename F>
  auto spawn_owning(const Promise<T>& p, F&& fn) {
    using R = std::invoke_result_t<std::decay_t<F>>;
    TaskBase& parent = current_task();
    if (parent.runtime() != this) {
      throw UsageError("spawn: current task belongs to another runtime");
    }
    throw_if_cancelled(parent);  // spawn is a cancellation checkpoint
    auto task = std::make_shared<detail::TaskImpl<R, std::decay_t<F>>>(
        std::forward<F>(fn));
    register_task(*task, &parent);
    p.transfer_to(*task);  // child not yet submitted: cannot race its exit
    std::shared_ptr<Task<R>> handle = task;
    // No spawn-backpressure inlining here, ever: a promise-owning child's
    // obligation structure routinely needs the parent's *continuation* (the
    // canonical cross-owned pair spawns the second owner right after this
    // call), and inlining serializes child-before-continuation. run_inline's
    // WFG edge would detect the resulting cycle and fault the child — sound,
    // but needlessly faulting the textbook idiom; submitting sidesteps it.
    sched_.submit(std::move(task));
    track_in_scope(handle);
    return Future<R>(std::move(handle));
  }

  /// Cancels every still-pending task in the runtime (the root cancellation
  /// scope): structured shutdown after an external fault, or a watchdog
  /// callback's big red button. Idempotent; safe from any thread.
  void cancel_all(std::exception_ptr cause = {});

  const Config& config() const { return cfg_; }
  core::GateStats gate_stats() const { return gate_.stats(); }
  /// Faults actually injected by the fault plan (all zero when disabled).
  FaultStats fault_stats() const {
    return injector_ != nullptr ? injector_->stats() : FaultStats{};
  }
  /// The join watchdog, or nullptr when not enabled.
  const JoinWatchdog* watchdog() const { return watchdog_.get(); }
  /// The async-mode recovery supervisor, or nullptr unless
  /// Config::policy == PolicyChoice::Async.
  const RecoverySupervisor* recovery() const { return recovery_.get(); }
  /// The resource governor, or nullptr unless Config::governor.enabled.
  ResourceGovernor* governor() { return governor_.get(); }
  const ResourceGovernor* governor() const { return governor_.get(); }
  /// The per-tenant admission controller, or nullptr unless
  /// Config::governor.tenants is non-empty. Enforced inline (independent of
  /// governor.enabled) — see runtime/admission.hpp.
  AdmissionController* admission() { return admission_.get(); }
  const AdmissionController* admission() const { return admission_.get(); }
  /// The policy currently ruling joins: equals config().policy until the
  /// governor downgrades the ladder, then the active (lower) level.
  core::PolicyChoice active_policy() const { return gate_.active_kind(); }
  /// The thread for periodic and delayed work (runtime/housekeeper.hpp).
  Housekeeper& housekeeper() const { return housekeeper_; }
  /// The flight recorder, or nullptr when Config::obs.enabled is false.
  obs::FlightRecorder* recorder() const { return recorder_.get(); }
  /// The gate itself (diagnostics/tests: e.g. polling graph().is_waiting()).
  const core::JoinGate& gate() const { return gate_; }
  core::Verifier* verifier() { return verifier_.get(); }
  Scheduler& scheduler() { return sched_; }
  const Scheduler& scheduler() const { return sched_; }

  /// Exact live/peak bytes of verifier state (0 when no policy is active).
  std::size_t policy_bytes() const {
    return verifier_ ? verifier_->bytes_in_use() : 0;
  }
  std::size_t policy_peak_bytes() const {
    return verifier_ ? verifier_->peak_bytes() : 0;
  }

  /// Exact live/peak bytes of ownership-policy state (0 when unverified).
  std::size_t owp_bytes() const { return owp_ ? owp_->bytes_in_use() : 0; }
  std::size_t owp_peak_bytes() const {
    return owp_ ? owp_->peak_bytes() : 0;
  }

  /// Number of tasks created (root included) — the trace's |A|.
  std::uint64_t tasks_created() const {
    return next_uid_.load(std::memory_order_relaxed);
  }

  /// Number of promises made — the trace's |P|.
  std::uint64_t promises_made() const {
    return next_promise_uid_.load(std::memory_order_relaxed);
  }

  /// The recorded execution trace (Def. 3.1): init/fork actions at task
  /// creation, join actions at join completion. Empty unless
  /// Config::record_trace; meaningful once the runtime is quiescent.
  trace::Trace recorded_trace() const;

 private:
  friend class TaskBase;
  friend class detail::PromiseStateBase;
  friend void detail::await_promise_state(detail::PromiseStateBase&);
  friend void detail::fulfill_check(detail::PromiseStateBase&);
  friend void detail::fulfill_record(detail::PromiseStateBase&);
  friend void detail::fulfill_committed(detail::PromiseStateBase&);
  friend void detail::transfer_promise_state(detail::PromiseStateBase&,
                                             const TaskBase&);

  void claim_root();
  void register_task(TaskBase& t, const TaskBase* parent);
  void release_node(core::PolicyNode* node);
  void record(const trace::Action& a);
  /// Length of the recorded trace right now — stamped into a rejection
  /// witness as Witness::trace_pos so the offline validator evaluates
  /// prefix-sensitive judgments at the rejection-time prefix.
  std::uint64_t trace_position() const;

  /// Prologue shared by join and await (`op` names which, for messages):
  /// chaos yield, the other-runtime check and the cancellation checkpoint.
  /// Returns the current task.
  TaskBase& enter_wait(const char* op);
  /// Turns a gate rejection into its exception, with the witness stamped at
  /// the current trace position; returns on Proceed/ProceedFalsePositive.
  void throw_if_rejected(core::JoinDecision d, core::Witness& why,
                         const char* deadlock_msg,
                         const char* policy_msg) const;

  // Spawn backpressure (admission control): past the live-task watermark,
  // async() runs the child inline in the caller instead of submitting it.
  bool spawn_backpressure() const {
    const std::size_t wm = cfg_.governor.spawn_inline_watermark;
    return wm != 0 && sched_.live_tasks() >= wm;
  }
  void run_inline(TaskBase& t);  // pre: claimed + tracked; in runtime.cpp

  // Cancellation plumbing (implementations in runtime.cpp).
  void throw_if_cancelled(const TaskBase& t);
  void track_in_scope(const std::shared_ptr<TaskBase>& t);
  void task_cancelled_done();  // live-task accounting for force-completes

  // Promise plumbing (implementations in runtime.cpp).
  void init_promise_state(detail::PromiseStateBase& s);
  void await_promise(detail::PromiseStateBase& s);
  void transfer_promise(detail::PromiseStateBase& s, const TaskBase& to);
  void promise_state_released(detail::PromiseStateBase& s);
  /// Task-exit hook, called by TaskBase::run() *before* Done is published:
  /// a transfer that commits after this ran observes the task in the OWP's
  /// dead set; one that committed before is swept here. Either way no
  /// promise is stranded on a terminated owner.
  void task_exiting(TaskBase& t);
  /// Orphans each listed promise; when `cause` is non-null (the owner died
  /// of a fault / was cancelled) the promise is poisoned first so awaiters
  /// observe CancelledError-with-cause rather than a bare orphan deadlock.
  void orphan_states(const std::vector<std::uint64_t>& promise_uids,
                     const std::exception_ptr& cause);

  Config cfg_;
  // Retains process-wide lock/worker profiling while this runtime lives
  // (iff obs is on). Declared right after cfg_ (it reads the normalized
  // flag) and before every lock-owning member, so profiling is already
  // enabled when their first acquisitions happen and stays enabled until
  // after they are destroyed.
  obs::ContentionEnableGuard contention_guard_{cfg_.obs.enabled};
  std::unique_ptr<core::Verifier> verifier_;
  std::unique_ptr<core::OwpVerifier> owp_;
  // Declared before gate_/sched_/watchdog_ (they hold non-owning pointers to
  // it) and destroyed after them; nullptr unless cfg_.obs.enabled.
  std::unique_ptr<obs::FlightRecorder> recorder_;
  // Declared before gate_/sched_ (they hold non-owning pointers to it) and
  // destroyed after them. Its pending redeliveries live on housekeeper_.
  std::unique_ptr<FaultInjector> injector_;
  core::JoinGate gate_;
  Scheduler sched_;
  std::shared_ptr<detail::CancelState> root_scope_;
  // After root_scope_, before watchdog_: the watchdog holds a non-owning
  // pointer to the governor (stall reports name the active level), so the
  // governor must outlive it. Its polls read the ladder verifier and the
  // gate's WFG; they run on housekeeper_, which stops before either dies.
  std::unique_ptr<ResourceGovernor> governor_;
  // Async (optimistic) mode only: owns the background detector and breaks
  // victims' waits. After governor_ (failover steps the same ladder the
  // governor owns transitions for) and before watchdog_ (stall reports read
  // detector status, so the watchdog must die first); destroyed before
  // gate_/recorder_/sched_, which its detector thread reads until stopped.
  std::unique_ptr<RecoverySupervisor> recovery_;
  std::unique_ptr<JoinWatchdog> watchdog_;
  // References gate_/sched_/verifier_ via callbacks but runs no background
  // work — calls happen only on request threads, which are quiescent before
  // ~Runtime begins.
  std::unique_ptr<AdmissionController> admission_;
  std::atomic<std::uint64_t> next_uid_{0};
  std::atomic<std::uint64_t> next_promise_uid_{0};
  std::atomic<bool> root_claimed_{false};
  mutable std::mutex trace_mu_;
  std::vector<trace::Action> recorded_;  // guarded by trace_mu_
  mutable std::mutex promises_mu_;
  // Live promise states by uid (for the orphan sweep).  guarded by promises_mu_
  std::unordered_map<std::uint64_t, detail::PromiseStateBase*> promises_;
  // Last, so it stops first even if the constructor throws: its callbacks
  // touch the members above. Telemetry registers via a const Runtime&.
  mutable Housekeeper housekeeper_;
};

}  // namespace tj::runtime
