#pragma once
// Task records. A task is a unit of asynchronous work whose eventual result
// is exposed through a Future handle (Sec. 2.2's program model). The record
// carries the verifier's per-task policy state and a tiny lock-free state
// machine used both by the scheduler (claiming) and by joiners (waiting).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "core/verifier.hpp"
#include "obs/event.hpp"

namespace tj::runtime {

class Runtime;
class CancellationScope;

namespace detail {
class CancelState;
}

enum class TaskState : std::uint32_t {
  Queued,   ///< spawned, waiting in the scheduler queue
  Running,  ///< claimed by a worker (or inlined by a cooperative joiner)
  Done,     ///< terminated; result or error available
};

class TaskBase : public std::enable_shared_from_this<TaskBase> {
 public:
  virtual ~TaskBase();  // releases the policy node (defined in runtime.cpp)
  TaskBase(const TaskBase&) = delete;
  TaskBase& operator=(const TaskBase&) = delete;

  bool done() const {
    return state_.load(std::memory_order_acquire) == TaskState::Done;
  }

  /// CAS Queued → Running; exactly one claimer wins a queued task.
  bool try_claim() {
    TaskState expected = TaskState::Queued;
    return state_.compare_exchange_strong(expected, TaskState::Running,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
  }

  /// Executes the body, captures any exception, runs the runtime's task-exit
  /// hook (which orphans promises the task still owns — it must complete
  /// *before* Done is published, see Runtime::task_exiting), then publishes
  /// Done and wakes every blocked joiner. Pre: this thread claimed the task.
  /// Defined in runtime.cpp.
  void run();

  /// Blocks the calling thread until the task is Done, or until `timeout`
  /// elapses when one is given; true iff the task is Done. Throws when the
  /// recovery supervisor posts a wait-break on `waiter` (the task doing the
  /// joining; null for external threads, which cannot be deadlock victims).
  ///
  /// Without a timeout the wait parks on wake_seq_, NOT state_, and never
  /// reads the clock: std::atomic::wait only returns once the watched word
  /// differs from the captured value, so a break nudge (which changes no
  /// task state) would never wake a state_ waiter — the library re-parks it
  /// internally. Every wake source (Done publication and nudge_waiters)
  /// bumps wake_seq_, making each notify observable here.
  ///
  /// With a timeout it polls with capped exponential backoff (50µs → 1ms),
  /// since std::atomic has no timed wait: the deadline is honoured to ~1ms
  /// granularity, which the join_for API documents, and a posted break is
  /// observed within one nap without any extra notification.
  bool wait_done(TaskBase* waiter,
                 std::optional<std::chrono::nanoseconds> timeout) const {
    std::chrono::steady_clock::time_point deadline;
    if (timeout) deadline = std::chrono::steady_clock::now() + *timeout;
    auto nap = std::chrono::microseconds(50);
    while (true) {
      if (waiter != nullptr) waiter->throw_if_wait_broken();
      const std::uint32_t seq = wake_seq_.load(std::memory_order_acquire);
      if (done()) return true;
      if (!timeout) {
        // A break or Done published after the seq read bumps wake_seq_, so
        // the wait below returns immediately — no lost-wakeup window.
        if (waiter != nullptr) waiter->throw_if_wait_broken();
        wake_seq_.wait(seq, std::memory_order_acquire);
        continue;
      }
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return done();
      const auto remaining =
          std::chrono::duration_cast<std::chrono::microseconds>(deadline - now);
      std::this_thread::sleep_for(nap < remaining ? nap : remaining);
      if (nap < std::chrono::microseconds(1000)) nap *= 2;
    }
  }

  TaskState state() const { return state_.load(std::memory_order_acquire); }

  /// Rethrows the task's captured exception, if any. Pre: done().
  void rethrow_if_error() const {
    if (error_) std::rethrow_exception(error_);
  }
  bool failed() const { return static_cast<bool>(error_); }

  std::uint64_t uid() const { return uid_; }
  Runtime* runtime() const { return rt_; }
  core::PolicyNode* policy_node() const { return pnode_; }

  /// Request attribution inherited from the spawning thread's RequestScope
  /// (or the parent task's context) at registration; all-zero when the
  /// recorder is off or no scope was installed. The scheduler re-installs it
  /// as the thread-local context around every execution of this task.
  const obs::RequestContext& request_context() const { return req_ctx_; }

  /// True when this task has been asked to cancel (its cancellation scope
  /// cancelled). Cooperative: the runtime checks it at spawn/join/await
  /// checkpoints; long-running bodies may poll it. Defined in runtime.cpp.
  bool cancel_requested() const;

  /// The cancellation scope this task currently spawns into (the scope that
  /// owns it, unless a nested CancellationScope is open). Internal plumbing
  /// for the barrier/scope integration.
  const std::shared_ptr<detail::CancelState>& cancel_scope() const {
    return scope_;
  }

  // --- recovery wait-break (async detection mode) -------------------------
  // The recovery supervisor terminates a deadlock victim's wait by posting
  // an exception here and nudging whatever the victim is parked on; the
  // victim's interruptible wait loop consumes and rethrows it. At most one
  // break is live at a time (a second post while one is pending is dropped —
  // the victim is already doomed). Stale breaks (posted but never consumed
  // because the wait completed normally) are cleared by the supervisor's
  // registry unregister path, so they can never kill a later wait.

  /// Posts `ep` as this task's pending wait-break. True iff it was installed
  /// (false: one is already pending). Any thread.
  bool post_wait_break(std::exception_ptr ep) {
    auto* fresh = new std::exception_ptr(std::move(ep));
    std::exception_ptr* expected = nullptr;
    if (wait_break_.compare_exchange_strong(expected, fresh,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      return true;
    }
    delete fresh;
    return false;
  }

  /// Consumes and rethrows the pending wait-break, if any.
  void throw_if_wait_broken() {
    if (wait_break_.load(std::memory_order_acquire) == nullptr) return;
    std::exception_ptr* p =
        wait_break_.exchange(nullptr, std::memory_order_acq_rel);
    if (p == nullptr) return;
    std::exception_ptr ep = *p;
    delete p;
    std::rethrow_exception(ep);
  }

  /// Discards the pending wait-break, if any (supervisor unregister path).
  void clear_wait_break() {
    delete wait_break_.exchange(nullptr, std::memory_order_acq_rel);
  }

  /// True iff a wait-break is pending (supervisor repost bookkeeping).
  bool wait_break_pending() const {
    return wait_break_.load(std::memory_order_acquire) != nullptr;
  }

  /// Spuriously wakes every thread parked in wait_done() on THIS task so a
  /// waiter rechecks its wait-break. Any thread.
  void nudge_waiters() { bump_wake_seq(); }

 protected:
  TaskBase() = default;
  virtual void execute() = 0;

 private:
  friend class Runtime;
  friend class CancellationScope;
  friend class detail::CancelState;

  /// Delivers a cancellation request. Sets the cooperative flag; when the
  /// task is still Queued, additionally wins the claim CAS and
  /// force-completes it with CancelledError (returning true) so its joiners
  /// fail fast instead of waiting for a body that will never run.
  /// Defined in runtime.cpp.
  bool deliver_cancel(const std::exception_ptr& cause);

  /// The scope's originating fault, if any. Defined in runtime.cpp.
  std::exception_ptr cancel_cause() const;

  /// Advances the join-wait generation and wakes its parkers.
  /// Called by every wake source: Done publication, cancel completion, and
  /// nudge_waiters().
  void bump_wake_seq() const {
    wake_seq_.fetch_add(1, std::memory_order_release);
    wake_seq_.notify_all();
  }

  std::uint64_t uid_ = 0;
  Runtime* rt_ = nullptr;
  core::PolicyNode* pnode_ = nullptr;  // owned by the runtime's verifier
  std::atomic<TaskState> state_{TaskState::Queued};
  // Join-wait futex word; see wait_done(). Counts
  // wake events, never read for its value — only for change detection.
  mutable std::atomic<std::uint32_t> wake_seq_{0};
  std::exception_ptr error_;
  std::shared_ptr<detail::CancelState> scope_;  // set at registration
  std::atomic<bool> cancel_requested_{false};
  obs::RequestContext req_ctx_;  // set at registration, immutable after
  // Pending recovery wait-break; heap cell so posting stays lock-free
  // (std::exception_ptr itself is not atomic-able). Freed by the consumer,
  // clear_wait_break(), or the destructor.
  std::atomic<std::exception_ptr*> wait_break_{nullptr};
};

/// Typed task: adds the result slot.
template <typename T>
class Task : public TaskBase {
 public:
  /// Pre: done() and !failed().
  const T& result() const { return *result_; }

 protected:
  std::optional<T> result_;
};

template <>
class Task<void> : public TaskBase {};

namespace detail {

/// Concrete task holding the user callable. The callable is destroyed right
/// after it runs so captured data (e.g. big closures) is not retained by a
/// long-lived Future.
template <typename T, typename F>
class TaskImpl final : public Task<T> {
 public:
  explicit TaskImpl(F fn) : fn_(std::move(fn)) {}

 private:
  void execute() override {
    this->result_.emplace((*fn_)());
    fn_.reset();
  }

  std::optional<F> fn_;
};

template <typename F>
class TaskImpl<void, F> final : public Task<void> {
 public:
  explicit TaskImpl(F fn) : fn_(std::move(fn)) {}

 private:
  void execute() override {
    (*fn_)();
    fn_.reset();
  }

  std::optional<F> fn_;
};

/// Performs an instrumented join of the *current* task on `target`
/// (policy check → fault or wait → completion bookkeeping), through
/// Runtime::join. With a `timeout` the wait is bounded: false iff the
/// deadline expired. Defined in runtime.cpp.
bool join_current_on(TaskBase& target,
                     std::optional<std::chrono::nanoseconds> timeout = {});

}  // namespace detail

}  // namespace tj::runtime
