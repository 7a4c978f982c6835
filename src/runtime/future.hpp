#pragma once
// Future: a copyable handle to an asynchronously executing task (the paper's
// program model, Sec. 2.2). get() performs a *join*: it is verified by the
// runtime's active policy and may fault with DeadlockAvoidedError /
// PolicyViolationError instead of blocking.

#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "runtime/errors.hpp"
#include "runtime/task.hpp"

namespace tj::runtime {

/// Outcome of a deadline-aware join (join_for / get_for).
enum class JoinOutcome : std::uint8_t {
  Ready,    ///< the task terminated within the deadline; result available
  Timeout,  ///< deadline expired; the join was withdrawn and may be retried
};

template <typename T>
class Future {
 public:
  Future() = default;

  bool valid() const { return task_ != nullptr; }

  /// True iff the task already terminated (never blocks).
  bool ready() const {
    require_valid();
    return task_->done();
  }

  /// Joins on the task: verified by the active policy, blocks until the task
  /// terminates, then returns its result (copy; a Future may be joined by
  /// several tasks). Rethrows the task's exception if it failed.
  ///
  /// A cancelled caller throws CancelledError instead of waiting, even when
  /// the task is already running; the task then outlives the caller's frame,
  /// so it must not capture the caller's locals by reference (`[&]`) if the
  /// caller can be cancelled. See Runtime::join.
  T get() const {
    require_valid();
    detail::join_current_on(*task_);
    task_->rethrow_if_error();
    if constexpr (!std::is_void_v<T>) {
      return task_->result();
    }
  }

  /// Alias for get() discarding the value — the paper's join().
  void join() const { (void)get(); }

  /// Deadline-aware join: verified by the active policy exactly like get(),
  /// but waits at most `timeout` (honoured to ~1ms granularity — see
  /// TaskBase::wait_done). On Timeout the wait edge is withdrawn and the
  /// task keeps running; the caller may retry (e.g. with runtime/backoff.hpp)
  /// or move on. Policy faults (DeadlockAvoidedError etc.) still throw.
  /// A cooperative joiner that inline-claims the task runs it to completion
  /// and returns Ready regardless of the deadline.
  template <typename Rep, typename Period>
  JoinOutcome join_for(std::chrono::duration<Rep, Period> timeout) const {
    require_valid();
    return detail::join_current_on(
               *task_,
               std::chrono::duration_cast<std::chrono::nanoseconds>(timeout))
               ? JoinOutcome::Ready
               : JoinOutcome::Timeout;
  }

  /// join_for + result retrieval: std::optional<T> (empty on timeout), or
  /// bool for Future<void> (false on timeout). Rethrows the task's exception
  /// when it completed with a fault.
  template <typename Rep, typename Period>
  auto get_for(std::chrono::duration<Rep, Period> timeout) const {
    require_valid();
    const bool ready = detail::join_current_on(
        *task_, std::chrono::duration_cast<std::chrono::nanoseconds>(timeout));
    if constexpr (std::is_void_v<T>) {
      if (!ready) return false;
      task_->rethrow_if_error();
      return true;
    } else {
      if (!ready) return std::optional<T>();
      task_->rethrow_if_error();
      return std::optional<T>(task_->result());
    }
  }

  /// The underlying task record (for diagnostics/tests).
  const TaskBase& task() const {
    require_valid();
    return *task_;
  }

 private:
  friend class Runtime;

  explicit Future(std::shared_ptr<Task<T>> t) : task_(std::move(t)) {}

  void require_valid() const {
    if (task_ == nullptr) {
      throw UsageError("Future: empty handle");
    }
  }

  std::shared_ptr<Task<T>> task_;
};

}  // namespace tj::runtime
