#pragma once
// Work-sharing scheduler with the two join disciplines of HJ's runtimes
// (paper footnote 4):
//   Blocking    — a worker blocks in join; compensation workers (up to a cap)
//                 keep the pool busy;
//   Cooperative — a joiner claims a still-queued target and runs it inline
//                 (help-first); it blocks only on an already-running target.
//
// Progress argument for Cooperative (given task-level deadlock freedom,
// which the TJ policy guarantees): a blocked joiner waits on a *running*
// task; every running task sits on some thread whose stack top is either
// executing (progress) or itself blocked on a running task; following that
// chain must terminate because the task waits-for graph is acyclic.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "obs/contention.hpp"
#include "runtime/config.hpp"
#include "runtime/task.hpp"

namespace tj::runtime {

class FaultInjector;

class Scheduler {
 public:
  /// `injector` (may be nullptr) supplies worker-death faults: a worker
  /// asked to die exits at a task boundary and the pool respawns a
  /// replacement, modelling thread crash + supervisor restart.
  /// `rec` (may be nullptr) records inline-help, compensation-growth and
  /// worker-death incidents into the flight recorder.
  Scheduler(SchedulerMode mode, unsigned workers, unsigned max_threads,
            FaultInjector* injector = nullptr,
            obs::FlightRecorder* rec = nullptr);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueues a spawned task.
  void submit(std::shared_ptr<TaskBase> task);

  /// Waits until `target` terminates, per the configured mode, or at most
  /// `timeout` when one is given; true iff the target terminated. Called
  /// with the joining task's context current; the policy check already
  /// passed. A cooperative joiner that wins the inline claim runs the target
  /// to completion regardless of the deadline (it is making progress, not
  /// blocked — the timeout bounds *waiting*, not work) and returns true.
  bool join_wait(TaskBase& target,
                 std::optional<std::chrono::nanoseconds> timeout);

  /// Live (submitted, not yet terminated) task count — the governor's and
  /// the spawn-backpressure watermark's admission signal.
  std::size_t live_tasks() const {
    return live_tasks_.load(std::memory_order_relaxed);
  }

  /// Blocks until every submitted task has terminated.
  void quiesce();

  /// Brackets a blocking wait (a Blocking-mode join, a promise await, a
  /// barrier await): when the caller is a worker thread, the pool may grow a
  /// compensation worker so queued tasks keep running. Non-join waits use it
  /// in both scheduler modes, since cooperative inlining cannot help there.
  void enter_blocking_region();
  void exit_blocking_region();

  SchedulerMode mode() const { return mode_; }
  unsigned thread_count() const;
  std::uint64_t tasks_executed() const;
  std::uint64_t tasks_inlined() const;

  /// Per-worker state timelines (Running / BlockedJoin / BlockedLock /
  /// Stealing / Idle). State words are always published; the timelines are
  /// timed only while contention profiling is enabled (see obs/contention).
  const obs::WorkerStateBoard& worker_states() const {
    return worker_states_;
  }

 private:
  friend class Runtime;

  void worker_loop(obs::WorkerSlot* slot);
  void run_claimed(TaskBase& task);
  void add_worker_locked();  // pre: mu_ held
  void note_task_done();

  /// Workers alive right now (pre: mu_ held). `threads_` keeps dead workers'
  /// std::thread objects until shutdown, so its size overcounts by
  /// `dead_workers_`; every liveness/compensation decision must use this, or
  /// after enough injected deaths the pool believes it has idle workers while
  /// every live one is blocked in a join — and queued tasks starve.
  std::size_t live_workers_locked() const {
    return threads_.size() - dead_workers_;
  }

  /// Records a compensation-worker spawn (pre: mu_ held, worker just added).
  void record_compensation_locked();

  const SchedulerMode mode_;
  const unsigned target_parallelism_;
  const unsigned max_threads_;
  FaultInjector* const injector_;  // not owned; nullptr ⇒ no fault injection
  obs::FlightRecorder* const rec_;  // not owned; nullptr ⇒ recording off

  // Queue/compensation lock is profiled ("sched.queue"): every submit,
  // dequeue and compensation decision serializes here, so its contended
  // share is the scheduler half of the scaling ceiling. The condvars are
  // condition_variable_any to wait on the wrapper type.
  mutable obs::ProfiledMutex mu_{"sched.queue"};
  std::condition_variable_any cv_;
  std::deque<std::shared_ptr<TaskBase>> queue_;  // guarded by mu_
  std::vector<std::thread> threads_;             // guarded by mu_
  std::size_t dead_workers_ = 0;                 // guarded by mu_
  unsigned blocked_workers_ = 0;                 // guarded by mu_
  bool stop_ = false;                            // guarded by mu_

  obs::ProfiledMutex quiesce_mu_{"sched.quiesce"};
  std::condition_variable_any quiesce_cv_;
  std::atomic<std::size_t> live_tasks_{0};

  obs::WorkerStateBoard worker_states_;

  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> inlined_{0};
};

/// Thread-local task context (set around every task body execution,
/// including inline runs and the root task).
TaskBase* current_task_or_null();
TaskBase& current_task();  // throws UsageError when not in a task

namespace detail {
/// RAII compensation bracket around a blocking wait (Blocking-mode joins,
/// promise awaits, barrier waits): exception-safe, unlike calling
/// enter/exit by hand.
class BlockingRegionGuard {
 public:
  explicit BlockingRegionGuard(Scheduler& s) : sched_(s) {
    sched_.enter_blocking_region();
  }
  ~BlockingRegionGuard() { sched_.exit_blocking_region(); }
  BlockingRegionGuard(const BlockingRegionGuard&) = delete;
  BlockingRegionGuard& operator=(const BlockingRegionGuard&) = delete;

 private:
  Scheduler& sched_;
};

/// RAII swap of the thread-local current task. Also swaps the obs-layer
/// request context so events emitted while `t` runs (including inline runs
/// on a joiner's stack) are attributed to t's request, not the host
/// thread's.
class CurrentTaskGuard {
 public:
  explicit CurrentTaskGuard(TaskBase* t);
  ~CurrentTaskGuard();
  CurrentTaskGuard(const CurrentTaskGuard&) = delete;
  CurrentTaskGuard& operator=(const CurrentTaskGuard&) = delete;

 private:
  TaskBase* prev_;
  obs::RequestContext prev_ctx_;
};
}  // namespace detail

}  // namespace tj::runtime
