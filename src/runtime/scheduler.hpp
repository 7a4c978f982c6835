#pragma once
// Work-stealing scheduler with the two join disciplines of HJ's runtimes
// (paper footnote 4):
//   Blocking    — a worker blocks in join; compensation workers (up to a cap)
//                 keep the pool busy;
//   Cooperative — a joiner claims a still-queued target and runs it inline
//                 (help-first); it blocks only on an already-running target.
// Only the queue discipline differs from HJ's work-sharing runtimes; the two
// join disciplines are theirs.
//
// Queues. Every worker owns a deque in a slot fixed at construction (one per
// possible thread, `max_threads`). The owner pushes its spawns and pops its
// next task at the bottom (LIFO); idle workers steal from the top (FIFO),
// first from owners that wait (in a join or a blocking region), which cannot
// run their own entries. Spawns from non-worker threads (the root task,
// external callers) go to one FIFO injection queue under the profiled
// "sched.queue" lock; a worker looks there before it steals from a running
// owner. The
// Queued→Running CAS (TaskBase::try_claim) stays the only claim: an entry
// whose task a joiner ran inline, or a cancellation completed, is stale, and
// whoever meets it discards it. Before each push the pusher pops the stale
// entries off its bottom, so the entries of inlined children never outlive
// one op of their spawner, however long the spawner runs.
//
// Hand-over. A worker that finishes a task from the injection queue first
// waits up to `kHandOver` for the next submission, taking meanwhile only its
// own entries, a waiting owner's and the injection queue's; it steals from a
// running owner after that. A relay that resubmits as soon as it sees a
// task end (tjbench's closed loops) so keeps its other, running tasks free
// of steals; tjbench_smoke rejects the spans a stolen forkjoin child adds.
// It moves no throughput or latency of tjbench's workloads beyond their
// run-to-run spread, and costs up to `kHandOver` of one worker's time when
// the submitter is busy outside the pool, so it goes with the relay
// (ROADMAP 2a). Workers idle for longer steal at once, and the wait ends
// early while an outside thread waits on the pool (a join, an await,
// quiesce): that thread submits nothing until the pool wakes it.
//
// Sleep. An idle worker counts itself in `sleepers_`, re-scans every deque
// and the injection queue, then waits on the `epoch_` futex. A push that sees
// a sleeper bumps the epoch and wakes one; a push that sees none touches no
// shared word besides its own queue. Both sides fence between their write and
// their read, so either the pusher sees the sleeper or the sleeper's re-scan
// sees the push: no push leaves work queued while every worker sleeps. A
// worker that starts to wait with entries on its deque wakes one too.
//
// Progress argument for Cooperative (given task-level deadlock freedom,
// which the TJ policy guarantees): a blocked joiner waits on a *running*
// task; every running task sits on some thread whose stack top is either
// executing (progress) or itself blocked on a running task; following that
// chain must terminate because the task waits-for graph is acyclic.

#include <atomic>
#include <chrono>
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

  /// Enqueues a spawned task: on the calling worker's own deque, or on the
  /// injection queue when the caller is not one of this pool's workers.
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

  /// Joins every worker, then releases the stale queue entries on the
  /// calling thread. Pre: quiesced. The owner calls it while everything a
  /// task record's destructor touches (promise registry, verifier) is still
  /// alive; the destructor calls it too. Idempotent.
  void stop();

  /// Brackets a blocking wait (a Blocking-mode join, a promise await, a
  /// barrier await): when the caller is a worker thread, the pool may grow a
  /// compensation worker so queued tasks keep running. Non-join waits use it
  /// in both scheduler modes, since cooperative inlining cannot help there.
  /// A caller outside the pool is counted as an outside wait instead, which
  /// ends the workers' hand-over waits.
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

  /// A run queue: a worker's deque or the injection queue. `tasks` is
  /// guarded by the owner's lock; `size` mirrors its length so a scan can
  /// skip an empty queue without taking that lock.
  struct RunQueue {
    std::deque<std::shared_ptr<TaskBase>> tasks;
    std::atomic<std::size_t> size{0};

    /// Pops the stale entries off the bottom into `stale`, then pushes
    /// `task` there.
    void push(std::shared_ptr<TaskBase> task,
              std::vector<std::shared_ptr<TaskBase>>& stale);
    /// Takes entries from the bottom (the owner) or the top (thieves, the
    /// injection queue) until one is claimed, and returns it; the stale
    /// entries met on the way go to `stale`. Null when none is claimable.
    std::shared_ptr<TaskBase> take(
        bool bottom, std::vector<std::shared_ptr<TaskBase>>& stale);
  };

  /// One worker's deque, on its own cache line: every owner locks its own.
  struct alignas(64) WorkerDeque {
    std::mutex mu;
    RunQueue queue;
    /// Depth of the owner's current waits (joins, blocking regions); written
    /// by the owner only. A waiting owner cannot run its own entries.
    std::atomic<unsigned> waiting{0};
  };

  void worker_loop(unsigned self, obs::WorkerSlot* slot);
  /// The next claimed task for worker `self`, sleeping while there is none;
  /// null once the scheduler stops.
  /// `injected` says whether the previous task came from the injection
  /// queue, and is set for the one returned.
  std::shared_ptr<TaskBase> next_task(unsigned self, obs::WorkerSlot* slot,
                                      bool& injected);
  /// The hand-over wait after an injected task: scans without stealing from
  /// running owners until a task turns up or `kHandOver` passes.
  std::shared_ptr<TaskBase> await_hand_over(unsigned self,
                                            obs::WorkerSlot* slot,
                                            bool& injected);
  /// One scan: own deque (bottom), the deques of waiting owners (top), the
  /// injection queue, then, if `steal_running`, every other deque (top).
  /// Returns a claimed task or null; `injected` says where it came from.
  std::shared_ptr<TaskBase> find_task(unsigned self, bool steal_running,
                                      bool& injected);
  std::shared_ptr<TaskBase> steal(unsigned self, bool waiting_only);
  /// Takes from `q` under `mu`, then releases the stale entries met.
  template <typename Mutex>
  std::shared_ptr<TaskBase> take_from(Mutex& mu, RunQueue& q, bool bottom);
  /// Brackets a wait of the calling worker (pre: t_sched == this). Entering
  /// wakes a sleeper when the worker's deque holds entries: nobody else
  /// would run them until some worker happens to scan.
  void begin_owner_wait();
  void end_owner_wait();
  /// Wakes one sleeping worker, if any worker sleeps. Called after a push.
  void wake_one();
  /// Wakes the workers in a hand-over wait, if any.
  void wake_hand_over();
  void run_claimed(TaskBase& task);
  /// Starts a worker on deque slot `slot` (pre: mu_ held).
  void add_worker_locked(unsigned slot);
  /// The next unused deque slot (pre: mu_ held, a live worker fewer than
  /// max_threads_).
  unsigned claim_slot_locked();
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

  // Injection-queue/compensation lock, profiled as "sched.queue": submits
  // from non-worker threads, injection dequeues and compensation decisions
  // serialize here. Worker spawns never take it.
  mutable obs::ProfiledMutex mu_{"sched.queue"};
  RunQueue inject_;                      // guarded by mu_
  std::vector<std::thread> threads_;     // guarded by mu_
  std::size_t dead_workers_ = 0;         // guarded by mu_
  unsigned blocked_workers_ = 0;         // guarded by mu_
  std::atomic<bool> stop_{false};        // written under mu_

  // 1 ms still let a relay's turnover steals through on a loaded machine
  // (tjbench_smoke beside a ctest -j4 run); 10 ms did not.
  static constexpr std::chrono::milliseconds kHandOver{10};
  // Workers in a hand-over wait on `hand_over_cv_` under mu_; an injection
  // push or a waiting owner's entries wake them (the latter bumps
  // `hand_over_gen_`).
  std::condition_variable_any hand_over_cv_;
  std::atomic<unsigned> hand_over_waiters_{0};  // written under mu_
  std::uint64_t hand_over_gen_ = 0;             // guarded by mu_
  // Threads outside the pool waiting on it (joins, awaits, quiesce).
  std::atomic<unsigned> outside_waits_{0};

  // max_threads_ deque slots, allocated once: a thief scans the first
  // `slots_used_` without a lock. A replacement for a worker killed by fault
  // injection inherits its slot, queued entries included, so the used slots
  // never outnumber the live workers.
  const std::unique_ptr<WorkerDeque[]> deques_;
  std::atomic<unsigned> slots_used_{0};  // written under mu_

  alignas(64) std::atomic<unsigned> sleepers_{0};
  std::atomic<std::uint32_t> epoch_{0};  // sleep futex; bumped to wake

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
