#include "runtime/scheduler.hpp"

#include "runtime/errors.hpp"
#include "runtime/fault_injection.hpp"

namespace tj::runtime {

namespace {
thread_local TaskBase* t_current = nullptr;
thread_local bool t_is_worker = false;
}  // namespace

TaskBase* current_task_or_null() { return t_current; }

TaskBase& current_task() {
  if (t_current == nullptr) {
    throw UsageError(
        "operation requires a task context (use Runtime::root or call from "
        "within a task)");
  }
  return *t_current;
}

namespace detail {
CurrentTaskGuard::CurrentTaskGuard(TaskBase* t)
    : prev_(t_current), prev_ctx_(obs::tls_request_context()) {
  t_current = t;
  obs::tls_request_context() =
      t != nullptr ? t->request_context() : obs::RequestContext{};
}
CurrentTaskGuard::~CurrentTaskGuard() {
  t_current = prev_;
  obs::tls_request_context() = prev_ctx_;
}
}  // namespace detail

Scheduler::Scheduler(SchedulerMode mode, unsigned workers,
                     unsigned max_threads, FaultInjector* injector,
                     obs::FlightRecorder* rec)
    : mode_(mode),
      target_parallelism_(workers),
      max_threads_(std::max(max_threads, workers)),
      injector_(injector),
      rec_(rec) {
  std::scoped_lock lock(mu_);
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) add_worker_locked();
}

Scheduler::~Scheduler() {
  {
    std::scoped_lock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  // Compensation workers are only added while tasks run; by the time the
  // scheduler is destroyed the runtime has quiesced, so the thread list is
  // stable once stop_ is visible.
  std::vector<std::thread> threads;
  {
    std::scoped_lock lock(mu_);
    threads.swap(threads_);
  }
  for (std::thread& t : threads) t.join();
}

void Scheduler::add_worker_locked() {
  // Registered here, not on the new thread: a snapshot taken before the
  // thread first runs must still count this worker.
  obs::WorkerSlot* slot = worker_states_.register_worker();
  threads_.emplace_back([this, slot] { worker_loop(slot); });
}

void Scheduler::record_compensation_locked() {
  if (rec_ == nullptr) return;
  rec_->metrics().compensation_spawns.fetch_add(1, std::memory_order_relaxed);
  obs::Event e;
  e.kind = obs::EventKind::SchedCompensate;
  const TaskBase* cur = current_task_or_null();
  e.actor = cur != nullptr ? cur->uid() : 0;
  e.payload = live_workers_locked();
  rec_->emit(e);
}

unsigned Scheduler::thread_count() const {
  std::scoped_lock lock(mu_);
  return static_cast<unsigned>(threads_.size());
}

std::uint64_t Scheduler::tasks_executed() const {
  return executed_.load(std::memory_order_relaxed);
}

std::uint64_t Scheduler::tasks_inlined() const {
  return inlined_.load(std::memory_order_relaxed);
}

void Scheduler::submit(std::shared_ptr<TaskBase> task) {
  live_tasks_.fetch_add(1, std::memory_order_relaxed);
  {
    std::scoped_lock lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void Scheduler::worker_loop(obs::WorkerSlot* slot) {
  t_is_worker = true;
  // The TLS slot lets profiled locks report BlockedLock while this thread
  // waits on a contended runtime mutex.
  obs::tls_worker_slot() = slot;
  std::unique_lock lock(mu_);
  while (true) {
    slot->set_state(obs::WorkerState::Idle);
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_) {
      slot->set_state(obs::WorkerState::Idle);
      return;
    }
    slot->set_state(obs::WorkerState::Stealing);
    std::shared_ptr<TaskBase> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    if (task->try_claim()) {
      run_claimed(*task);
    }
    // else: a cooperative joiner inlined it; nothing to do.
    task.reset();
    lock.lock();
    if (injector_ != nullptr && !stop_ && injector_->should_kill_worker()) {
      // Injected worker death — always at a task boundary, never mid-task.
      // Spawn the replacement before exiting (crash + supervisor restart),
      // so pool parallelism and liveness are preserved. Our std::thread
      // object stays in threads_ until shutdown; dead_workers_ keeps the
      // live count honest for compensation decisions.
      ++dead_workers_;
      add_worker_locked();
      if (rec_ != nullptr) {
        obs::Event e;
        e.kind = obs::EventKind::WorkerDeath;
        e.payload = live_workers_locked();
        rec_->emit(e);
      }
      slot->set_state(obs::WorkerState::Idle);
      return;
    }
  }
}

void Scheduler::run_claimed(TaskBase& task) {
  {
    // Scoped so nesting composes: a cooperative joiner inlining a target
    // stays Running, and the restore puts back whatever state the joiner
    // was in (BlockedJoin when helping from inside a wait loop).
    obs::ScopedWorkerState running(obs::tls_worker_slot(),
                                   obs::WorkerState::Running);
    detail::CurrentTaskGuard guard(&task);
    task.run();
  }
  executed_.fetch_add(1, std::memory_order_relaxed);
  note_task_done();
}

void Scheduler::note_task_done() {
  if (live_tasks_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::scoped_lock lock(quiesce_mu_);
    quiesce_cv_.notify_all();
  }
}

bool Scheduler::join_wait(TaskBase& target,
                          std::optional<std::chrono::nanoseconds> timeout) {
  if (mode_ == SchedulerMode::Cooperative) {
    if (!target.done() && target.try_claim()) {
      inlined_.fetch_add(1, std::memory_order_relaxed);
      if (rec_ != nullptr) {
        obs::Event e;
        e.kind = obs::EventKind::SchedInline;
        const TaskBase* cur = current_task_or_null();
        e.actor = cur != nullptr ? cur->uid() : 0;
        e.target = target.uid();
        rec_->emit(e);
      }
      run_claimed(target);
      return true;
    }
    // try_claim can only fail when the target is Running or Done; Done wakes
    // us via wake_seq_, Running will reach Done on its own thread.
    // Interruptible: in async (optimistic) mode the recovery supervisor may
    // break this wait — the throw propagates to the gate's leave_join.
    obs::ScopedWorkerState blocked(obs::tls_worker_slot(),
                                   obs::WorkerState::BlockedJoin);
    return target.wait_done(current_task_or_null(), timeout);
  }
  // Blocking mode: never help; preserve parallelism with compensation
  // workers while this worker blocks.
  detail::BlockingRegionGuard region(*this);
  return target.wait_done(current_task_or_null(), timeout);
}

void Scheduler::enter_blocking_region() {
  if (!t_is_worker) return;
  if (obs::WorkerSlot* slot = obs::tls_worker_slot()) {
    slot->set_state(obs::WorkerState::BlockedJoin);
  }
  std::scoped_lock lock(mu_);
  ++blocked_workers_;
  if (!stop_ &&
      live_workers_locked() - blocked_workers_ < target_parallelism_ &&
      live_workers_locked() < max_threads_) {
    add_worker_locked();
    record_compensation_locked();
  }
}

void Scheduler::exit_blocking_region() {
  if (!t_is_worker) return;
  {
    std::scoped_lock lock(mu_);
    --blocked_workers_;
  }
  if (obs::WorkerSlot* slot = obs::tls_worker_slot()) {
    // A blocking region only brackets waits performed from inside a task
    // body on a worker thread, so the state to restore is Running.
    slot->set_state(obs::WorkerState::Running);
  }
}

void Scheduler::quiesce() {
  std::unique_lock lock(quiesce_mu_);
  quiesce_cv_.wait(lock, [this] {
    return live_tasks_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace tj::runtime
