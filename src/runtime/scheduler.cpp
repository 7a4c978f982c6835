#include "runtime/scheduler.hpp"

#include <cassert>

#include "runtime/errors.hpp"
#include "runtime/fault_injection.hpp"

namespace tj::runtime {

namespace {
thread_local TaskBase* t_current = nullptr;
// The scheduler whose worker this thread is (null elsewhere), and the
// worker's deque slot.
thread_local const Scheduler* t_sched = nullptr;
thread_local unsigned t_slot = 0;
// Stale entries taken off a queue under its lock, released after the lock
// drops: the last reference runs the task's destructor, which releases its
// policy node.
thread_local std::vector<std::shared_ptr<TaskBase>> t_stale;
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
      rec_(rec),
      deques_(std::make_unique<WorkerDeque[]>(max_threads_)) {
  std::scoped_lock lock(mu_);
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) add_worker_locked(claim_slot_locked());
}

Scheduler::~Scheduler() { stop(); }

void Scheduler::stop() {
  {
    std::scoped_lock lock(mu_);
    stop_.store(true, std::memory_order_seq_cst);
    hand_over_cv_.notify_all();
  }
  // A sleeper reads the epoch before it checks stop_, so this bump either
  // precedes that read (it then sees stop_) or changes the word it waits on.
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  epoch_.notify_all();
  // Compensation workers are only added while tasks run; stop() runs
  // quiesced, so the thread list is stable once stop_ is visible.
  std::vector<std::thread> threads;
  {
    std::scoped_lock lock(mu_);
    threads.swap(threads_);
  }
  for (std::thread& t : threads) t.join();
  // No worker is left and, quiesced, only stale entries remain. Their
  // records are released here, on the caller, while whatever their
  // destructors touch is still alive.
  inject_.tasks.clear();
  for (unsigned i = 0; i < slots_used_.load(std::memory_order_relaxed); ++i) {
    deques_[i].queue.tasks.clear();
  }
}

unsigned Scheduler::claim_slot_locked() {
  const unsigned slot = slots_used_.load(std::memory_order_relaxed);
  // Holds because a slot is claimed only while fewer than max_threads_
  // workers live, and a replacement inherits its dead worker's slot.
  assert(slot < max_threads_);
  slots_used_.store(slot + 1, std::memory_order_release);
  return slot;
}

void Scheduler::add_worker_locked(unsigned slot) {
  // Registered here, not on the new thread: a snapshot taken before the
  // thread first runs must still count this worker.
  obs::WorkerSlot* state = worker_states_.register_worker();
  threads_.emplace_back([this, slot, state] { worker_loop(slot, state); });
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

void Scheduler::RunQueue::push(std::shared_ptr<TaskBase> task,
                               std::vector<std::shared_ptr<TaskBase>>& stale) {
  while (!tasks.empty() && tasks.back()->state() != TaskState::Queued) {
    stale.push_back(std::move(tasks.back()));
    tasks.pop_back();
  }
  tasks.push_back(std::move(task));
  size.store(tasks.size(), std::memory_order_relaxed);
}

std::shared_ptr<TaskBase> Scheduler::RunQueue::take(
    bool bottom, std::vector<std::shared_ptr<TaskBase>>& stale) {
  std::shared_ptr<TaskBase> task;
  while (!tasks.empty()) {
    if (bottom) {
      task = std::move(tasks.back());
      tasks.pop_back();
    } else {
      task = std::move(tasks.front());
      tasks.pop_front();
    }
    if (task->try_claim()) break;
    // A cooperative joiner inlined it, or a cancellation completed it.
    stale.push_back(std::move(task));
  }
  size.store(tasks.size(), std::memory_order_relaxed);
  return task;
}

void Scheduler::submit(std::shared_ptr<TaskBase> task) {
  live_tasks_.fetch_add(1, std::memory_order_relaxed);
  if (t_sched == this) {
    WorkerDeque& d = deques_[t_slot];
    std::scoped_lock lock(d.mu);
    d.queue.push(std::move(task), t_stale);
  } else {
    std::scoped_lock lock(mu_);
    inject_.push(std::move(task), t_stale);
    if (hand_over_waiters_.load(std::memory_order_relaxed) != 0) {
      hand_over_cv_.notify_one();
    }
  }
  t_stale.clear();
  wake_one();
}

void Scheduler::wake_one() {
  // Pairs with the fence in next_task: either this load sees the sleeper,
  // or the sleeper's re-scan sees the push.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_relaxed) == 0) return;
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_one();
}

void Scheduler::wake_hand_over() {
  // Pairs with the fence in await_hand_over: either this load sees the
  // waiter, or the waiter's scan sees what the caller just published.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (hand_over_waiters_.load(std::memory_order_relaxed) == 0) return;
  std::scoped_lock lock(mu_);
  ++hand_over_gen_;
  hand_over_cv_.notify_all();
}

template <typename Mutex>
std::shared_ptr<TaskBase> Scheduler::take_from(Mutex& mu, RunQueue& q,
                                               bool bottom) {
  if (q.size.load(std::memory_order_relaxed) == 0) return nullptr;
  std::shared_ptr<TaskBase> task;
  {
    std::scoped_lock lock(mu);
    task = q.take(bottom, t_stale);
  }
  t_stale.clear();
  return task;
}

std::shared_ptr<TaskBase> Scheduler::steal(unsigned self, bool waiting_only) {
  const unsigned used = slots_used_.load(std::memory_order_acquire);
  for (unsigned i = 1; i < used; ++i) {
    WorkerDeque& d = deques_[(self + i) % used];
    if (waiting_only && d.waiting.load(std::memory_order_relaxed) == 0) {
      continue;
    }
    if (auto task = take_from(d.mu, d.queue, /*bottom=*/false)) return task;
  }
  return nullptr;
}

std::shared_ptr<TaskBase> Scheduler::find_task(unsigned self,
                                               bool steal_running,
                                               bool& injected) {
  injected = false;
  WorkerDeque& own = deques_[self];
  if (auto task = take_from(own.mu, own.queue, /*bottom=*/true)) return task;
  // A waiting owner's entries go before new work: it cannot run them itself,
  // and one of them may be what it waits for (a promise's fulfiller).
  if (auto task = steal(self, /*waiting_only=*/true)) return task;
  if (auto task = take_from(mu_, inject_, /*bottom=*/false)) {
    injected = true;
    return task;
  }
  return steal_running ? steal(self, /*waiting_only=*/false) : nullptr;
}

void Scheduler::begin_owner_wait() {
  WorkerDeque& d = deques_[t_slot];
  d.waiting.store(d.waiting.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  if (d.queue.size.load(std::memory_order_relaxed) != 0) {
    wake_one();
    wake_hand_over();
  }
}

void Scheduler::end_owner_wait() {
  WorkerDeque& d = deques_[t_slot];
  d.waiting.store(d.waiting.load(std::memory_order_relaxed) - 1,
                  std::memory_order_relaxed);
}

std::shared_ptr<TaskBase> Scheduler::await_hand_over(unsigned self,
                                                     obs::WorkerSlot* slot,
                                                     bool& injected) {
  const auto deadline = std::chrono::steady_clock::now() + kHandOver;
  std::shared_ptr<TaskBase> task;
  std::unique_lock lock(mu_);
  hand_over_waiters_.fetch_add(1, std::memory_order_relaxed);
  while (!stop_.load(std::memory_order_relaxed)) {
    const std::uint64_t gen = hand_over_gen_;
    lock.unlock();
    // Pairs with the fence in wake_hand_over.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    task = find_task(self, /*steal_running=*/false, injected);
    lock.lock();
    // A waiting outside thread submits nothing until the pool wakes it.
    if (task || outside_waits_.load(std::memory_order_relaxed) != 0) break;
    if (inject_.size.load(std::memory_order_relaxed) != 0 ||
        gen != hand_over_gen_) {
      continue;
    }
    slot->set_state(obs::WorkerState::Idle);
    const bool timed_out =
        hand_over_cv_.wait_until(lock, deadline) == std::cv_status::timeout;
    slot->set_state(obs::WorkerState::Stealing);
    if (timed_out) break;
  }
  hand_over_waiters_.fetch_sub(1, std::memory_order_relaxed);
  return task;
}

std::shared_ptr<TaskBase> Scheduler::next_task(unsigned self,
                                               obs::WorkerSlot* slot,
                                               bool& injected) {
  if (injected) {
    if (auto task = await_hand_over(self, slot, injected)) return task;
  }
  while (true) {
    if (auto task = find_task(self, /*steal_running=*/true, injected)) {
      return task;
    }
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    // Pairs with the fence in wake_one.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::uint32_t epoch = epoch_.load(std::memory_order_acquire);
    std::shared_ptr<TaskBase> task;
    if (!stop_.load(std::memory_order_acquire)) {
      task = find_task(self, /*steal_running=*/true, injected);
      if (!task) {
        slot->set_state(obs::WorkerState::Idle);
        epoch_.wait(epoch, std::memory_order_acquire);
        slot->set_state(obs::WorkerState::Stealing);
      }
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    if (task) return task;
    if (stop_.load(std::memory_order_acquire)) return nullptr;
  }
}

void Scheduler::worker_loop(unsigned self, obs::WorkerSlot* slot) {
  t_sched = this;
  t_slot = self;
  // The TLS slot lets profiled locks report BlockedLock while this thread
  // waits on a contended runtime mutex.
  obs::tls_worker_slot() = slot;
  slot->set_state(obs::WorkerState::Stealing);
  bool injected = false;
  while (std::shared_ptr<TaskBase> task = next_task(self, slot, injected)) {
    run_claimed(*task);
    task.reset();
    if (injector_ == nullptr) continue;
    std::scoped_lock lock(mu_);
    if (!stop_ && injector_->should_kill_worker()) {
      // Injected worker death — always at a task boundary, never mid-task.
      // Spawn the replacement before exiting (crash + supervisor restart),
      // so pool parallelism and liveness are preserved; it inherits this
      // worker's deque, queued entries included. Our std::thread object
      // stays in threads_ until shutdown; dead_workers_ keeps the live
      // count honest for compensation decisions.
      ++dead_workers_;
      add_worker_locked(self);
      if (rec_ != nullptr) {
        obs::Event e;
        e.kind = obs::EventKind::WorkerDeath;
        e.payload = live_workers_locked();
        rec_->emit(e);
      }
      break;
    }
  }
  slot->set_state(obs::WorkerState::Idle);
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
    if (t_sched != this) {
      detail::BlockingRegionGuard outside(*this);
      return target.wait_done(current_task_or_null(), timeout);
    }
    struct OwnerWait {
      Scheduler& s;
      ~OwnerWait() { s.end_owner_wait(); }
    } owner_wait{*this};
    begin_owner_wait();
    return target.wait_done(current_task_or_null(), timeout);
  }
  // Blocking mode: never help; preserve parallelism with compensation
  // workers while this worker blocks.
  detail::BlockingRegionGuard region(*this);
  return target.wait_done(current_task_or_null(), timeout);
}

void Scheduler::enter_blocking_region() {
  if (t_sched != this) {
    outside_waits_.fetch_add(1, std::memory_order_relaxed);
    wake_hand_over();
    return;
  }
  if (obs::WorkerSlot* slot = obs::tls_worker_slot()) {
    slot->set_state(obs::WorkerState::BlockedJoin);
  }
  begin_owner_wait();
  std::scoped_lock lock(mu_);
  ++blocked_workers_;
  if (!stop_ &&
      live_workers_locked() - blocked_workers_ < target_parallelism_ &&
      live_workers_locked() < max_threads_) {
    add_worker_locked(claim_slot_locked());
    record_compensation_locked();
  }
}

void Scheduler::exit_blocking_region() {
  if (t_sched != this) {
    outside_waits_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  {
    std::scoped_lock lock(mu_);
    --blocked_workers_;
  }
  end_owner_wait();
  if (obs::WorkerSlot* slot = obs::tls_worker_slot()) {
    // A blocking region only brackets waits performed from inside a task
    // body on a worker thread, so the state to restore is Running.
    slot->set_state(obs::WorkerState::Running);
  }
}

void Scheduler::quiesce() {
  detail::BlockingRegionGuard outside(*this);
  std::unique_lock lock(quiesce_mu_);
  quiesce_cv_.wait(lock, [this] {
    return live_tasks_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace tj::runtime
