#include "runtime/housekeeper.hpp"

namespace tj::runtime {

Housekeeper::Id Housekeeper::add(Clock::duration delay,
                                 Clock::duration period,
                                 std::function<void()> fn) {
  std::unique_lock lock(mu_);
  if (stopped_) {
    lock.unlock();
    if (period == Clock::duration::zero()) fn();
    return 0;
  }
  if (!thread_.joinable()) thread_ = std::thread([this] { loop(); });
  const Id id = next_id_++;
  timers_.emplace(Clock::now() + delay, Timer{id, period, std::move(fn)});
  cv_.notify_all();
  return id;
}

void Housekeeper::cancel(Id id) {
  std::unique_lock lock(mu_);
  std::erase_if(timers_, [id](const auto& e) { return e.second.id == id; });
  if (id == 0 || running_ != id) return;
  running_cancelled_ = true;
  // From inside its own callback, waiting would wait on ourselves.
  if (runner_ != std::this_thread::get_id()) {
    cv_.wait(lock, [this, id] { return running_ != id; });
  }
}

void Housekeeper::stop() {
  std::unique_lock lock(mu_);
  if (stopped_) return;
  stopped_ = true;
  cv_.notify_all();
  std::thread thread = std::move(thread_);
  lock.unlock();
  if (thread.joinable()) thread.join();
  lock.lock();
  // Pending one-shots run now: a dropped wakeup must not be lost for good.
  while (!timers_.empty()) {
    auto node = timers_.extract(timers_.begin());
    Timer& t = node.mapped();
    if (t.period == Clock::duration::zero()) run(lock, t);
  }
}

void Housekeeper::loop() {
  std::unique_lock lock(mu_);
  while (!stopped_) {
    if (timers_.empty()) {
      cv_.wait(lock);
    } else if (const Clock::time_point due = timers_.begin()->first;
               Clock::now() < due) {
      cv_.wait_until(lock, due);  // a copy: cancel() may erase the node
    } else {
      auto node = timers_.extract(timers_.begin());
      Timer& t = node.mapped();
      if (run(lock, t) && t.period != Clock::duration::zero()) {
        node.key() = Clock::now() + t.period;
        timers_.insert(std::move(node));
      }
    }
  }
}

bool Housekeeper::run(std::unique_lock<std::mutex>& lock, Timer& t) {
  running_ = t.id;
  runner_ = std::this_thread::get_id();
  running_cancelled_ = false;
  lock.unlock();
  t.fn();
  lock.lock();
  running_ = 0;
  cv_.notify_all();
  return !running_cancelled_;
}

}  // namespace tj::runtime
