#pragma once
// Housekeeper: the runtime's one background thread for periodic and delayed
// work (governor and watchdog polls, telemetry samples, introspection polls,
// dropped-wakeup redelivery). Timers sit in one deadline-ordered list, equal
// deadlines in registration order. Callbacks run one at a time, so none may
// block on task progress or throw. The thread starts on the first
// registration: a runtime with nothing scheduled starts no thread.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

namespace tj::runtime {

class Housekeeper {
 public:
  using Clock = std::chrono::steady_clock;
  using Id = std::uint64_t;  ///< 0 is never a scheduled timer

  ~Housekeeper() { stop(); }

  /// Runs `fn` every `period` (at least 1 ms), first one period from now,
  /// then one period after each run returns. Once stopped, returns 0.
  Id every(Clock::duration period, std::function<void()> fn) {
    // A zero period would spin the thread and starve every other timer.
    period = std::max<Clock::duration>(period, std::chrono::milliseconds(1));
    return add(period, period, std::move(fn));
  }

  /// Runs `fn` once, `delay` from now. Once stopped, runs `fn` at once on
  /// the calling thread and returns 0: a one-shot is never lost.
  Id after(Clock::duration delay, std::function<void()> fn) {
    return add(delay, Clock::duration::zero(), std::move(fn));
  }

  /// Returns once the timer's callback is not running and will not run
  /// again; from inside that callback, returns at once. Safe from any
  /// callback. Unknown ids are a no-op.
  void cancel(Id id);

  /// Joins the thread, then runs every pending one-shot at once on the
  /// calling thread, in deadline order, and drops the periodic timers.
  /// Idempotent. Must not be called from a callback.
  void stop();

  /// True while the thread exists: from the first registration to stop().
  bool started() const {
    std::scoped_lock lock(mu_);
    return thread_.joinable();
  }

 private:
  struct Timer {
    Id id;
    Clock::duration period;  // zero ⇒ one-shot
    std::function<void()> fn;
  };

  Id add(Clock::duration delay, Clock::duration period,
         std::function<void()> fn);
  void loop();
  /// Runs `t` with `lock` released; false iff cancelled meanwhile.
  bool run(std::unique_lock<std::mutex>& lock, Timer& t);

  mutable std::mutex mu_;
  std::condition_variable cv_;  // timers changed, stop, or a callback returned
  std::multimap<Clock::time_point, Timer> timers_;  // guarded by mu_
  Id next_id_ = 1;                                  // guarded by mu_
  // The callback in flight (0: none), the thread running it, and whether
  // it was cancelled meanwhile. Guarded by mu_.
  Id running_ = 0;
  std::thread::id runner_;
  bool running_cancelled_ = false;
  bool stopped_ = false;  // guarded by mu_
  std::thread thread_;    // guarded by mu_
};

}  // namespace tj::runtime
