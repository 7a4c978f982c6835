#include "runtime/fault_injection.hpp"

#include <chrono>
#include <thread>

#include "runtime/errors.hpp"

namespace tj::runtime {

namespace {
// splitmix64: a full-avalanche mix so consecutive event counters at one site
// produce an uncorrelated decision stream per seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, Housekeeper& housekeeper)
    : plan_(plan), housekeeper_(housekeeper) {}

bool FaultInjector::decide(std::uint32_t period, std::uint32_t site,
                           std::atomic<std::uint64_t>& counter,
                           std::atomic<std::uint64_t>& injected) noexcept {
  if (period == 0 || !plan_.enabled()) return false;
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t h =
      mix(plan_.seed ^ (static_cast<std::uint64_t>(site) << 56) ^ n);
  if (h % period != 0) return false;
  injected.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool FaultInjector::inject_join_rejection() noexcept {
  return decide(plan_.join_rejection_period, 1, join_events_,
                join_rejections_);
}

bool FaultInjector::inject_await_rejection() noexcept {
  return decide(plan_.await_rejection_period, 2, await_events_,
                await_rejections_);
}

bool FaultInjector::perturb_wakeup(std::function<void()> renotify) {
  // One event counter feeds both wakeup sites so a single notification is
  // never both delayed and dropped.
  if (!plan_.enabled() ||
      (plan_.delayed_wakeup_period == 0 && plan_.dropped_wakeup_period == 0)) {
    return false;
  }
  const std::uint64_t n = wakeup_events_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t h = mix(plan_.seed ^ (3ULL << 56) ^ n);
  if (plan_.dropped_wakeup_period != 0 && h % plan_.dropped_wakeup_period == 0) {
    dropped_wakeups_.fetch_add(1, std::memory_order_relaxed);
    // Once the housekeeper has stopped, after() runs renotify inline.
    housekeeper_.after(std::chrono::milliseconds(plan_.redelivery_ms),
                       std::move(renotify));
    return true;
  }
  if (plan_.delayed_wakeup_period != 0 &&
      (h >> 32) % plan_.delayed_wakeup_period == 0) {
    delayed_wakeups_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(plan_.delay_us));
  }
  return false;
}

void FaultInjector::maybe_delay_publication() noexcept {
  if (decide(plan_.delayed_wakeup_period, 6, publication_events_,
             delayed_wakeups_)) {
    std::this_thread::sleep_for(std::chrono::microseconds(plan_.delay_us));
  }
}

void FaultInjector::maybe_fail_fulfill() {
  if (decide(plan_.fulfill_failure_period, 4, fulfill_events_,
             fulfill_failures_)) {
    throw InjectedFaultError(
        "injected fault: fulfiller failed before fulfilling the promise");
  }
}

std::uint64_t FaultInjector::detector_delay_us() noexcept {
  if (decide(plan_.detector_delay_period, 7, detector_tick_events_,
             detector_delays_)) {
    return plan_.detector_delay_us;
  }
  return 0;
}

bool FaultInjector::drop_detector_batch() noexcept {
  return decide(plan_.detector_drop_period, 8, detector_batch_events_,
                detector_drops_);
}

bool FaultInjector::kill_detector() noexcept {
  if (detector_deaths_.load(std::memory_order_relaxed) >=
      plan_.max_detector_deaths) {
    return false;
  }
  return decide(plan_.detector_death_period, 9, detector_life_events_,
                detector_deaths_);
}

bool FaultInjector::should_kill_worker() noexcept {
  if (worker_deaths_.load(std::memory_order_relaxed) >=
      plan_.max_worker_deaths) {
    return false;
  }
  return decide(plan_.worker_death_period, 5, boundary_events_,
                worker_deaths_);
}

FaultStats FaultInjector::stats() const {
  FaultStats s;
  s.join_rejections = join_rejections_.load(std::memory_order_relaxed);
  s.await_rejections = await_rejections_.load(std::memory_order_relaxed);
  s.delayed_wakeups = delayed_wakeups_.load(std::memory_order_relaxed);
  s.dropped_wakeups = dropped_wakeups_.load(std::memory_order_relaxed);
  s.fulfill_failures = fulfill_failures_.load(std::memory_order_relaxed);
  s.worker_deaths = worker_deaths_.load(std::memory_order_relaxed);
  s.detector_delays = detector_delays_.load(std::memory_order_relaxed);
  s.detector_drops = detector_drops_.load(std::memory_order_relaxed);
  s.detector_deaths = detector_deaths_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace tj::runtime
