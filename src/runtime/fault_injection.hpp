#pragma once
// Deterministic fault-injection layer (chaos testing). A seeded FaultPlan
// decides, at a handful of runtime seams, whether to perturb the execution:
//
//   * spurious policy rejections  — the join gate treats an approved join /
//     await as if the policy had rejected it (core/guarded.cpp hooks), so
//     the fallback path and its accounting get exercised on valid programs;
//   * delayed wakeups             — the Done/fulfilled notification is
//     published late, widening the race windows around joins;
//   * dropped wakeups             — the notification is suppressed entirely
//     and redelivered a little later by a one-shot on the runtime's
//     housekeeping thread, modelling a lost futex wake (waiters must
//     survive it, not hang);
//   * fulfiller failures          — Promise::fulfill throws
//     InjectedFaultError *before* the value is published, so the obligation
//     machinery (orphaning, poisoning, awaiter faulting) has to recover;
//   * worker-thread death         — a pool worker exits at a task boundary
//     (never mid-task) and the scheduler must respawn a replacement.
//
// Decisions are functions of (seed, site, event-counter) only — replaying
// the same seed against the same schedule injects the same faults, and a
// seed sweep explores distinct fault schedules. seed == 0 disables the
// whole layer; every hook then short-circuits on one relaxed load.

#include <atomic>
#include <cstdint>
#include <functional>

#include "core/async_detect.hpp"
#include "core/guarded.hpp"
#include "runtime/housekeeper.hpp"

namespace tj::runtime {

/// What to inject and how often. Periods are 1-in-N odds per event at the
/// site (hashed, not strictly periodic); 0 disables the site.
struct FaultPlan {
  std::uint64_t seed = 0;  ///< 0 ⇒ fault injection fully disabled

  std::uint32_t join_rejection_period = 0;    ///< spurious join rejections
  std::uint32_t await_rejection_period = 0;   ///< spurious await rejections
  std::uint32_t delayed_wakeup_period = 0;    ///< late Done/fulfill notify
  std::uint32_t delay_us = 200;               ///< how late
  std::uint32_t dropped_wakeup_period = 0;    ///< suppressed Done notify
  std::uint32_t redelivery_ms = 2;            ///< dropped-wakeup redelivery lag
  std::uint32_t fulfill_failure_period = 0;   ///< fulfill throws before value
  std::uint32_t worker_death_period = 0;      ///< worker exits at boundary
  std::uint32_t max_worker_deaths = 8;        ///< cap on respawn churn

  // Async-detector sites (consulted only when PolicyChoice::Async runs a
  // detector; dormant otherwise). Periods are per detector *tick*.
  std::uint32_t detector_delay_period = 0;    ///< stalled consumption ticks
  std::uint32_t detector_delay_us = 500;      ///< how long a stall lasts
  std::uint32_t detector_drop_period = 0;     ///< consumed-batch drops
  std::uint32_t detector_death_period = 0;    ///< detector-thread deaths
  std::uint32_t max_detector_deaths = 16;     ///< cap on detector churn

  bool enabled() const { return seed != 0; }

  /// The canonical chaos-test plan: every site armed at moderate odds.
  static FaultPlan chaos(std::uint64_t seed) {
    FaultPlan p;
    p.seed = seed == 0 ? 1 : seed;  // seed 0 would disarm the plan
    p.join_rejection_period = 5;
    p.await_rejection_period = 4;
    p.delayed_wakeup_period = 6;
    p.dropped_wakeup_period = 7;
    p.fulfill_failure_period = 6;
    p.worker_death_period = 9;
    return p;
  }

  /// chaos() plus the detector sites armed — the async-mode chaos plan.
  /// Delay/drop odds are moderate (the detector must mostly keep up, so
  /// recoveries — not failovers — dominate); deaths are rarer than the
  /// respawn budget so most runs exercise revival, some exercise failover.
  static FaultPlan chaos_detector(std::uint64_t seed) {
    FaultPlan p = chaos(seed);
    p.detector_delay_period = 16;
    p.detector_drop_period = 48;
    p.detector_death_period = 512;
    return p;
  }
};

/// Counts of faults actually injected (for test assertions).
struct FaultStats {
  std::uint64_t join_rejections = 0;
  std::uint64_t await_rejections = 0;
  std::uint64_t delayed_wakeups = 0;
  std::uint64_t dropped_wakeups = 0;
  std::uint64_t fulfill_failures = 0;
  std::uint64_t worker_deaths = 0;
  std::uint64_t detector_delays = 0;
  std::uint64_t detector_drops = 0;
  std::uint64_t detector_deaths = 0;

  std::uint64_t total() const {
    return join_rejections + await_rejections + delayed_wakeups +
           dropped_wakeups + fulfill_failures + worker_deaths +
           detector_delays + detector_drops + detector_deaths;
  }
};

/// The live injector: owned by the Runtime when its config carries an
/// enabled FaultPlan, consulted by the gate (as GateFaultHooks), the
/// scheduler (worker death) and the task/promise publication paths
/// (wakeup faults). Thread-safe; every decision is lock-free.
class FaultInjector final : public core::GateFaultHooks,
                            public core::DetectorFaultHooks {
 public:
  FaultInjector(FaultPlan plan, Housekeeper& housekeeper);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- gate hooks (core::GateFaultHooks) ---
  bool inject_join_rejection() noexcept override;
  bool inject_await_rejection() noexcept override;

  // --- detector hooks (core::DetectorFaultHooks) ---
  std::uint64_t detector_delay_us() noexcept override;
  bool drop_detector_batch() noexcept override;
  bool kill_detector() noexcept override;

  // --- wakeup faults ---
  /// Called with the Done/fulfilled store already published. Either delays
  /// the calling thread briefly (delayed wakeup), or swallows this
  /// notification and schedules `renotify` redelivery_ms later on the
  /// housekeeper (dropped wakeup, returns true — the caller must then NOT
  /// notify), or does nothing. `renotify` must be safe to run until the
  /// housekeeper stops.
  bool perturb_wakeup(std::function<void()> renotify);

  /// Delay-only variant for publication paths whose notification must not
  /// be dropped (promise settling inside the kFulfilling window): sleeps
  /// briefly when the plan's delayed-wakeup site fires.
  void maybe_delay_publication() noexcept;

  // --- fulfiller failure ---
  /// Throws InjectedFaultError when the plan says this fulfill should fail.
  /// Called before the fulfilment state machine advances, so a failed
  /// fulfill leaves the promise unfulfilled (and later orphaned/poisoned).
  void maybe_fail_fulfill();

  // --- worker death ---
  /// True ⇒ the calling worker should die at this task boundary (bounded by
  /// max_worker_deaths; the scheduler respawns a replacement).
  bool should_kill_worker() noexcept;

  FaultStats stats() const;

 private:
  // Deterministic 1-in-period decision for the n-th event at `site`.
  bool decide(std::uint32_t period, std::uint32_t site,
              std::atomic<std::uint64_t>& counter,
              std::atomic<std::uint64_t>& injected) noexcept;

  const FaultPlan plan_;
  Housekeeper& housekeeper_;

  std::atomic<std::uint64_t> join_events_{0};
  std::atomic<std::uint64_t> await_events_{0};
  std::atomic<std::uint64_t> wakeup_events_{0};
  std::atomic<std::uint64_t> publication_events_{0};
  std::atomic<std::uint64_t> fulfill_events_{0};
  std::atomic<std::uint64_t> boundary_events_{0};
  std::atomic<std::uint64_t> detector_tick_events_{0};
  std::atomic<std::uint64_t> detector_batch_events_{0};
  std::atomic<std::uint64_t> detector_life_events_{0};

  std::atomic<std::uint64_t> join_rejections_{0};
  std::atomic<std::uint64_t> await_rejections_{0};
  std::atomic<std::uint64_t> delayed_wakeups_{0};
  std::atomic<std::uint64_t> dropped_wakeups_{0};
  std::atomic<std::uint64_t> fulfill_failures_{0};
  std::atomic<std::uint64_t> worker_deaths_{0};
  std::atomic<std::uint64_t> detector_delays_{0};
  std::atomic<std::uint64_t> detector_drops_{0};
  std::atomic<std::uint64_t> detector_deaths_{0};
};

}  // namespace tj::runtime
