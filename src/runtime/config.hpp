#pragma once
// Runtime configuration: which policy verifies joins, how rejections fault,
// and which of the two HJ-style join disciplines the work-stealing scheduler
// uses (paper footnote 4 evaluates both a blocking and a cooperative
// work-sharing runtime; only the queue discipline differs here).

#include <cstdint>
#include <string_view>
#include <thread>

#include "core/async_detect.hpp"
#include "core/guarded.hpp"
#include "core/policy_ids.hpp"
#include "obs/recorder.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/governor.hpp"
#include "runtime/watchdog.hpp"

namespace tj::runtime {

enum class SchedulerMode : std::uint8_t {
  /// A worker whose join must wait blocks its thread; the pool spawns a
  /// bounded number of compensation workers to preserve parallelism
  /// (the join discipline of HJ's blocking runtime).
  Blocking,
  /// A worker whose join target is still queued claims and runs it inline
  /// (help-first); it only blocks when the target is already running
  /// elsewhere (the join discipline of HJ's cooperative runtime, used for
  /// NQueens).
  Cooperative,
};

constexpr std::string_view to_string(SchedulerMode m) {
  return m == SchedulerMode::Blocking ? "blocking" : "cooperative";
}

struct Config {
  core::PolicyChoice policy = core::PolicyChoice::TJ_SP;
  /// Verification of promise operations (orthogonal to `policy`, which
  /// covers futures/joins). OWP is cheap when unused — a program that never
  /// makes a promise pays one relaxed load per join — so it defaults on.
  core::PromisePolicy promise_policy = core::PromisePolicy::OWP;
  core::FaultMode fault = core::FaultMode::Fallback;
  SchedulerMode scheduler = SchedulerMode::Cooperative;
  /// Worker threads; 0 → std::thread::hardware_concurrency().
  unsigned workers = 0;
  /// Upper bound on total pool threads in Blocking mode (compensation cap).
  unsigned max_threads = 256;
  /// Record the execution's init/fork/join actions as a trace (Def. 3.1),
  /// retrievable via Runtime::recorded_trace(). For tests and debugging;
  /// adds a lock per fork/join.
  bool record_trace = false;
  /// Non-zero: inject pseudo-random yields at fork/join boundaries to
  /// perturb interleavings (schedule fuzzing for tests). Different seeds
  /// explore different schedules; 0 disables injection entirely.
  std::uint64_t chaos_seed = 0;
  /// When true, any task's uncaught failure cancels every still-pending task
  /// in the runtime (the root cancellation scope cancels on fault): queued
  /// siblings complete with CancelledError, their promises are poisoned, and
  /// blocked dependents fail fast instead of waiting on work that will never
  /// finish. Default preserves the fire-and-forget semantics: a failure
  /// surfaces only at the failed task's own join.
  bool cancel_on_fault = false;
  /// Join watchdog (stall detector); disabled by default — joins then pay
  /// no watchdog cost at all.
  WatchdogConfig watchdog;
  /// Deterministic fault injection for chaos testing; plan.seed == 0 (the
  /// default) disables the layer entirely.
  FaultPlan fault_plan;
  /// Flight recorder (obs.enabled): per-thread ring buffers of every
  /// fork/join/verdict/scheduler event plus the metrics registry,
  /// retrievable via Runtime::recorder(). Off by default — instrumentation
  /// sites then cost one null-pointer branch each.
  obs::ObsConfig obs;
  /// Resource governance (governor.enabled): the configured policy becomes a
  /// degradation ladder whose levels a background governor can step down
  /// under verifier-footprint / WFG-size / latency pressure (see
  /// runtime/governor.hpp). Two GovernorConfig knobs are *inline* machinery
  /// enforced regardless of `enabled`: spawn_inline_watermark (spawn
  /// backpressure) and tenants (per-tenant admission control, wired as
  /// Runtime::admission() — see runtime/admission.hpp). Off by default —
  /// joins then pay no governance cost at all.
  GovernorConfig governor;
  /// Async-detection knobs, meaningful only under PolicyChoice::Async (the
  /// optimistic gate mode): tick period, lag/drop budgets, respawn budget.
  core::DetectorConfig detector;

  unsigned effective_workers() const {
    if (workers != 0) return workers;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 4;
  }

  /// Canonicalizes dependent knobs; the Runtime constructor applies this.
  /// PolicyChoice::Async REQUIRES the flight recorder (the detector consumes
  /// its event stream), so obs.enabled is forced on.
  static Config normalize(Config c) {
    if (c.policy == core::PolicyChoice::Async) c.obs.enabled = true;
    return c;
  }
};

}  // namespace tj::runtime
