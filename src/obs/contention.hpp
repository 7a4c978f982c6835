#pragma once
// Contention observatory: drop-in profiled lock wrappers with a per-site
// registry, plus the per-worker state board the scheduler publishes into.
//
// The repo's hot path still serializes through a handful of mutexes (the
// gate's await/witness locks, the WFG graph lock, the scheduler queue) —
// ROADMAP item 1 names that as the scalability ceiling. Before any of it
// can be rebuilt around atomics, it has to be *measurable*: which site,
// how often contended, how long the waits, and how much of the worker
// pool the waiting costs. `ProfiledMutex` answers the lock questions;
// `WorkerStateBoard` answers the pool question.
//
// Cost contract (mirrors the flight recorder's):
//   - profiling OFF (the default): `lock()` is one relaxed load plus the
//     bare `std::mutex::lock()`. No clock reads, no registry entry is ever
//     created — the registry stays empty ("registry-inert").
//   - profiling ON, uncontended: `try_lock` success plus ONE relaxed
//     counter increment. Still no clock read.
//   - profiling ON, contended: two clock reads bracketing the blocking
//     `lock()`, a wait-ns histogram record, and a hold-ns record at unlock
//     when the hold exceeded `kLongHoldNs`. Hold time is only measured for
//     contended acquisitions — timing every uncontended hold would put a
//     clock read on the fast path, which the contract forbids.
//
// Profiling is enabled by a process-wide refcount: each Runtime whose
// `Config::obs.enabled` is set holds a `ContentionEnableGuard`; the
// scaling benchmark retains it directly (no recorder needed). Sites are
// interned by *name* — two mutexes constructed with the same site string
// share one `SiteStats` — and the registry is process-global and
// cumulative: counters never reset, so readers diff snapshots.
//
// Reconciliation invariant (exported through telemetry and asserted by
// loadgen/tests): per site, acquisitions == uncontended + contended
// exactly, and wait_count <= contended always (writers bump `contended`
// before recording the wait; readers read the wait count first). Quiesced,
// wait_count == contended exactly.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace tj::obs {

// ---- global enable refcount ------------------------------------------------

/// True while at least one retainer (Runtime with obs on, or a benchmark)
/// wants lock/worker profiling. One relaxed load; safe from any thread.
bool contention_profiling_enabled();
void contention_profiling_retain();
void contention_profiling_release();

/// RAII retainer. `Runtime` holds one (active iff `Config::obs.enabled`);
/// a test or benchmark may hold one directly to profile without a recorder.
class ContentionEnableGuard {
 public:
  explicit ContentionEnableGuard(bool on) : on_(on) {
    if (on_) contention_profiling_retain();
  }
  ~ContentionEnableGuard() {
    if (on_) contention_profiling_release();
  }
  ContentionEnableGuard(const ContentionEnableGuard&) = delete;
  ContentionEnableGuard& operator=(const ContentionEnableGuard&) = delete;

 private:
  bool on_;
};

// ---- per-site registry -----------------------------------------------------

/// One interned lock site. Stable address for the wrapper to cache; all
/// fields relaxed atomics (LatencyHistogram is already relaxed inside).
struct SiteStats {
  std::string name;
  std::atomic<std::uint64_t> uncontended{0};
  std::atomic<std::uint64_t> contended{0};
  LatencyHistogram wait_ns;  ///< time blocked in a contended lock()
  LatencyHistogram hold_ns;  ///< long holds (>= kLongHoldNs), contended only
};

/// Plain-value snapshot of one site, read in the order that preserves the
/// invariant wait.count <= contended <= acquisitions under concurrency.
struct SiteSnapshot {
  std::string name;
  std::uint64_t uncontended = 0;
  std::uint64_t contended = 0;
  std::uint64_t acquisitions = 0;  ///< uncontended + contended at read time
  LatencyHistogram::Summary wait;
  LatencyHistogram::Summary hold;
};

/// Process-global site table. Interning takes a plain mutex (cold: once
/// per site per process); reading snapshots is lock-free after the site
/// list is copied. Sites are never removed — addresses are stable for the
/// process lifetime, which is what lets wrappers cache the pointer.
class ContentionRegistry {
 public:
  static ContentionRegistry& instance();

  /// Returns the (shared) stats slot for `name`, creating it on first use.
  SiteStats* intern(const char* name);

  std::vector<SiteSnapshot> snapshot() const;
  std::size_t site_count() const;

  /// Human-readable table (trace_dump --metrics, introspection fallback).
  std::string to_string() const;

 private:
  ContentionRegistry() = default;

  mutable std::mutex mu_;
  // deque-like stability via pointers; vector of owning pointers keeps
  // iteration simple and addresses stable across growth.
  std::vector<SiteStats*> sites_;
};

/// Snapshot a single interned site (nullptr-safe helper used by tests).
SiteSnapshot snapshot_site(const SiteStats& s);

// ---- worker-state timelines ------------------------------------------------

/// What a scheduler worker is doing right now. Published always (one
/// relaxed store per transition); *timed* only while profiling is enabled.
enum class WorkerState : std::uint8_t {
  Idle = 0,         ///< parked on the scheduler's sleep futex, no work
  Stealing = 1,     ///< woke up, dequeuing / looking for work
  Running = 2,      ///< executing a claimed task body
  BlockedJoin = 3,  ///< blocked in an admitted join/await
  BlockedLock = 4,  ///< blocked acquiring a profiled runtime lock
};
inline constexpr std::size_t kWorkerStateCount = 5;

const char* to_string(WorkerState s);

std::uint64_t contention_now_ns();

/// One worker's published state plus its cumulative per-state timeline, on
/// its own cache line: slots are allocated back to back, written in parallel.
struct alignas(64) WorkerSlot {
  std::atomic<std::uint8_t> state{
      static_cast<std::uint8_t>(WorkerState::Idle)};
  std::atomic<std::uint64_t> state_ns[kWorkerStateCount] = {};
  std::atomic<std::uint64_t> last_ns{0};  ///< 0 = timing not started
  std::atomic<std::uint64_t> transitions{0};

  /// Publish a transition. The state word is always stored; clock reads
  /// and accumulation happen only while profiling is enabled (so the
  /// scheduler pays one relaxed store per transition when off). A slot
  /// whose timing starts mid-run begins accumulating at its first enabled
  /// transition (`last_ns == 0` guards the first interval).
  void set_state(WorkerState s) {
    const std::uint8_t prev =
        state.exchange(static_cast<std::uint8_t>(s),
                       std::memory_order_relaxed);
    if (!contention_profiling_enabled()) return;
    const std::uint64_t now = contention_now_ns();
    const std::uint64_t last =
        last_ns.exchange(now, std::memory_order_relaxed);
    if (last != 0 && now > last) {
      state_ns[prev].fetch_add(now - last, std::memory_order_relaxed);
    }
    transitions.fetch_add(1, std::memory_order_relaxed);
  }

  WorkerState current() const {
    return static_cast<WorkerState>(state.load(std::memory_order_relaxed));
  }
};

/// Scheduler-owned board of worker slots. Registration is cold (worker
/// start); readers fold the slots into per-state totals, charging each
/// worker's in-progress interval to its current state (one-transition
/// read skew, acceptable for a profile).
class WorkerStateBoard {
 public:
  WorkerStateBoard() = default;
  ~WorkerStateBoard();
  WorkerStateBoard(const WorkerStateBoard&) = delete;
  WorkerStateBoard& operator=(const WorkerStateBoard&) = delete;

  /// Stable slot for one worker thread, starting with a transition to Idle,
  /// so it shows on the board before its thread first runs.
  WorkerSlot* register_worker();

  struct Totals {
    std::size_t workers = 0;
    std::uint64_t current[kWorkerStateCount] = {};   ///< workers in state now
    std::uint64_t state_ns[kWorkerStateCount] = {};  ///< cumulative + in-flight
    std::uint64_t transitions = 0;
    std::uint64_t total_ns() const {
      std::uint64_t t = 0;
      for (std::size_t i = 0; i < kWorkerStateCount; ++i) t += state_ns[i];
      return t;
    }
    /// Mean number of workers actually Running over the timed window —
    /// the effective-parallelism number the scaling story is about.
    double effective_parallelism() const {
      const std::uint64_t t = total_ns();
      return t == 0 ? 0.0
                    : static_cast<double>(
                          state_ns[static_cast<std::size_t>(
                              WorkerState::Running)]) *
                          static_cast<double>(workers) /
                          static_cast<double>(t);
    }
  };
  Totals totals() const;

  std::string to_string() const;

 private:
  mutable std::mutex mu_;
  std::vector<WorkerSlot*> slots_;
};

/// TLS slot pointer for the calling thread: set by the scheduler's worker
/// loop, read by ProfiledMutex's contended path to publish BlockedLock.
/// Null on non-worker threads (profiled locks still time waits there).
WorkerSlot*& tls_worker_slot();

/// RAII state transition that restores the previous state on exit; no-op
/// when `slot` is null. Used for Running / BlockedJoin / BlockedLock
/// brackets so nesting (e.g. cooperative inline help) composes.
class ScopedWorkerState {
 public:
  ScopedWorkerState(WorkerSlot* slot, WorkerState s) : slot_(slot) {
    if (slot_ != nullptr) {
      prev_ = slot_->current();
      slot_->set_state(s);
    }
  }
  ~ScopedWorkerState() {
    if (slot_ != nullptr) slot_->set_state(prev_);
  }
  ScopedWorkerState(const ScopedWorkerState&) = delete;
  ScopedWorkerState& operator=(const ScopedWorkerState&) = delete;

 private:
  WorkerSlot* slot_;
  WorkerState prev_ = WorkerState::Idle;
};

// ---- profiled lock wrappers ------------------------------------------------

/// Holds at or above this are "long" and land in the site's hold_ns
/// histogram (contended acquisitions only — see the cost contract).
inline constexpr std::uint64_t kLongHoldNs = 100'000;  // 100 µs

/// Drop-in `std::mutex` replacement satisfying Lockable, so deduced
/// `std::scoped_lock` / `std::unique_lock` / `std::lock_guard` and
/// `std::condition_variable_any` work unchanged. Construct with a stable
/// site-name literal; instances sharing a name share one registry slot.
class ProfiledMutex {
 public:
  explicit ProfiledMutex(const char* site) : site_name_(site) {}
  ProfiledMutex(const ProfiledMutex&) = delete;
  ProfiledMutex& operator=(const ProfiledMutex&) = delete;

  void lock() {
    if (!contention_profiling_enabled()) {
      mu_.lock();
      return;
    }
    if (mu_.try_lock()) {
      stats()->uncontended.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    SiteStats* s = stats();
    const std::uint64_t t0 = contention_now_ns();
    {
      ScopedWorkerState blocked(tls_worker_slot(), WorkerState::BlockedLock);
      mu_.lock();
    }
    const std::uint64_t t1 = contention_now_ns();
    // Order matters for the reconciliation invariant: contended is bumped
    // BEFORE the wait record, and readers read the wait count first, so
    // wait_count <= contended at every instant.
    s->contended.fetch_add(1, std::memory_order_relaxed);
    s->wait_ns.record(t1 - t0);
    acquired_ns_ = t1;  // plain field: guarded by the mutex we now hold
  }

  bool try_lock() {
    if (!mu_.try_lock()) return false;
    if (contention_profiling_enabled()) {
      stats()->uncontended.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }

  void unlock() {
    if (acquired_ns_ != 0) {
      const std::uint64_t hold = contention_now_ns() - acquired_ns_;
      acquired_ns_ = 0;
      // stats() is already cached: only a contended lock() stamps
      // acquired_ns_, and that path interned the site.
      if (hold >= kLongHoldNs) stats()->hold_ns.record(hold);
    }
    mu_.unlock();
  }

  const char* site_name() const { return site_name_; }
  /// Null until the first profiled acquisition (registry-inert when off).
  SiteStats* site() const { return site_.load(std::memory_order_acquire); }

 private:
  SiteStats* stats() {
    SiteStats* s = site_.load(std::memory_order_acquire);
    if (s == nullptr) {
      s = ContentionRegistry::instance().intern(site_name_);
      site_.store(s, std::memory_order_release);
    }
    return s;
  }

  std::mutex mu_;
  const char* site_name_;
  std::atomic<SiteStats*> site_{nullptr};
  std::uint64_t acquired_ns_ = 0;  ///< nonzero while a contended hold runs
};

/// `std::shared_mutex` counterpart (SharedLockable + Lockable). Exclusive
/// acquisitions follow ProfiledMutex's contract exactly; shared
/// acquisitions count and time waits but never hold time (many concurrent
/// shared holders cannot share one plain stamp field).
class ProfiledSharedMutex {
 public:
  explicit ProfiledSharedMutex(const char* site) : site_name_(site) {}
  ProfiledSharedMutex(const ProfiledSharedMutex&) = delete;
  ProfiledSharedMutex& operator=(const ProfiledSharedMutex&) = delete;

  void lock() {
    if (!contention_profiling_enabled()) {
      mu_.lock();
      return;
    }
    if (mu_.try_lock()) {
      stats()->uncontended.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    SiteStats* s = stats();
    const std::uint64_t t0 = contention_now_ns();
    {
      ScopedWorkerState blocked(tls_worker_slot(), WorkerState::BlockedLock);
      mu_.lock();
    }
    const std::uint64_t t1 = contention_now_ns();
    s->contended.fetch_add(1, std::memory_order_relaxed);
    s->wait_ns.record(t1 - t0);
    acquired_ns_ = t1;
  }

  bool try_lock() {
    if (!mu_.try_lock()) return false;
    if (contention_profiling_enabled()) {
      stats()->uncontended.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }

  void unlock() {
    if (acquired_ns_ != 0) {
      const std::uint64_t hold = contention_now_ns() - acquired_ns_;
      acquired_ns_ = 0;
      if (hold >= kLongHoldNs) stats()->hold_ns.record(hold);
    }
    mu_.unlock();
  }

  void lock_shared() {
    if (!contention_profiling_enabled()) {
      mu_.lock_shared();
      return;
    }
    if (mu_.try_lock_shared()) {
      stats()->uncontended.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    SiteStats* s = stats();
    const std::uint64_t t0 = contention_now_ns();
    {
      ScopedWorkerState blocked(tls_worker_slot(), WorkerState::BlockedLock);
      mu_.lock_shared();
    }
    const std::uint64_t t1 = contention_now_ns();
    s->contended.fetch_add(1, std::memory_order_relaxed);
    s->wait_ns.record(t1 - t0);
  }

  bool try_lock_shared() {
    if (!mu_.try_lock_shared()) return false;
    if (contention_profiling_enabled()) {
      stats()->uncontended.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }

  void unlock_shared() { mu_.unlock_shared(); }

  const char* site_name() const { return site_name_; }
  SiteStats* site() const { return site_.load(std::memory_order_acquire); }

 private:
  SiteStats* stats() {
    SiteStats* s = site_.load(std::memory_order_acquire);
    if (s == nullptr) {
      s = ContentionRegistry::instance().intern(site_name_);
      site_.store(s, std::memory_order_release);
    }
    return s;
  }

  std::shared_mutex mu_;
  const char* site_name_;
  std::atomic<SiteStats*> site_{nullptr};
  std::uint64_t acquired_ns_ = 0;  ///< exclusive contended holds only
};

}  // namespace tj::obs
