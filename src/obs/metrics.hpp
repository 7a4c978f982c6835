#pragma once
// Metrics registry: counters plus log-bucketed latency histograms for the
// quantities the paper's evaluation discusses per join — policy-check time,
// time spent blocked in an admitted join/await, and the cost of a WFG
// fallback cycle scan. All updates are relaxed atomics: safe from any
// thread, never a lock on the hot path.

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>

namespace tj::obs {

/// Log2-bucketed histogram of nanosecond latencies. Bucket 0 holds exact
/// zeros; bucket i (1 ≤ i < kBuckets-1) holds values in [2^(i-1), 2^i);
/// the last bucket is the explicit overflow bucket for everything at or
/// above 2^(kBuckets-2) ns (≈ 4.6 minutes) — large values are counted, not
/// silently clamped away.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  static constexpr std::size_t bucket_index(std::uint64_t ns) {
    if (ns == 0) return 0;
    const std::size_t w = static_cast<std::size_t>(std::bit_width(ns));
    return w < kBuckets - 1 ? w : kBuckets - 1;
  }

  /// Lower bound (inclusive) of bucket i in ns.
  static constexpr std::uint64_t bucket_floor(std::size_t i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }

  void record(std::uint64_t ns) noexcept {
    buckets_[bucket_index(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
    update_min(ns);
    update_max(ns);
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// Total of all recorded values — the reconciliation anchor the critical-
  /// path profiler's on-path + off-path attribution must sum to.
  std::uint64_t sum_ns() const {
    return sum_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Count in the overflow (last) bucket.
  std::uint64_t overflow_count() const { return bucket_count(kBuckets - 1); }
  /// Min/max recorded value; 0 when empty.
  std::uint64_t min_ns() const {
    const std::uint64_t m = min_.load(std::memory_order_relaxed);
    return m == kEmptyMin ? 0 : m;
  }
  std::uint64_t max_ns() const {
    return max_.load(std::memory_order_relaxed);
  }

  /// The smallest bucket floor F such that at least `q` (0..1) of recorded
  /// values are < 2F — a log2-resolution upper percentile estimate.
  std::uint64_t approx_quantile_ns(double q) const;

  /// One consistent-enough snapshot of the headline statistics (each field
  /// is a relaxed read; a concurrent record() may skew them by one sample).
  struct Summary {
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
    std::uint64_t min_ns = 0;
    std::uint64_t max_ns = 0;
    std::uint64_t p50_ns = 0;  ///< log2-resolution estimates (bucket floors)
    std::uint64_t p90_ns = 0;
    std::uint64_t p99_ns = 0;
    std::uint64_t p999_ns = 0;  ///< the service-level tail the SLOs gate on
  };
  Summary summary() const;

  /// "count=… min=… p50≈… p99≈… max=…" plus the nonzero buckets.
  std::string to_string() const;

 private:
  static constexpr std::uint64_t kEmptyMin = ~std::uint64_t{0};

  void update_min(std::uint64_t v) noexcept {
    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  void update_max(std::uint64_t v) noexcept {
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> min_{kEmptyMin};
  std::atomic<std::uint64_t> max_{0};
};

/// The recorder's counter table: one X(name, help) entry per counter, in
/// declaration order. The Metrics atomics, the Counters copy,
/// Metrics::counters() and for_each_counter() all expand it, and every
/// exporter walks for_each_counter(), so a counter is named only here.
/// Counts the gate already keeps (admissions, sheds, recoveries) live in
/// core::GateStats, not here.
#define TJ_METRICS_COUNTERS(X)                                            \
  X(faults_injected, "chaos faults fired")                                \
  X(compensation_spawns, "compensating workers spawned for blocked joins") \
  X(stall_reports, "watchdog stall reports")                              \
  X(policy_downgrades, "degradation ladder steps")                        \
  X(spawn_inlines, "spawns run inline under backpressure")                \
  X(join_timeouts, "join_for deadline expirations")                       \
  X(kj_compactions, "KJ-VC clock compactions")                            \
  X(detector_failovers, "async detector budget failovers")                \
  X(detector_respawns, "async detector thread revivals")

/// A plain copy of the registry's counters (Metrics::counters()).
struct Counters {
#define TJ_COUNTER_FIELD(name, help) std::uint64_t name = 0;
  TJ_METRICS_COUNTERS(TJ_COUNTER_FIELD)
#undef TJ_COUNTER_FIELD
};

/// Visits f(name, value, help) for every counter in table order.
template <typename F>
void for_each_counter(const Counters& c, F&& f) {
#define TJ_COUNTER_VISIT(name, help) f(#name, c.name, help);
  TJ_METRICS_COUNTERS(TJ_COUNTER_VISIT)
#undef TJ_COUNTER_VISIT
}

/// "name=value" for every counter, space-separated.
std::string to_string(const Counters& c);

/// The recorder's fixed metric set. Histograms are updated by the gate and
/// runtime only while recording is enabled; counters mirror incident events
/// so they can be read without draining the event stream.
struct Metrics {
  LatencyHistogram policy_check_ns;   ///< gate policy evaluation (join+await)
  LatencyHistogram blocked_join_ns;   ///< wall time blocked in admitted joins
  LatencyHistogram blocked_await_ns;  ///< wall time blocked in admitted awaits
  LatencyHistogram cycle_scan_ns;     ///< WFG fallback scan duration
  /// Async-mode recovery latency: cycle formation (victim's wait edge
  /// registered) → victim's wait broken. The bounded-latency promise the
  /// recovery SLO (recovery_p99_ms) gates on. Empty outside Async mode.
  LatencyHistogram recovery_ns;

#define TJ_COUNTER_ATOMIC(name, help) std::atomic<std::uint64_t> name{0};
  TJ_METRICS_COUNTERS(TJ_COUNTER_ATOMIC)
#undef TJ_COUNTER_ATOMIC

  /// Visits (name, histogram) for each histogram in the registry.
  template <typename F>
  void for_each_histogram(F&& f) const {
    f("policy_check_ns", policy_check_ns);
    f("blocked_join_ns", blocked_join_ns);
    f("blocked_await_ns", blocked_await_ns);
    f("cycle_scan_ns", cycle_scan_ns);
    f("recovery_ns", recovery_ns);
  }

  /// Relaxed reads of every counter.
  Counters counters() const;

  std::string to_string() const;
};

}  // namespace tj::obs
