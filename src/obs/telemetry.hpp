#pragma once
// Continuous telemetry export: a sampler on the runtime's housekeeping
// thread (runtime/housekeeper.hpp) that turns the introspection snapshot
// machinery (runtime/introspect.hpp) into a time series. Every cadence_ms
// it captures a RuntimeSnapshot plus every metrics histogram's summary(),
// and appends one self-contained JSON object per sample to a JSONL file; optionally it also rewrites a Prometheus
// text-exposition file (file-based scrape target — this tree has no HTTP
// server and needs none for node-exporter-style collection).
//
// Cost contract (same as the flight recorder): when the runtime's obs
// config is off there is no recorder, the sink refuses to start, and
// nothing samples — the hot path never knows telemetry exists. When on,
// the cost is one snapshot + O(histograms) relaxed reads per tick on the
// housekeeping thread; the instrumented code paths pay nothing extra.
//
// Every counter and quantile in a sample is cumulative since runtime
// construction; the per-tick "delta" object carries the count/sum_ns
// increments since the previous sample for rate computation. The final
// sample (written synchronously by stop(), after the workload quiesced)
// therefore reconciles exactly with the runtime's end-of-run stats —
// loadgen asserts that, sample-file against gate_stats(), per run.
//
// This header lives with the other obs sinks but the implementation is
// compiled into the tj_runtime library: sampling needs RuntimeSnapshot,
// and the obs library must stay below the runtime in the layering.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/guarded.hpp"
#include "obs/metrics.hpp"
#include "runtime/housekeeper.hpp"

namespace tj::runtime {
class Runtime;
struct RuntimeSnapshot;
}  // namespace tj::runtime

namespace tj::obs {

struct TelemetryConfig {
  std::string jsonl_path;       ///< "" disables the JSONL time series
  std::string prometheus_path;  ///< "" disables the Prometheus dump
  std::uint32_t cadence_ms = 250;
  /// Stamped into every sample as "scheduler" (loadgen runs one runtime
  /// per scheduler mode into a shared stream); "" omits the field.
  std::string scheduler_label;
};

class TelemetrySink {
 public:
  /// Construction is passive: nothing samples until start(). When the
  /// runtime has no recorder (Config::obs off) the sink is permanently
  /// inert — start() is a no-op and active() stays false.
  TelemetrySink(const runtime::Runtime& rt, TelemetryConfig cfg);
  ~TelemetrySink();  // stop() if still running
  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;

  /// Adds a service-owned histogram (e.g. loadgen's request latency) to
  /// every sample under hist.<name>. Call before start(); the histogram
  /// must outlive the sink.
  void register_histogram(std::string name, const LatencyHistogram* h);

  /// Starts sampling every cadence_ms. No-op when inert or already started.
  void start();

  /// Cancels the periodic sample (waiting out one in flight), takes one
  /// final synchronous sample (the reconciliation anchor), flushes the
  /// JSONL stream and rewrites the Prometheus dump. Idempotent.
  void stop();

  /// True once start() succeeded (recorder attached + output configured).
  bool active() const { return active_.load(std::memory_order_acquire); }

  /// Samples written so far (including the final one after stop()).
  std::uint64_t samples() const {
    return samples_.load(std::memory_order_relaxed);
  }

  /// Captures and writes one sample immediately (also what the periodic
  /// timer and stop() call). Exposed so tests can drive the sink without
  /// timing dependence. No-op when the sink never became active.
  void sample_now();

 private:
  struct ExtraHist {
    std::string name;
    const LatencyHistogram* hist;
  };
  struct DeltaState {
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
  };

  /// Pre: mu_ held. Renders + writes one sample, updates delta state.
  void sample_locked();
  std::string render_prometheus(const runtime::RuntimeSnapshot& s);

  const runtime::Runtime& rt_;
  const TelemetryConfig cfg_;
  std::vector<ExtraHist> extra_;

  std::atomic<bool> active_{false};
  std::atomic<std::uint64_t> samples_{0};

  std::mutex mu_;  // guards jsonl_, delta state, and sampling itself
  std::ofstream jsonl_;
  std::vector<DeltaState> hist_prev_;  // registry hists then extra_, in order
  core::GateStats prev_gate_;
  std::uint64_t prev_lock_acquisitions_ = 0;
  std::uint64_t prev_lock_contended_ = 0;
  std::chrono::steady_clock::time_point epoch_{};

  runtime::Housekeeper::Id timer_ = 0;  // guarded by mu_
  bool stopped_ = false;                // guarded by mu_
};

}  // namespace tj::obs
