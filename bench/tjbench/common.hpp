#pragma once
// Shared pieces of the tjbench driver: the per-run result every workload
// fills, exact order statistics, and the layer counters read through the
// runtime's public accessors and diffed over the timed window.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/guarded.hpp"
#include "obs/contention.hpp"
#include "runtime/runtime.hpp"
#include "spans.hpp"

namespace tjbench {

/// Worker threads per runtime: one per core of the 4-core reference machine.
inline constexpr unsigned kWorkers = 4;

/// Independent set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string trace_file;  ///< non-empty: traced run
  std::string json_file;
};

/// What one workload run reports. `counters` are the per-layer numbers the
/// runtime's public counters give, already in the name/unit tjbench
/// publishes; span statistics are computed by run.py from the trace file.
struct RunResult {
  std::vector<double> setup_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< wrong results, faults, nominal sheds/lates
  std::uint64_t wrong = 0;   ///< of `failed`: outputs that were not correct
  double ops_per_s = 0;
  double op_p50_us = 0;
  double op_p90_us = 0;
  double op_p99_us = 0;
  std::uint64_t samples = 0;  ///< latency samples behind the percentiles
  std::map<std::string, double> counters;
  std::map<std::string, bool> checks;  ///< invariants; any false fails the run
};

/// Exact nearest-rank quantile (reorders `v`); 0 for an empty sample.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// Identifies the calling OS thread (address of a thread-local).
inline std::uintptr_t thread_tag() {
  thread_local char tag;
  return reinterpret_cast<std::uintptr_t>(&tag);
}

/// Deterministic xorshift stream; every input derives from --seed via it.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed * 0x9e3779b97f4a7c15ULL | 1) {}
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  /// Uniform in (0, 1].
  double u01() {
    return (static_cast<double>(next() >> 11) + 1.0) / 9007199254740993.0;
  }
};

/// The process-global lock registry, by site name.
using LockMap = std::map<std::string, tj::obs::SiteSnapshot>;
LockMap lock_snapshot();

/// Cumulative counters of one runtime at one instant, from public
/// accessors only.
struct LayerSnap {
  tj::core::GateStats gate;
  std::uint64_t executed = 0;
  std::uint64_t inlined = 0;
  unsigned threads = 0;
  tj::obs::WorkerStateBoard::Totals workers;
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
};
LayerSnap snap(const tj::runtime::Runtime& rt);

/// Window deltas summed over one or more runtimes (apps builds one per run).
struct LayerDelta {
  std::uint64_t cycle_checks = 0;
  std::uint64_t rejections = 0;  ///< policy + OWP rejections
  std::uint64_t executed = 0;
  std::uint64_t inlined = 0;
  std::uint64_t threads_added = 0;
  std::uint64_t state_ns[tj::obs::kWorkerStateCount] = {};
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
      lock_acq_contended;
  std::map<std::string, std::uint64_t> lock_wait_ns;
  std::size_t verifier_peak_bytes = 0;
  std::size_t owp_peak_bytes = 0;

  void add(const LayerSnap& before, const LayerSnap& after);
  void add_locks(const LockMap& before, const LockMap& after);
  void note_peaks(const tj::runtime::Runtime& rt);
};

/// The gate's exact identities: every policy/OWP rejection ends as a false
/// positive or an averted deadlock, and every admission check as an admit
/// or a shed.
bool gate_reconciles(const tj::core::GateStats& g);

/// Fills the per-layer counter metrics shared by every workload.
void fill_layer_counters(RunResult& r, const LayerDelta& d, double ops,
                         double window_s);

/// getrusage peak resident set of this process, MiB.
double peak_rss_mb();

// The workloads. Each fills `r` (and spans when tracing).
void run_closed_loop(const Options& o, RunResult& r);
void run_apps(const Options& o, RunResult& r);
void run_service(const Options& o, RunResult& r);

/// Isolated public-class probes (verifier, WFG, flight recorder). Traced
/// run only.
void run_probes(RunResult& r);

}  // namespace tjbench
