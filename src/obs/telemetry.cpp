// TelemetrySink implementation. Compiled into tj_runtime (not tj_obs): it
// consumes RuntimeSnapshot, and the obs library sits below the runtime.

#include "obs/telemetry.hpp"

#include <cstdio>
#include <sstream>

#include "core/policy_ids.hpp"
#include "runtime/introspect.hpp"
#include "runtime/runtime.hpp"

namespace tj::obs {

namespace {

/// Minimal JSON string escape; telemetry names are ASCII but tenant names
/// come from user config.
std::string jesc(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// Writes comma-separated "name":value pairs, one per call — the sink for
/// the gate's for_each_field() and the metrics' for_each_counter().
struct JsonFields {
  std::ostringstream& os;
  const char* sep = "";
  void operator()(const char* name, std::uint64_t v, const char*) {
    os << sep << '"' << name << "\":" << v;
    sep = ",";
  }
};

void write_summary(std::ostringstream& os, const LatencyHistogram& h) {
  const LatencyHistogram::Summary s = h.summary();
  os << "{\"count\":" << s.count << ",\"sum_ns\":" << s.sum_ns
     << ",\"min_ns\":" << s.min_ns << ",\"max_ns\":" << s.max_ns
     << ",\"p50_ns\":" << s.p50_ns << ",\"p90_ns\":" << s.p90_ns
     << ",\"p99_ns\":" << s.p99_ns << ",\"p999_ns\":" << s.p999_ns << "}";
}

}  // namespace

TelemetrySink::TelemetrySink(const runtime::Runtime& rt, TelemetryConfig cfg)
    : rt_(rt), cfg_(std::move(cfg)) {}

TelemetrySink::~TelemetrySink() { stop(); }

void TelemetrySink::register_histogram(std::string name,
                                       const LatencyHistogram* h) {
  extra_.push_back({std::move(name), h});
}

void TelemetrySink::start() {
  std::scoped_lock lock(mu_);
  if (active()) return;
  // The recorder IS the obs on/off switch: no recorder, no telemetry —
  // the same single null-pointer branch contract every emit site has.
  if (rt_.recorder() == nullptr) return;
  if (cfg_.jsonl_path.empty() && cfg_.prometheus_path.empty()) return;
  if (!cfg_.jsonl_path.empty()) {
    jsonl_.open(cfg_.jsonl_path, std::ios::app);
    if (!jsonl_) return;
  }
  epoch_ = std::chrono::steady_clock::now();
  // Delta slots: the fixed metrics registry first, then registered extras.
  std::size_t fixed = 0;
  rt_.recorder()->metrics().for_each_histogram(
      [&fixed](const char*, const LatencyHistogram&) { ++fixed; });
  hist_prev_.assign(fixed + extra_.size(), DeltaState{});
  active_.store(true, std::memory_order_release);
  timer_ = rt_.housekeeper().every(
      std::chrono::milliseconds(cfg_.cadence_ms), [this] { sample_now(); });
}

void TelemetrySink::stop() {
  runtime::Housekeeper::Id timer = 0;
  {
    std::scoped_lock lock(mu_);
    if (!active() || stopped_) return;
    stopped_ = true;
    timer = timer_;
  }
  // Unlocked: an in-flight sample holds mu_ until it returns.
  rt_.housekeeper().cancel(timer);
  // Final synchronous sample: the workload has quiesced by the time a
  // service stops its sink, so this line carries the end-of-run truth the
  // reconciliation check compares against gate_stats().
  std::scoped_lock lock(mu_);
  sample_locked();
  if (jsonl_.is_open()) {
    jsonl_.flush();
    jsonl_.close();
  }
}

void TelemetrySink::sample_now() {
  if (!active()) return;
  std::scoped_lock lock(mu_);
  sample_locked();
}

void TelemetrySink::sample_locked() {
  const runtime::RuntimeSnapshot s = runtime::snapshot(rt_);
  const Metrics& m = rt_.recorder()->metrics();
  const std::uint64_t t_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  const std::uint64_t seq = samples_.fetch_add(1, std::memory_order_relaxed);

  std::ostringstream os;
  os << "{\"t_ms\":" << t_ms << ",\"seq\":" << seq;
  if (!cfg_.scheduler_label.empty()) {
    os << ",\"scheduler\":\"" << jesc(cfg_.scheduler_label) << "\"";
  }
  os << ",\"configured_policy\":\"" << core::to_string(s.configured)
     << "\",\"active_policy\":\"" << core::to_string(s.active)
     << "\",\"ladder_level\":" << s.ladder_level
     << ",\"ladder_levels\":" << s.ladder_levels
     << ",\"tasks_created\":" << s.tasks_created
     << ",\"promises_made\":" << s.promises_made
     << ",\"live_tasks\":" << s.live_tasks
     << ",\"watchdog_stalls\":" << s.watchdog_stalls
     << ",\"watchdog_cycles\":" << s.watchdog_cycles;

  os << ",\"gate\":{";
  core::for_each_field(s.gate, JsonFields{os});
  os << "}";

  if (s.recovery_attached) {
    os << ",\"detector\":{\"running\":"
       << (s.recovery.detector.running ? "true" : "false")
       << ",\"failed_over\":"
       << (s.recovery.detector.failed_over ? "true" : "false")
       << ",\"lag_events\":" << s.recovery.detector.lag_events
       << ",\"events_lost\":" << s.recovery.detector.events_lost
       << ",\"events_applied\":" << s.recovery.detector.events_applied
       << ",\"scans\":" << s.recovery.detector.authoritative_scans
       << ",\"cycles_confirmed\":" << s.recovery.detector.cycles_confirmed
       << ",\"respawns\":" << s.recovery.detector.respawns
       << ",\"breaks_posted\":" << s.recovery.breaks_posted
       << ",\"waits_registered\":" << s.recovery.waits_registered << "}";
  }

  os << ",\"counters\":{";
  for_each_counter(s.counters, JsonFields{os});
  os << "}";

  os << ",\"obs\":{\"events\":" << s.obs_events
     << ",\"dropped\":" << s.obs_dropped << "}";

  // Contention observatory: cumulative per-site counters + wait/hold
  // summaries. The registry is process-global, so in multi-runtime
  // processes (loadgen runs one runtime per mode) sites accumulate across
  // runs — readers diff or read the final sample, whose per-site
  // invariant acquisitions == uncontended + contended holds exactly.
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t lock_contended = 0;
  os << ",\"contention\":{\"enabled\":"
     << (s.contention_enabled ? "true" : "false") << ",\"sites\":[";
  for (std::size_t i = 0; i < s.lock_sites.size(); ++i) {
    const SiteSnapshot& site = s.lock_sites[i];
    lock_acquisitions += site.acquisitions;
    lock_contended += site.contended;
    if (i != 0) os << ",";
    os << "{\"site\":\"" << jesc(site.name)
       << "\",\"uncontended\":" << site.uncontended
       << ",\"contended\":" << site.contended
       << ",\"acquisitions\":" << site.acquisitions << ",\"wait\":{\"count\":"
       << site.wait.count << ",\"sum_ns\":" << site.wait.sum_ns
       << ",\"p50_ns\":" << site.wait.p50_ns << ",\"p99_ns\":"
       << site.wait.p99_ns << ",\"max_ns\":" << site.wait.max_ns
       << "},\"hold\":{\"count\":" << site.hold.count << ",\"sum_ns\":"
       << site.hold.sum_ns << ",\"p99_ns\":" << site.hold.p99_ns
       << ",\"max_ns\":" << site.hold.max_ns << "}}";
  }
  os << "]}";

  // Worker-state timelines: census now + cumulative ns per state.
  const WorkerStateBoard::Totals& w = s.workers;
  os << ",\"workers\":{\"count\":" << w.workers
     << ",\"transitions\":" << w.transitions
     << ",\"effective_parallelism\":" << w.effective_parallelism();
  for (std::size_t i = 0; i < kWorkerStateCount; ++i) {
    const char* name = to_string(static_cast<WorkerState>(i));
    os << ",\"" << name << "_now\":" << w.current[i] << ",\"" << name
       << "_ns\":" << w.state_ns[i];
  }
  os << "}";

  os << ",\"governor\":{\"attached\":"
     << (s.governor_attached ? "true" : "false")
     << ",\"pressure\":" << (s.governor_pressure ? "true" : "false")
     << ",\"verifier_bytes\":" << s.governor.verifier_bytes
     << ",\"wfg_edges\":" << s.governor.wfg_edges << "}";

  os << ",\"tenants\":[";
  for (std::size_t i = 0; i < s.tenants.size(); ++i) {
    const auto& t = s.tenants[i];
    if (i != 0) os << ",";
    os << "{\"name\":\"" << jesc(t.name) << "\",\"in_flight\":" << t.in_flight
       << ",\"admitted\":" << t.admitted << ",\"shed\":" << t.shed
       << ",\"released\":" << t.released
       << ",\"in_cooldown\":" << (t.in_cooldown ? "true" : "false") << "}";
  }
  os << "]";

  // Cumulative summaries plus per-tick deltas for every histogram, fixed
  // registry first, then service-registered extras — one flat namespace.
  os << ",\"hist\":{";
  std::size_t slot = 0;
  bool first_h = true;
  std::ostringstream deltas;
  const auto one = [&](const char* name, const LatencyHistogram& h) {
    if (!first_h) os << ",";
    first_h = false;
    os << "\"" << name << "\":";
    write_summary(os, h);
    DeltaState& prev = hist_prev_[slot];
    const std::uint64_t c = h.count();
    const std::uint64_t sum = h.sum_ns();
    if (slot != 0) deltas << ",";
    deltas << "\"" << name << "\":{\"count\":" << (c - prev.count)
           << ",\"sum_ns\":" << (sum - prev.sum_ns) << "}";
    prev.count = c;
    prev.sum_ns = sum;
    ++slot;
  };
  m.for_each_histogram(one);
  for (const ExtraHist& e : extra_) one(e.name.c_str(), *e.hist);
  os << "}";

  core::GateStats gate_delta = s.gate;
  gate_delta -= prev_gate_;
  prev_gate_ = s.gate;
  os << ",\"delta\":{" << deltas.str();
  core::for_each_field(gate_delta, JsonFields{os, ","});
  os << ",\"lock_acquisitions\":"
     << (lock_acquisitions - prev_lock_acquisitions_)
     << ",\"lock_contended\":" << (lock_contended - prev_lock_contended_)
     << "}}";
  prev_lock_acquisitions_ = lock_acquisitions;
  prev_lock_contended_ = lock_contended;

  // One worker-census event per tick so export_chrome can draw the state
  // counts as counter tracks alongside the event timeline. 12 bits per
  // state caps each count at 4095 — far above any real pool.
  if (s.workers.workers != 0) {
    Event ev;
    ev.kind = EventKind::WorkerSample;
    ev.actor = s.workers.workers;
    std::uint64_t packed = 0;
    for (std::size_t i = 0; i < kWorkerStateCount; ++i) {
      const std::uint64_t c =
          s.workers.current[i] < 0xfff ? s.workers.current[i] : 0xfff;
      packed |= c << (12 * i);
    }
    ev.payload = packed;
    rt_.recorder()->emit(ev);
  }

  if (jsonl_.is_open()) jsonl_ << os.str() << "\n";

  if (!cfg_.prometheus_path.empty()) {
    const std::string text = render_prometheus(s);
    const std::string tmp = cfg_.prometheus_path + ".tmp";
    if (std::ofstream out(tmp, std::ios::trunc); out) {
      out << text;
      out.close();
      std::rename(tmp.c_str(), cfg_.prometheus_path.c_str());
    }
  }
}

std::string TelemetrySink::render_prometheus(
    const runtime::RuntimeSnapshot& s) {
  const Metrics& m = rt_.recorder()->metrics();
  std::ostringstream os;
  // Every series is tj_<name>; gate and registry counters come straight
  // from their tables.
  const auto counter = [&os](const char* name, std::uint64_t v,
                             const char* help) {
    os << "# HELP tj_" << name << ' ' << help << "\n# TYPE tj_" << name
       << " counter\ntj_" << name << ' ' << v << "\n";
  };
  const auto gauge = [&os](const char* name, std::uint64_t v,
                           const char* help) {
    os << "# HELP tj_" << name << ' ' << help << "\n# TYPE tj_" << name
       << " gauge\ntj_" << name << ' ' << v << "\n";
  };
  core::for_each_field(s.gate, counter);
  for_each_counter(s.counters, counter);
  if (s.recovery_attached) {
    gauge("detector_lag_events", s.recovery.detector.lag_events,
          "async detector consumption backlog");
  }
  counter("watchdog_stalls", s.watchdog_stalls, "stall batches reported");
  counter("watchdog_cycles", s.watchdog_cycles,
          "cycles found by stall scans");
  counter("obs_events", s.obs_events, "flight-recorder events buffered");
  counter("obs_dropped", s.obs_dropped, "flight-recorder events dropped");
  gauge("live_tasks", s.live_tasks, "tasks submitted and not terminated");
  gauge("ladder_level", s.ladder_level, "active degradation level");
  gauge("governor_pressure", s.governor_pressure ? 1 : 0,
        "governor over budget now");

  // Contention observatory: per-site lock counters + wait quantiles, and
  // the worker-state census/timelines.
  if (!s.lock_sites.empty()) {
    os << "# HELP tj_lock_acquisitions profiled lock acquisitions by site\n"
       << "# TYPE tj_lock_acquisitions counter\n";
    for (const auto& site : s.lock_sites) {
      os << "tj_lock_acquisitions{site=\"" << site.name
         << "\",outcome=\"uncontended\"} " << site.uncontended << "\n"
         << "tj_lock_acquisitions{site=\"" << site.name
         << "\",outcome=\"contended\"} " << site.contended << "\n";
    }
    os << "# TYPE tj_lock_wait_ns summary\n";
    for (const auto& site : s.lock_sites) {
      os << "tj_lock_wait_ns{site=\"" << site.name << "\",quantile=\"0.5\"} "
         << site.wait.p50_ns << "\n"
         << "tj_lock_wait_ns{site=\"" << site.name << "\",quantile=\"0.99\"} "
         << site.wait.p99_ns << "\n"
         << "tj_lock_wait_ns_sum{site=\"" << site.name << "\"} "
         << site.wait.sum_ns << "\n"
         << "tj_lock_wait_ns_count{site=\"" << site.name << "\"} "
         << site.wait.count << "\n";
    }
    os << "# HELP tj_lock_long_holds contended holds at or above 100us\n"
       << "# TYPE tj_lock_long_holds counter\n";
    for (const auto& site : s.lock_sites) {
      os << "tj_lock_long_holds{site=\"" << site.name << "\"} "
         << site.hold.count << "\n";
    }
  }
  gauge("workers", s.workers.workers, "scheduler worker threads");
  os << "# HELP tj_worker_state_now workers currently in each state\n"
     << "# TYPE tj_worker_state_now gauge\n";
  for (std::size_t i = 0; i < kWorkerStateCount; ++i) {
    os << "tj_worker_state_now{state=\""
       << to_string(static_cast<WorkerState>(i)) << "\"} "
       << s.workers.current[i] << "\n";
  }
  os << "# HELP tj_worker_state_ns cumulative ns per worker state\n"
     << "# TYPE tj_worker_state_ns counter\n";
  for (std::size_t i = 0; i < kWorkerStateCount; ++i) {
    os << "tj_worker_state_ns{state=\""
       << to_string(static_cast<WorkerState>(i)) << "\"} "
       << s.workers.state_ns[i] << "\n";
  }
  os << "# HELP tj_worker_effective_parallelism mean workers running\n"
     << "# TYPE tj_worker_effective_parallelism gauge\n"
     << "tj_worker_effective_parallelism "
     << s.workers.effective_parallelism() << "\n";

  os << "# HELP tj_tenant_requests per-tenant admission ledger\n"
     << "# TYPE tj_tenant_requests counter\n";
  for (const auto& t : s.tenants) {
    os << "tj_tenant_requests{tenant=\"" << t.name
       << "\",outcome=\"admitted\"} " << t.admitted << "\n"
       << "tj_tenant_requests{tenant=\"" << t.name << "\",outcome=\"shed\"} "
       << t.shed << "\n";
  }

  const auto hist = [&os](const char* name, const LatencyHistogram& h) {
    const LatencyHistogram::Summary sum = h.summary();
    os << "# TYPE tj_" << name << " summary\n";
    os << "tj_" << name << "{quantile=\"0.5\"} " << sum.p50_ns << "\n"
       << "tj_" << name << "{quantile=\"0.9\"} " << sum.p90_ns << "\n"
       << "tj_" << name << "{quantile=\"0.99\"} " << sum.p99_ns << "\n"
       << "tj_" << name << "{quantile=\"0.999\"} " << sum.p999_ns << "\n"
       << "tj_" << name << "_sum " << sum.sum_ns << "\n"
       << "tj_" << name << "_count " << sum.count << "\n";
  };
  m.for_each_histogram(hist);
  for (const ExtraHist& e : extra_) hist(e.name.c_str(), *e.hist);
  return os.str();
}

}  // namespace tj::obs
