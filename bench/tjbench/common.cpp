#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace tjbench {

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const auto n = static_cast<double>(v.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

LockMap lock_snapshot() {
  LockMap out;
  for (tj::obs::SiteSnapshot& site :
       tj::obs::ContentionRegistry::instance().snapshot()) {
    out.emplace(site.name, std::move(site));
  }
  return out;
}

LayerSnap snap(const tj::runtime::Runtime& rt) {
  LayerSnap s;
  s.gate = rt.gate_stats();
  s.executed = rt.scheduler().tasks_executed();
  s.inlined = rt.scheduler().tasks_inlined();
  s.threads = rt.scheduler().thread_count();
  s.workers = rt.scheduler().worker_states().totals();
  if (const tj::obs::FlightRecorder* rec = rt.recorder()) {
    s.events = rec->events_recorded();
    s.dropped = rec->events_dropped();
  }
  return s;
}

void LayerDelta::add(const LayerSnap& before, const LayerSnap& after) {
  cycle_checks += after.gate.cycle_checks - before.gate.cycle_checks;
  rejections += (after.gate.policy_rejections + after.gate.owp_rejections) -
                (before.gate.policy_rejections + before.gate.owp_rejections);
  executed += after.executed - before.executed;
  inlined += after.inlined - before.inlined;
  threads_added += after.threads - before.threads;
  for (std::size_t i = 0; i < tj::obs::kWorkerStateCount; ++i) {
    state_ns[i] += after.workers.state_ns[i] - before.workers.state_ns[i];
  }
  events += after.events - before.events;
  dropped += after.dropped - before.dropped;
}

void LayerDelta::add_locks(const LockMap& before, const LockMap& after) {
  for (const auto& [name, a] : after) {
    const auto it = before.find(name);
    const bool had = it != before.end();
    auto& [acq, con] = lock_acq_contended[name];
    acq += a.acquisitions - (had ? it->second.acquisitions : 0);
    con += a.contended - (had ? it->second.contended : 0);
    lock_wait_ns[name] += a.wait.sum_ns - (had ? it->second.wait.sum_ns : 0);
  }
}

void LayerDelta::note_peaks(const tj::runtime::Runtime& rt) {
  verifier_peak_bytes = std::max(verifier_peak_bytes, rt.policy_peak_bytes());
  owp_peak_bytes = std::max(owp_peak_bytes, rt.owp_peak_bytes());
}

bool gate_reconciles(const tj::core::GateStats& g) {
  return g.policy_rejections + g.owp_rejections ==
             g.false_positives + g.owp_false_positives +
                 (g.deadlocks_averted - g.deadlocks_averted_approved) &&
         g.requests_checked == g.requests_admitted + g.requests_shed;
}

namespace {
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
}  // namespace

void fill_layer_counters(RunResult& r, const LayerDelta& d, double ops,
                         double window_s) {
  using tj::obs::WorkerState;
  auto& c = r.counters;
  const auto state = [&d](WorkerState s) {
    return static_cast<double>(d.state_ns[static_cast<std::size_t>(s)]);
  };
  double total_ns = 0;
  for (std::uint64_t ns : d.state_ns) total_ns += static_cast<double>(ns);
  const double window_ns = window_s * 1e9;

  c["sched.inline_share"] = ratio(static_cast<double>(d.inlined),
                                  static_cast<double>(d.executed));
  c["sched.eff_par"] = ratio(state(WorkerState::Running), window_ns);
  c["sched.blocked_join_share"] =
      ratio(state(WorkerState::BlockedJoin), total_ns);
  c["sched.idle_share"] = ratio(state(WorkerState::Idle), total_ns);
  c["sched.threads_added"] = static_cast<double>(d.threads_added);
  for (const char* site :
       {"sched.queue", "wfg.graph", "gate.await", "recorder.registry"}) {
    double acq = 0, con = 0, wait = 0;
    if (const auto it = d.lock_acq_contended.find(site);
        it != d.lock_acq_contended.end()) {
      acq = static_cast<double>(it->second.first);
      con = static_cast<double>(it->second.second);
    }
    if (const auto it = d.lock_wait_ns.find(site); it != d.lock_wait_ns.end()) {
      wait = static_cast<double>(it->second);
    }
    const std::string key = std::string("lock.") + site;
    c[key + ".contended_share"] = ratio(con, acq);
    c[key + ".wait_share"] = ratio(wait, kWorkers * window_ns);
  }
  c["gate.cycle_checks_per_op"] =
      ratio(static_cast<double>(d.cycle_checks), ops);
  c["gate.rejections_per_op"] = ratio(static_cast<double>(d.rejections), ops);
  c["verifier.peak_kb"] = static_cast<double>(d.verifier_peak_bytes) / 1024.0;
  c["owp.peak_kb"] = static_cast<double>(d.owp_peak_bytes) / 1024.0;
  c["recorder.events_per_op"] = ratio(static_cast<double>(d.events), ops);
  c["recorder.dropped"] = static_cast<double>(d.dropped);
  // Layers a workload does not run read 0; the workload overwrites these.
  c["detector.failed_over"] = 0;
  c["adm.shed_share"] = 0;
  c["adm.overload_shed_share"] = 0;
  c["governor.level"] = 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace tjbench
