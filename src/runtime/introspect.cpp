#include "runtime/introspect.hpp"

#include <csignal>
#include <iostream>
#include <sstream>
#include <utility>

#include "core/ladder.hpp"
#include "obs/recorder.hpp"
#include "obs/witness.hpp"
#include "runtime/runtime.hpp"

namespace tj::runtime {

namespace {

/// How many recent events each blocked wait quotes in a snapshot.
constexpr std::size_t kRecentEvents = 8;

const char* edge_kind_name(wfg::WaitsForGraph::EdgeKind k) {
  switch (k) {
    case wfg::WaitsForGraph::EdgeKind::Approved:
      return "approved";
    case wfg::WaitsForGraph::EdgeKind::Probation:
      return "probation";
    default:
      return "owner";
  }
}

}  // namespace

RuntimeSnapshot snapshot(const Runtime& rt) {
  RuntimeSnapshot s;
  s.configured = rt.config().policy;
  s.active = rt.active_policy();
  s.tasks_created = rt.tasks_created();
  s.promises_made = rt.promises_made();
  s.gate = rt.gate_stats();
  s.verifier_bytes = rt.policy_bytes();
  s.owp_bytes = rt.owp_bytes();

  const core::JoinGate& gate = rt.gate();
  s.wfg_edges = gate.graph().edges();
  s.witnesses = gate.witnesses();
  s.witnesses_dropped = gate.witnesses_dropped();

  // The verifier is a ladder whenever a governor could act on it.
  if (const auto* ladder = dynamic_cast<const core::LadderVerifier*>(
          const_cast<Runtime&>(rt).verifier())) {
    s.ladder_attached = true;
    s.ladder_level = ladder->level();
    s.ladder_levels = ladder->level_count();
  }

  if (const ResourceGovernor* gov = rt.governor()) {
    s.governor_attached = true;
    s.governor = gov->snapshot();
    s.governor_pressure = gov->under_pressure();
    s.degradation_history = gov->history_string();
    s.live_tasks = s.governor.live_tasks;
  }

  if (const AdmissionController* adm = rt.admission()) {
    s.admission_attached = true;
    s.tenants = adm->snapshot();
    s.requests_shed_total = adm->total_shed();
  }

  obs::FlightRecorder* rec = rt.recorder();
  if (rec != nullptr) {
    s.recorder_attached = true;
    s.obs_events = rec->events_recorded();
    s.obs_dropped = rec->events_dropped();
    s.counters = rec->metrics().counters();
  }

  s.contention_enabled = obs::contention_profiling_enabled();
  s.lock_sites = obs::ContentionRegistry::instance().snapshot();
  s.workers = rt.scheduler().worker_states().totals();

  if (const RecoverySupervisor* rs = rt.recovery()) {
    s.recovery_attached = true;
    s.recovery = rs->status();
  }

  if (const JoinWatchdog* wd = rt.watchdog()) {
    s.watchdog_attached = true;
    s.watchdog_stalls = wd->stalls_reported();
    s.watchdog_cycles = wd->cycles_found();
    for (const JoinWatchdog::BlockedWait& b : wd->blocked_now()) {
      RuntimeSnapshot::BlockedWait out;
      out.waiter = b.waiter;
      out.target = b.target;
      out.on_promise = b.on_promise;
      out.verdict = b.verdict;
      out.blocked_ms = static_cast<std::uint64_t>(b.blocked_for.count());
      if (rec != nullptr) {
        for (const obs::Event& e : rec->recent(b.waiter, kRecentEvents)) {
          out.recent_events.push_back(obs::to_string(e));
        }
      }
      s.blocked.push_back(std::move(out));
    }
  }
  return s;
}

std::string RuntimeSnapshot::to_string() const {
  std::ostringstream os;
  os << "=== runtime snapshot ===\n";
  os << "policy: configured=" << core::to_string(configured)
     << " active=" << core::to_string(active);
  if (ladder_attached) {
    os << " ladder=" << ladder_level << "/" << (ladder_levels - 1);
  }
  os << "\n";
  if (!degradation_history.empty()) {
    os << "degradations: " << degradation_history << "\n";
  }
  os << "tasks=" << tasks_created << " promises=" << promises_made
     << " live=" << live_tasks << " verifier_bytes=" << verifier_bytes
     << " owp_bytes=" << owp_bytes << "\n";
  os << "gate: " << core::to_string(gate) << "\n";
  if (governor_attached) {
    os << "governor: pressure=" << (governor_pressure ? "YES" : "no")
       << " verifier_bytes=" << governor.verifier_bytes
       << " nodes=" << governor.verifier_nodes
       << " wfg_edges=" << governor.wfg_edges
       << " p99_check=" << governor.policy_check_p99_ns << "ns\n";
  }
  if (admission_attached) {
    os << "admission: " << tenants.size() << " tenant(s), "
       << requests_shed_total << " shed total\n";
    for (const auto& t : tenants) {
      os << "  " << t.name << ": in_flight=" << t.in_flight
         << " admitted=" << t.admitted << " shed=" << t.shed
         << " released=" << t.released
         << " verdict=" << tj::runtime::to_string(t.current_verdict);
      if (t.in_cooldown) os << " COOLDOWN";
      if (t.shed != 0) {
        os << " last_shed=" << tj::runtime::to_string(t.last_shed_cause);
      }
      os << "\n";
    }
  }
  if (recorder_attached) {
    os << "recorder: events=" << obs_events << " dropped=" << obs_dropped
       << "\n"
       << "counters: " << obs::to_string(counters) << "\n";
  }
  if (contention_enabled || !lock_sites.empty()) {
    os << "locks: " << lock_sites.size() << " site(s)"
       << (contention_enabled ? "" : " (profiling off)") << "\n";
    for (const obs::SiteSnapshot& site : lock_sites) {
      const double share =
          site.acquisitions == 0
              ? 0.0
              : static_cast<double>(site.contended) /
                    static_cast<double>(site.acquisitions);
      os << "  " << site.name << ": acquisitions=" << site.acquisitions
         << " contended=" << site.contended << " share=" << share
         << " wait_p99=" << site.wait.p99_ns << "ns"
         << " wait_max=" << site.wait.max_ns << "ns"
         << " long_holds=" << site.hold.count << "\n";
    }
    os << "workers: " << workers.workers
       << " effective_parallelism=" << workers.effective_parallelism() << "\n";
    for (std::size_t i = 0; i < obs::kWorkerStateCount; ++i) {
      const std::uint64_t total = workers.total_ns();
      const double share =
          total == 0 ? 0.0
                     : static_cast<double>(workers.state_ns[i]) /
                           static_cast<double>(total);
      os << "  " << obs::to_string(static_cast<obs::WorkerState>(i))
         << ": now=" << workers.current[i] << " share=" << share << "\n";
    }
  }
  if (recovery_attached) {
    os << "recovery: detector="
       << (recovery.detector.running ? "running" : "DEAD")
       << (recovery.detector.failed_over ? " FAILED-OVER" : "")
       << " lag=" << recovery.detector.lag_events
       << " lost=" << recovery.detector.events_lost
       << " applied=" << recovery.detector.events_applied
       << " scans=" << recovery.detector.authoritative_scans
       << " confirmed=" << recovery.detector.cycles_confirmed
       << " respawns=" << recovery.detector.respawns
       << " recovered=" << gate.cycles_recovered
       << " breaks=" << recovery.breaks_posted
       << " registered=" << recovery.waits_registered << "\n";
    for (const RecoveryStatus::Incident& inc : recovery.recent) {
      os << "  recovered: victim " << inc.victim << " waited on "
         << (inc.on_promise ? "p" : "") << inc.waited_on << " (cycle len "
         << inc.cycle_len << ")\n";
    }
  }
  os << "wfg: " << wfg_edges.size() << " edge(s)\n";
  for (const auto& e : wfg_edges) {
    os << "  " << e.from << " -> ";
    if (wfg::is_promise_node(e.to)) {
      os << "p" << wfg::promise_uid_of(e.to);
    } else {
      os << e.to;
    }
    os << " [" << edge_kind_name(e.kind) << "]\n";
  }
  os << "witnesses: " << witnesses.size() << " recent, " << witnesses_dropped
     << " dropped\n";
  for (const core::Witness& w : witnesses) {
    std::istringstream lines(obs::to_text(w));
    for (std::string line; std::getline(lines, line);) {
      os << "  " << line << "\n";
    }
  }
  if (watchdog_attached) {
    os << "blocked: " << blocked.size() << " wait(s)\n";
    for (const BlockedWait& b : blocked) {
      os << "  " << b.waiter << " on " << (b.on_promise ? "p" : "")
         << b.target << " for " << b.blocked_ms << "ms (" << b.verdict
         << ")\n";
      for (const std::string& ev : b.recent_events) {
        os << "    " << ev << "\n";
      }
    }
  } else {
    os << "blocked: unavailable (watchdog disabled)\n";
  }
  os << "=== end snapshot ===\n";
  return os.str();
}

// ---- hooks ----

namespace {
/// The most recently constructed live hook — the signal target. A plain
/// lock-free atomic so the signal handler's load is async-signal-safe.
std::atomic<IntrospectionHook*> g_hook{nullptr};

extern "C" void introspect_signal_handler(int) {
  IntrospectionHook::request_current();
}
}  // namespace

IntrospectionHook::IntrospectionHook(const Runtime& rt, Sink sink)
    : rt_(rt), sink_(std::move(sink)) {
  g_hook.store(this, std::memory_order_release);
  timer_ = rt_.housekeeper().every(std::chrono::milliseconds(50),
                                   [this] { poll(); });
}

IntrospectionHook::~IntrospectionHook() {
  IntrospectionHook* self = this;
  g_hook.compare_exchange_strong(self, nullptr, std::memory_order_acq_rel);
  rt_.housekeeper().cancel(timer_);
}

bool IntrospectionHook::request_current() {
  IntrospectionHook* h = g_hook.load(std::memory_order_acquire);
  if (h == nullptr) return false;
  h->request();
  return true;
}

bool IntrospectionHook::install_signal_handler() {
#ifdef SIGUSR1
  std::signal(SIGUSR1, introspect_signal_handler);
  return true;
#else
  return false;
#endif
}

void IntrospectionHook::poll() {
  if (!want_.exchange(false, std::memory_order_relaxed)) return;
  const RuntimeSnapshot s = snapshot(rt_);
  if (sink_) {
    sink_(s);
  } else {
    std::cerr << s.to_string();
  }
}

}  // namespace tj::runtime
