#include "runtime/watchdog.hpp"

#include <cstdio>
#include <sstream>
#include <utility>

#include "core/guarded.hpp"
#include "core/policy_ids.hpp"
#include "obs/recorder.hpp"
#include "runtime/governor.hpp"
#include "runtime/recovery.hpp"

namespace tj::runtime {

namespace {
/// Events quoted per stalled wait in a report.
constexpr std::size_t kRecentEvents = 8;
}  // namespace

std::string StallReport::to_string() const {
  std::ostringstream os;
  os << "[tj watchdog] " << stalled.size() << " stalled wait(s)";
  if (!policy_name.empty()) {
    os << " under policy " << policy_name << " (id "
       << static_cast<unsigned>(policy_id) << ")";
  }
  if (degradation_level > 0) {
    os << " [degraded: level " << degradation_level << ", "
       << degradation_history << "]";
  }
  if (async_mode) {
    os << " [async detector: "
       << (detector_running ? "running" : "DEAD")
       << (detector_failed_over ? ", FAILED OVER" : "")
       << ", lag=" << detector_lag_events
       << " events, lost=" << detector_events_lost
       << ", recovered=" << cycles_recovered << "]";
  }
  os << ":\n";
  for (const BlockedJoin& b : stalled) {
    os << "  task " << b.waiter << " blocked "
       << (b.on_promise ? "awaiting promise " : "joining task ") << b.target
       << " for " << b.blocked_for.count() << "ms (gate verdict: " << b.verdict
       << ")\n";
    for (const std::string& ev : b.recent_events) {
      os << "    " << ev << '\n';
    }
  }
  if (cycles.empty()) {
    os << "  waits-for graph: acyclic (stall is external to the runtime's "
          "join structure)\n";
  } else {
    for (const auto& cycle : cycles) {
      os << "  waits-for cycle:";
      for (const std::uint64_t n : cycle) os << ' ' << n;
      os << '\n';
    }
  }
  for (const std::string& r : recovery_history) {
    os << "  recovered: " << r << '\n';
  }
  return os.str();
}

JoinWatchdog::JoinWatchdog(WatchdogConfig cfg, const core::JoinGate& gate,
                           obs::FlightRecorder* rec,
                           const ResourceGovernor* governor,
                           const RecoverySupervisor* recovery)
    : cfg_(std::move(cfg)),
      gate_(gate),
      rec_(rec),
      governor_(governor),
      recovery_(recovery) {}

void JoinWatchdog::blocked(std::uint64_t waiter, std::uint64_t target,
                           bool on_promise, const char* verdict) {
  std::scoped_lock lock(mu_);
  blocked_[waiter] =
      Entry{target, on_promise, verdict, std::chrono::steady_clock::now()};
}

void JoinWatchdog::unblocked(std::uint64_t waiter) {
  std::scoped_lock lock(mu_);
  blocked_.erase(waiter);
}

std::uint64_t JoinWatchdog::stalls_reported() const {
  std::scoped_lock lock(mu_);
  return stalls_reported_;
}

std::vector<JoinWatchdog::BlockedWait> JoinWatchdog::blocked_now() const {
  const auto now = std::chrono::steady_clock::now();
  std::scoped_lock lock(mu_);
  std::vector<BlockedWait> out;
  out.reserve(blocked_.size());
  for (const auto& [waiter, e] : blocked_) {
    BlockedWait w;
    w.waiter = waiter;
    w.target = e.target;
    w.on_promise = e.on_promise;
    w.verdict = e.verdict;
    w.blocked_for =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - e.since);
    out.push_back(w);
  }
  return out;
}

void JoinWatchdog::poll_now() {
  const auto stall = std::chrono::milliseconds(cfg_.stall_ms);
  StallReport report;
  {
    std::scoped_lock lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    for (auto& [waiter, e] : blocked_) {
      const auto blocked_for =
          std::chrono::duration_cast<std::chrono::milliseconds>(now - e.since);
      if (blocked_for < stall || e.reported) continue;
      e.reported = true;
      report.stalled.push_back(
          {waiter, e.target, e.on_promise, e.verdict, blocked_for, {}});
    }
    if (report.stalled.empty()) return;
    ++stalls_reported_;
  }
  // The scan and the callback run unlocked: the gate has its own
  // synchronisation, and a slow callback must not delay join bookkeeping.
  // active_kind(), not kind(): when a governor downgraded the ladder, the
  // report must name the policy whose verdicts admitted these waits.
  report.policy_name = std::string(core::to_string(gate_.active_kind()));
  report.policy_id = static_cast<std::uint8_t>(gate_.active_kind());
  if (governor_ != nullptr) {
    report.degradation_level = governor_->level();
    report.degradation_history = governor_->history_string();
  }
  if (recovery_ != nullptr) {
    const RecoveryStatus rs = recovery_->status();
    report.async_mode = true;
    report.detector_running = rs.detector.running;
    report.detector_failed_over = rs.detector.failed_over;
    report.detector_lag_events = rs.detector.lag_events;
    report.detector_events_lost = rs.detector.events_lost;
    report.cycles_recovered = gate_.stats().cycles_recovered;
    for (const RecoveryStatus::Incident& inc : rs.recent) {
      std::ostringstream line;
      line << "victim " << inc.victim << " ("
           << (inc.on_promise ? "awaiting promise " : "joining ")
           << inc.waited_on << ", cycle len " << inc.cycle_len;
      if (inc.tenant != 0) {
        line << ", tenant " << static_cast<unsigned>(inc.tenant) - 1;
      }
      line << ")";
      report.recovery_history.push_back(line.str());
    }
  }
  report.cycles = gate_.graph().find_all_cycles();
  cycles_found_.fetch_add(report.cycles.size(), std::memory_order_relaxed);
  if (rec_ != nullptr) {
    // Quote the stalled parties' recent history: what the waiter (and,
    // for task joins, the target) last did before going quiet.
    for (StallReport::BlockedJoin& b : report.stalled) {
      for (const obs::Event& e : rec_->recent(b.waiter, kRecentEvents)) {
        b.recent_events.push_back(obs::to_string(e));
      }
      if (!b.on_promise) {
        for (const obs::Event& e : rec_->recent(b.target, kRecentEvents)) {
          b.recent_events.push_back(obs::to_string(e));
        }
      }
    }
    rec_->metrics().stall_reports.fetch_add(1, std::memory_order_relaxed);
    obs::Event e;
    e.kind = obs::EventKind::WatchdogStall;
    e.actor = report.stalled.front().waiter;
    e.payload = report.stalled.size();
    rec_->emit(e);
  }
  if (cfg_.on_stall) {
    cfg_.on_stall(report);
  } else {
    const std::string text = report.to_string();
    std::fwrite(text.data(), 1, text.size(), stderr);
  }
}

}  // namespace tj::runtime
