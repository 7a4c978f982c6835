#include "obs/contention.hpp"

#include <sstream>

namespace tj::obs {

namespace {
std::atomic<int> g_profiling_refs{0};
}  // namespace

bool contention_profiling_enabled() {
  return g_profiling_refs.load(std::memory_order_relaxed) > 0;
}

void contention_profiling_retain() {
  g_profiling_refs.fetch_add(1, std::memory_order_relaxed);
}

void contention_profiling_release() {
  g_profiling_refs.fetch_sub(1, std::memory_order_relaxed);
}

std::uint64_t contention_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- registry --------------------------------------------------------------

ContentionRegistry& ContentionRegistry::instance() {
  // Leaked singleton: lock sites may record during static destruction
  // (runtime members unwind in arbitrary order at process exit).
  static ContentionRegistry* r = new ContentionRegistry();
  return *r;
}

SiteStats* ContentionRegistry::intern(const char* name) {
  std::scoped_lock lock(mu_);
  for (SiteStats* s : sites_) {
    if (s->name == name) return s;
  }
  auto* s = new SiteStats();
  s->name = name;
  sites_.push_back(s);
  return s;
}

SiteSnapshot snapshot_site(const SiteStats& s) {
  SiteSnapshot out;
  out.name = s.name;
  // Read order preserves wait.count <= contended <= acquisitions: the
  // wait summary first, then contended (writers bump contended before
  // recording the wait), then uncontended.
  out.wait = s.wait_ns.summary();
  out.hold = s.hold_ns.summary();
  out.contended = s.contended.load(std::memory_order_relaxed);
  out.uncontended = s.uncontended.load(std::memory_order_relaxed);
  out.acquisitions = out.uncontended + out.contended;
  return out;
}

std::vector<SiteSnapshot> ContentionRegistry::snapshot() const {
  std::vector<SiteStats*> sites;
  {
    std::scoped_lock lock(mu_);
    sites = sites_;
  }
  std::vector<SiteSnapshot> out;
  out.reserve(sites.size());
  for (const SiteStats* s : sites) out.push_back(snapshot_site(*s));
  return out;
}

std::size_t ContentionRegistry::site_count() const {
  std::scoped_lock lock(mu_);
  return sites_.size();
}

std::string ContentionRegistry::to_string() const {
  std::ostringstream os;
  os << "lock contention (" << site_count() << " sites)\n";
  for (const SiteSnapshot& s : snapshot()) {
    os << "  " << s.name << ": acquisitions=" << s.acquisitions
       << " uncontended=" << s.uncontended << " contended=" << s.contended;
    if (s.wait.count != 0) {
      os << " wait{count=" << s.wait.count << " p50=" << s.wait.p50_ns
         << "ns p99=" << s.wait.p99_ns << "ns max=" << s.wait.max_ns
         << "ns sum=" << s.wait.sum_ns << "ns}";
    }
    if (s.hold.count != 0) {
      os << " long-hold{count=" << s.hold.count << " p99=" << s.hold.p99_ns
         << "ns max=" << s.hold.max_ns << "ns}";
    }
    os << "\n";
  }
  return os.str();
}

// ---- worker states ---------------------------------------------------------

const char* to_string(WorkerState s) {
  switch (s) {
    case WorkerState::Idle:
      return "idle";
    case WorkerState::Stealing:
      return "stealing";
    case WorkerState::Running:
      return "running";
    case WorkerState::BlockedJoin:
      return "blocked_join";
    case WorkerState::BlockedLock:
      return "blocked_lock";
  }
  return "?";
}

WorkerSlot*& tls_worker_slot() {
  thread_local WorkerSlot* slot = nullptr;
  return slot;
}

WorkerStateBoard::~WorkerStateBoard() {
  for (WorkerSlot* s : slots_) delete s;
}

WorkerSlot* WorkerStateBoard::register_worker() {
  auto* slot = new WorkerSlot();
  slot->set_state(WorkerState::Idle);
  std::scoped_lock lock(mu_);
  slots_.push_back(slot);
  return slot;
}

WorkerStateBoard::Totals WorkerStateBoard::totals() const {
  std::vector<WorkerSlot*> slots;
  {
    std::scoped_lock lock(mu_);
    slots = slots_;
  }
  Totals t;
  t.workers = slots.size();
  const std::uint64_t now = contention_now_ns();
  for (const WorkerSlot* s : slots) {
    const auto cur = static_cast<std::size_t>(
        s->state.load(std::memory_order_relaxed));
    ++t.current[cur < kWorkerStateCount ? cur : 0];
    for (std::size_t i = 0; i < kWorkerStateCount; ++i) {
      t.state_ns[i] += s->state_ns[i].load(std::memory_order_relaxed);
    }
    // Charge the in-progress interval to the current state, so a profile
    // read mid-run accounts for the whole timed window (one-transition
    // skew when a worker flips concurrently — acceptable for a profile).
    const std::uint64_t last = s->last_ns.load(std::memory_order_relaxed);
    if (last != 0 && now > last && cur < kWorkerStateCount) {
      t.state_ns[cur] += now - last;
    }
    t.transitions += s->transitions.load(std::memory_order_relaxed);
  }
  return t;
}

std::string WorkerStateBoard::to_string() const {
  const Totals t = totals();
  std::ostringstream os;
  os << "workers=" << t.workers << " transitions=" << t.transitions
     << " effective_parallelism=" << t.effective_parallelism() << "\n";
  const std::uint64_t total = t.total_ns();
  for (std::size_t i = 0; i < kWorkerStateCount; ++i) {
    const double share =
        total == 0 ? 0.0
                   : static_cast<double>(t.state_ns[i]) /
                         static_cast<double>(total);
    os << "  " << obs::to_string(static_cast<WorkerState>(i)) << ": now="
       << t.current[i] << " ns=" << t.state_ns[i] << " share=" << share
       << "\n";
  }
  return os.str();
}

}  // namespace tj::obs
