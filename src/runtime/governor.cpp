#include "runtime/governor.hpp"

#include <sstream>
#include <utility>

#include "kj/kj_vc.hpp"

namespace tj::runtime {

std::string ResourceGovernor::Transition::to_string() const {
  std::ostringstream os;
  os << core::to_string(from);
  if (to_level != from_level) os << "->" << core::to_string(to);
  os << '@' << t_ns / 1000000 << "ms(" << reason << ')';
  return os.str();
}

ResourceGovernor::ResourceGovernor(GovernorConfig cfg,
                                   core::LadderVerifier* ladder,
                                   const wfg::WaitsForGraph* wfg,
                                   std::function<std::size_t()> live_tasks,
                                   obs::FlightRecorder* rec)
    : cfg_(cfg),
      ladder_(ladder),
      wfg_(wfg),
      live_tasks_(std::move(live_tasks)),
      rec_(rec),
      epoch_(std::chrono::steady_clock::now()) {}

ResourceGovernor::Snapshot ResourceGovernor::snapshot() const {
  Snapshot s;
  if (ladder_ != nullptr) {
    s.verifier_bytes = ladder_->state_bytes();
    s.verifier_nodes = ladder_->state_nodes();
  }
  if (wfg_ != nullptr) s.wfg_edges = wfg_->edge_count();
  if (live_tasks_) s.live_tasks = live_tasks_();
  if (rec_ != nullptr) {
    s.policy_check_p99_ns = rec_->metrics().policy_check_ns.summary().p99_ns;
  }
  return s;
}

void ResourceGovernor::poll_now() {
  polls_.fetch_add(1, std::memory_order_relaxed);
  const Snapshot s = snapshot();

  // Mirror the KJ-VC compaction count into the metrics registry (the
  // verifier itself has no obs dependency).
  if (rec_ != nullptr && ladder_ != nullptr) {
    for (std::size_t i = 0; i < ladder_->level_count(); ++i) {
      if (auto* vc =
              dynamic_cast<kj::KjVcVerifier*>(ladder_->level_verifier(i))) {
        const std::uint64_t seen = vc->compactions();
        if (seen > kj_compactions_seen_) {
          rec_->metrics().kj_compactions.fetch_add(
              seen - kj_compactions_seen_, std::memory_order_relaxed);
          kj_compactions_seen_ = seen;
        }
      }
    }
  }

  std::string reason;
  auto over = [&reason](const char* what, auto value, auto budget) {
    if (budget == 0 || value <= static_cast<decltype(value)>(budget)) {
      return false;
    }
    if (!reason.empty()) reason += ',';
    reason += what;
    return true;
  };
  bool tripped = false;
  tripped |= over("bytes", s.verifier_bytes, cfg_.max_verifier_bytes);
  tripped |= over("nodes", s.verifier_nodes, cfg_.max_verifier_nodes);
  tripped |= over("wfg-edges", s.wfg_edges, cfg_.max_wfg_edges);
  tripped |= over("p99", s.policy_check_p99_ns, cfg_.max_policy_check_p99_ns);
  pressure_.store(tripped, std::memory_order_relaxed);

  if (cooldown_left_ > 0) {
    --cooldown_left_;
    return;
  }
  if (!tripped) {
    consecutive_ = 0;  // hysteresis: only an unbroken run of trips acts
    return;
  }
  if (++consecutive_ < cfg_.trip_polls) return;
  consecutive_ = 0;
  cooldown_left_ = cfg_.cooldown_polls;
  act(reason);
}

void ResourceGovernor::act(const std::string& reason) {
  if (ladder_ == nullptr) return;  // nothing to degrade
  const std::size_t from_level = ladder_->level();
  const core::PolicyChoice from = ladder_->level_kind(from_level);

  // Escalation step 1: a KJ-VC level under pressure first gets its epoch GC
  // turned on — reclaiming retired clock components may relieve the budget
  // without giving up precision.
  if (auto* vc = dynamic_cast<kj::KjVcVerifier*>(
          ladder_->level_verifier(from_level))) {
    if (!vc->gc_enabled()) {
      vc->set_gc(true);
      Transition t;
      t.from_level = t.to_level = from_level;
      t.from = t.to = from;
      t.reason = "kj-gc:" + reason;
      record_transition(std::move(t), obs::EventKind::KjGcEnabled);
      return;
    }
  }

  // Escalation step 2: shed precision.
  if (!ladder_->downgrade()) return;  // already on the WFG-only floor
  const std::size_t to_level = ladder_->level();
  Transition t;
  t.from_level = from_level;
  t.to_level = to_level;
  t.from = from;
  t.to = ladder_->level_kind(to_level);
  t.reason = reason;
  record_transition(std::move(t), obs::EventKind::PolicyDowngrade);
}

void ResourceGovernor::record_transition(Transition t, obs::EventKind kind) {
  t.t_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  if (rec_ != nullptr) {
    if (kind == obs::EventKind::PolicyDowngrade) {
      rec_->metrics().policy_downgrades.fetch_add(1,
                                                  std::memory_order_relaxed);
    }
    obs::Event e;
    e.kind = kind;
    e.payload = t.to_level;
    e.policy = static_cast<std::uint8_t>(t.to);
    e.detail = static_cast<std::uint8_t>(t.from);
    rec_->emit(e);
  }
  std::scoped_lock lock(mu_);
  transitions_.push_back(std::move(t));
}

std::vector<ResourceGovernor::Transition> ResourceGovernor::transitions()
    const {
  std::scoped_lock lock(mu_);
  return transitions_;
}

std::string ResourceGovernor::history_string() const {
  std::scoped_lock lock(mu_);
  std::string out;
  for (const Transition& t : transitions_) {
    if (!out.empty()) out += "; ";
    out += t.to_string();
  }
  return out;
}

}  // namespace tj::runtime
