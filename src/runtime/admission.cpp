#include "runtime/admission.hpp"

#include <utility>

#include "core/guarded.hpp"
#include "obs/recorder.hpp"

namespace tj::runtime {

AdmissionController::AdmissionController(
    std::vector<TenantBudget> tenants, core::JoinGate& gate,
    std::function<std::size_t()> live_tasks,
    std::function<std::size_t()> verifier_bytes, obs::FlightRecorder* rec)
    : budgets_(std::move(tenants)),
      gate_(gate),
      live_tasks_(std::move(live_tasks)),
      verifier_bytes_(std::move(verifier_bytes)),
      rec_(rec),
      states_(budgets_.size()) {
  if (budgets_.empty()) {
    throw UsageError("admission: at least one tenant budget is required");
  }
}

std::size_t AdmissionController::tenant_index(std::string_view name) const {
  for (std::size_t i = 0; i < budgets_.size(); ++i) {
    if (budgets_[i].name == name) return i;
  }
  throw UsageError("admission: unknown tenant \"" + std::string(name) + "\"");
}

const TenantBudget& AdmissionController::budget(std::size_t tenant) const {
  if (tenant >= budgets_.size()) {
    throw UsageError("admission: tenant index out of range");
  }
  return budgets_[tenant];
}

AdmissionCause AdmissionController::evaluate_locked(
    std::size_t tenant, std::chrono::steady_clock::time_point now) const {
  const TenantBudget& b = budgets_[tenant];
  const State& s = states_[tenant];
  if (now < s.cooldown_until) return AdmissionCause::Cooldown;
  if (b.max_in_flight != 0 && s.in_flight >= b.max_in_flight) {
    return AdmissionCause::InFlightBudget;
  }
  if (b.max_live_tasks != 0 && live_tasks_() >= b.max_live_tasks) {
    return AdmissionCause::LiveTaskBudget;
  }
  if (b.max_verifier_bytes != 0 &&
      verifier_bytes_() >= b.max_verifier_bytes) {
    return AdmissionCause::VerifierBytesBudget;
  }
  return AdmissionCause::None;
}

AdmissionController::Verdict AdmissionController::try_admit(
    std::size_t tenant) {
  if (tenant >= budgets_.size()) {
    throw UsageError("admission: tenant index out of range");
  }
  const auto now = std::chrono::steady_clock::now();
  Verdict v;
  std::size_t in_flight_now = 0;
  {
    std::scoped_lock lock(mu_);
    State& s = states_[tenant];
    v.cause = evaluate_locked(tenant, now);
    v.admitted = v.cause == AdmissionCause::None;
    if (v.admitted) {
      ++s.in_flight;
      ++s.admitted;
    } else {
      ++s.shed;
      s.last_shed_cause = v.cause;
      // A budget shed arms the cooldown; a cooldown shed does not extend
      // it, so a retry storm drains the moment the window expires.
      if (v.cause != AdmissionCause::Cooldown &&
          budgets_[tenant].shed_cooldown_ms != 0) {
        s.cooldown_until =
            now + std::chrono::milliseconds(budgets_[tenant].shed_cooldown_ms);
      }
    }
    in_flight_now = s.in_flight;
  }
  // Fold the verdict into the gate's stats (the admission seam): the exact
  // invariant requests_checked == requests_admitted + requests_shed lives
  // with the join/await reconciliation counters.
  gate_.note_admission(v.admitted);
  if (rec_ != nullptr && !v.admitted) {
    obs::Event e;
    e.kind = obs::EventKind::AdmissionShed;
    e.actor = tenant;
    e.detail = static_cast<std::uint8_t>(v.cause);
    e.payload = in_flight_now;
    rec_->emit(e);
  }
  return v;
}

void AdmissionController::admit_or_throw(std::size_t tenant) {
  const Verdict v = try_admit(tenant);
  if (!v.admitted) {
    throw AdmissionRejected(
        "request shed by admission control: tenant \"" +
            budgets_[tenant].name + "\" over budget (" +
            std::string(to_string(v.cause)) + ")",
        budgets_[tenant].name, v.cause);
  }
}

void AdmissionController::release(std::size_t tenant) {
  if (tenant >= budgets_.size()) {
    throw UsageError("admission: tenant index out of range");
  }
  std::scoped_lock lock(mu_);
  State& s = states_[tenant];
  if (s.in_flight == 0) {
    throw UsageError("admission: release without a matching admit for \"" +
                     budgets_[tenant].name + "\"");
  }
  --s.in_flight;
  ++s.released;
}

std::vector<AdmissionController::TenantSnapshot>
AdmissionController::snapshot() const {
  const auto now = std::chrono::steady_clock::now();
  std::vector<TenantSnapshot> out;
  out.reserve(budgets_.size());
  std::scoped_lock lock(mu_);
  for (std::size_t i = 0; i < budgets_.size(); ++i) {
    const State& s = states_[i];
    TenantSnapshot t;
    t.name = budgets_[i].name;
    t.in_flight = s.in_flight;
    t.admitted = s.admitted;
    t.shed = s.shed;
    t.released = s.released;
    t.last_shed_cause = s.last_shed_cause;
    t.in_cooldown = now < s.cooldown_until;
    t.current_verdict = evaluate_locked(i, now);
    out.push_back(std::move(t));
  }
  return out;
}

std::uint64_t AdmissionController::total_shed() const {
  std::scoped_lock lock(mu_);
  std::uint64_t total = 0;
  for (const State& s : states_) total += s.shed;
  return total;
}

}  // namespace tj::runtime
