#include "trace/validity.hpp"

#include <unordered_set>

#include "trace/kj_judgment.hpp"
#include "trace/owp_judgment.hpp"
#include "trace/tj_judgment.hpp"

namespace tj::trace {

std::string to_string(PolicyKind k) {
  switch (k) {
    case PolicyKind::Structural:
      return "Structural";
    case PolicyKind::TJ:
      return "TJ";
    case PolicyKind::KJ:
      return "KJ";
    case PolicyKind::OWP:
      return "OWP";
  }
  return "<bad policy>";
}

ValidityResult check_valid(const Trace& t, PolicyKind policy) {
  std::unordered_set<TaskId> tasks;
  bool saw_init = false;
  TjJudgment tj;
  KjJudgment kj;
  OwpJudgment owp;

  auto fail = [&](std::size_t i, std::string reason) {
    return ValidityResult{false, Violation{i, t[i], std::move(reason)}};
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    const Action& a = t[i];
    switch (a.kind) {
      case ActionKind::Init:
        if (saw_init) return fail(i, "valid-init: second init action");
        if (i != 0) return fail(i, "valid-init: init must be first");
        saw_init = true;
        tasks.insert(a.actor);
        break;
      case ActionKind::Fork:
        if (!saw_init) return fail(i, "valid-fork: trace must start with init");
        if (!tasks.contains(a.actor)) {
          return fail(i, "valid-fork: forking task not in A");
        }
        if (tasks.contains(a.target)) {
          return fail(i, "valid-fork: forked task already in A");
        }
        tasks.insert(a.target);
        break;
      case ActionKind::Join:
        if (!saw_init) return fail(i, "valid-join: trace must start with init");
        if (!tasks.contains(a.actor) || !tasks.contains(a.target)) {
          return fail(i, "valid-join: tasks not in A");
        }
        switch (policy) {
          case PolicyKind::Structural:
            break;
          case PolicyKind::TJ:
            if (!tj.less(a.actor, a.target)) {
              return fail(i, "valid-join-R: not t ⊢ a < b (TJ)");
            }
            break;
          case PolicyKind::KJ:
            if (!kj.knows(a.actor, a.target)) {
              return fail(i, "valid-join-R: not t ⊢ a ≺ b (KJ)");
            }
            break;
          case PolicyKind::OWP:
            if (!owp.valid_join(a.actor, a.target)) {
              return fail(i, "valid-join-OWP: b reaches a in H");
            }
            break;
        }
        break;
      case ActionKind::Make:
        if (!saw_init) return fail(i, "valid-make: trace must start with init");
        if (!tasks.contains(a.actor)) {
          return fail(i, "valid-make: making task not in A");
        }
        if (owp.has_promise(a.promise)) {
          return fail(i, "valid-make: promise already in P");
        }
        break;
      case ActionKind::Fulfill:
        if (!tasks.contains(a.actor)) {
          return fail(i, "valid-fulfill: fulfilling task not in A");
        }
        if (!owp.has_promise(a.promise)) {
          return fail(i, "valid-fulfill: promise not in P");
        }
        if (owp.fulfilled(a.promise)) {
          return fail(i, "valid-fulfill: promise already fulfilled");
        }
        if (policy == PolicyKind::OWP &&
            !owp.valid_fulfill(a.actor, a.promise)) {
          return fail(i, "valid-fulfill-OWP: only the owner may fulfill");
        }
        break;
      case ActionKind::Transfer:
        if (!tasks.contains(a.actor) || !tasks.contains(a.target)) {
          return fail(i, "valid-transfer: tasks not in A");
        }
        if (!owp.has_promise(a.promise)) {
          return fail(i, "valid-transfer: promise not in P");
        }
        if (owp.fulfilled(a.promise)) {
          return fail(i, "valid-transfer: promise already fulfilled");
        }
        if (policy == PolicyKind::OWP &&
            !owp.valid_transfer(a.actor, a.target, a.promise)) {
          return fail(i, "valid-transfer-OWP: only the owner may transfer");
        }
        break;
      case ActionKind::Await:
        if (!tasks.contains(a.actor)) {
          return fail(i, "valid-await: awaiting task not in A");
        }
        if (!owp.has_promise(a.promise)) {
          return fail(i, "valid-await: promise not in P");
        }
        if (policy == PolicyKind::OWP && !owp.valid_await(a.actor, a.promise)) {
          return fail(i, "valid-await-OWP: owner(p) reaches a in H");
        }
        break;
    }
    // Each judgment tracks the trace-so-far only where it is queried: tj and
    // kj under their own policy, owp always (the structural promise checks
    // read its has_promise/fulfilled).
    if (policy == PolicyKind::TJ) tj.push(a);
    if (policy == PolicyKind::KJ) kj.push(a);
    owp.push(a);
  }
  if (!saw_init && !t.empty()) {
    return fail(0, "valid-init: trace must start with init");
  }
  return {};
}

}  // namespace tj::trace
