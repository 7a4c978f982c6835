// Differential fuzzer: generates random traces and cross-checks every online
// verifier against the reference judgments, the preorder decision procedure,
// and the metatheory (total order, deadlock-freedom, subsumption). Promise
// traces additionally cross-check the online OwpVerifier against the offline
// ownership judgment, action by action. On a discrepancy it MINIMIZES the
// witness and prints it in parseable notation.
//
//   fuzz_policies [--iterations=N] [--tasks=N] [--joins=N] [--promises=N]
//                 [--ops=N] [--seed=S] [--record=DIR]
//                 [--fault-seed=S [--budget-chaos]]
//
// Runs forever-ish by default budget (10k traces); exit 0 = no discrepancy.
// With --record=DIR, any discrepancy is also dumped to DIR as parseable
// trace files (full + minimized witness) replayable through trace_check.
//
// Chaos mode: --fault-seed=S switches from trace fuzzing to driving the
// *live runtime* under the deterministic fault-injection layer
// (runtime/fault_injection.hpp), sweeping FaultPlan::chaos(S), chaos(S+1),
// ... across both scheduler modes (default 64 plans; override with
// --iterations=N). Each run must terminate, resolve every future/promise,
// and reconcile gate statistics — the same invariants the chaos tests
// assert, fuzzable over an unbounded seed range. With --record=DIR the
// runs execute under the flight recorder, and a violating run's event
// stream is bridged back to the offline trace format and dumped to DIR.
//
// Budget chaos: --budget-chaos (with --fault-seed=S) additionally arms the
// resource governor with per-seed randomized — typically hostile — budgets,
// so each run may degrade its policy ladder partway or all the way to
// WFG-only at an arbitrary point in the schedule, concurrently with the
// injected faults. A degraded run may accept strictly more joins (the WFG
// fallback is the precision backstop at every level), so the injected-vs-
// observed rejection equality is relaxed to >=; what must still hold is
// termination, no lost results, exact gate-stat reconciliation, and a
// deadlock-free recorded trace (record_trace is forced on and the run's
// Def. 3.1 trace is checked with trace::contains_deadlock).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/owp_replay.hpp"
#include "obs/replay_bridge.hpp"
#include "obs/witness.hpp"
#include "core/verifier.hpp"
#include "runtime/api.hpp"
#include "trace/deadlock.hpp"
#include "trace/fork_tree.hpp"
#include "trace/kj_judgment.hpp"
#include "trace/minimize.hpp"
#include "trace/owp_judgment.hpp"
#include "trace/tj_judgment.hpp"
#include "trace/trace_gen.hpp"
#include "trace/validity.hpp"

namespace {

using namespace tj;
using trace::TaskId;
using trace::Trace;

struct Options {
  std::uint64_t iterations = 10'000;
  std::uint32_t tasks = 24;
  std::uint32_t joins = 24;
  std::uint32_t promises = 8;
  std::uint32_t ops = 32;
  std::uint64_t seed = 12345;
  std::string record_dir;  ///< non-empty: dump discrepancy witnesses here
};

// Writes a replayable witness file under the --record directory; failures
// to record never mask the discrepancy exit code, they just warn.
void record_witness(const std::string& dir, const std::string& name,
                    const std::string& text) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + name;
  std::ofstream out(path);
  if (!out || !(out << text)) {
    std::fprintf(stderr, "warning: could not record witness to %s\n",
                 path.c_str());
    return;
  }
  std::fprintf(stderr, "witness recorded: %s\n", path.c_str());
}

// Replays the trace through a verifier; returns per-task nodes.
struct Replay {
  std::unique_ptr<core::Verifier> verifier;
  std::vector<core::PolicyNode*> nodes;

  explicit Replay(core::PolicyChoice p, const Trace& t)
      : verifier(core::make_verifier(p)) {
    for (const trace::Action& a : t.actions()) {
      switch (a.kind) {
        case trace::ActionKind::Init:
          at(a.actor) = verifier->add_child(nullptr);
          break;
        case trace::ActionKind::Fork:
          at(a.target) = verifier->add_child(nodes[a.actor]);
          break;
        case trace::ActionKind::Join:
          verifier->on_join_complete(nodes[a.actor], nodes[a.target]);
          break;
        case trace::ActionKind::Make:
        case trace::ActionKind::Fulfill:
        case trace::ActionKind::Transfer:
        case trace::ActionKind::Await:
          break;  // promise actions are invisible to the join verifiers
      }
    }
  }

  ~Replay() {
    for (core::PolicyNode* n : nodes) {
      if (n != nullptr) verifier->release(n);
    }
  }

  core::PolicyNode*& at(TaskId id) {
    if (id >= nodes.size()) nodes.resize(id + 1, nullptr);
    return nodes[id];
  }

  bool permits(TaskId a, TaskId b) {
    return verifier->permits_join(nodes[a], nodes[b]);
  }

  core::Witness explain(TaskId a, TaskId b) {
    core::Witness w = verifier->explain(nodes[a], nodes[b]);
    // Replay nodes carry no runtime uids; stamp the trace ids so the
    // rendered witness and the offline validator name the right tasks.
    w.waiter = a;
    w.target = b;
    return w;
  }
};

// Renders each policy's provenance witness for every join it would reject
// on `t` — dumped next to a minimized discrepancy trace so the refutation
// names its evidence (the spawn paths / clocks / sets behind each verdict),
// not just the verdict. Capped to keep discrepancy dumps readable.
std::string explain_rejections(const Trace& t) {
  const core::PolicyChoice policies[] = {
      core::PolicyChoice::TJ_GT, core::PolicyChoice::TJ_JP,
      core::PolicyChoice::TJ_SP, core::PolicyChoice::KJ_VC,
      core::PolicyChoice::KJ_SS};
  constexpr std::size_t kMaxWitnesses = 24;
  const auto tasks = t.tasks();
  std::string out;
  std::size_t dumped = 0;
  for (const core::PolicyChoice p : policies) {
    Replay rep(p, t);
    for (TaskId a : tasks) {
      for (TaskId b : tasks) {
        if (a == b || rep.permits(a, b)) continue;
        if (++dumped > kMaxWitnesses) {
          out += "... (witness cap reached)\n";
          return out;
        }
        const core::Witness w = rep.explain(a, b);
        const obs::WitnessValidation v = obs::validate_witness(w, t);
        out += obs::to_text(w);
        out += "  offline validation: ";
        out += to_string(v.verdict);
        if (!v.reason.empty()) {
          out += " (" + v.reason + ")";
        }
        out += "\n";
      }
    }
  }
  return out;
}

// Returns an explanation of the first discrepancy found, or "".
std::string check_one(const Trace& t) {
  const trace::TjJudgment tj(t);
  const trace::KjJudgment kj(t);
  const trace::ForkTree tree(t);
  const auto tasks = t.tasks();
  // Theorem 4.3's hypothesis: subsumption is only promised on KJ-valid
  // traces (an *invalid* join can KJ-learn facts like a ≺ a).
  const bool kj_valid = trace::is_kj_valid(t);

  Replay gt(core::PolicyChoice::TJ_GT, t);
  Replay jp(core::PolicyChoice::TJ_JP, t);
  Replay sp(core::PolicyChoice::TJ_SP, t);
  Replay vc(core::PolicyChoice::KJ_VC, t);
  Replay ss(core::PolicyChoice::KJ_SS, t);

  char buf[160];
  for (TaskId a : tasks) {
    for (TaskId b : tasks) {
      const bool ref_tj = tj.less(a, b);
      const bool ref_kj = kj.knows(a, b);
      if (tree.preorder_less(a, b) != ref_tj) {
        std::snprintf(buf, sizeof buf, "preorder!=judgment a=%u b=%u", a, b);
        return buf;
      }
      if (gt.permits(a, b) != ref_tj || jp.permits(a, b) != ref_tj ||
          sp.permits(a, b) != ref_tj) {
        std::snprintf(buf, sizeof buf, "TJ verifier mismatch a=%u b=%u", a, b);
        return buf;
      }
      if (vc.permits(a, b) != ref_kj || ss.permits(a, b) != ref_kj) {
        std::snprintf(buf, sizeof buf, "KJ verifier mismatch a=%u b=%u", a, b);
        return buf;
      }
      if (kj_valid && ref_kj && !ref_tj) {
        std::snprintf(buf, sizeof buf, "subsumption broken a=%u b=%u", a, b);
        return buf;
      }
      const int tri = (a == b ? 1 : 0) + (ref_tj ? 1 : 0) +
                      (tj.less(b, a) ? 1 : 0);
      if (tri != 1) {
        std::snprintf(buf, sizeof buf, "trichotomy broken a=%u b=%u", a, b);
        return buf;
      }
    }
  }
  // TJ judges joins only, so its deadlock-freedom theorem is stated for
  // promise-free traces; a lone `await` on an unfulfilled promise deadlocks
  // without ever being visible to TJ. Promise traces get the analogous
  // guarantee from OWP in check_owp() below.
  const auto& acts = t.actions();
  const bool promise_free =
      std::none_of(acts.begin(), acts.end(), [](const trace::Action& a) {
        return a.kind == trace::ActionKind::Make ||
               a.kind == trace::ActionKind::Fulfill ||
               a.kind == trace::ActionKind::Transfer ||
               a.kind == trace::ActionKind::Await;
      });
  if (promise_free && trace::is_tj_valid(t) && trace::contains_deadlock(t)) {
    return "TJ-valid trace contains a deadlock";
  }
  return "";
}

// Differential check for the ownership policy: feeds the trace action by
// action to the *online* OwpVerifier (via its replay shim) and the offline
// OwpJudgment, requiring identical verdicts, then cross-checks soundness
// against the extended deadlock definition.
std::string check_owp(const Trace& t) {
  core::OwpTraceReplay online;
  trace::OwpJudgment offline;
  char buf[160];
  std::size_t idx = 0;
  for (const trace::Action& a : t.actions()) {
    bool offline_ok = true;
    switch (a.kind) {
      case trace::ActionKind::Join:
        offline_ok = offline.valid_join(a.actor, a.target);
        break;
      case trace::ActionKind::Await:
        offline_ok = offline.valid_await(a.actor, a.promise);
        break;
      case trace::ActionKind::Fulfill:
        offline_ok = offline.valid_fulfill(a.actor, a.promise);
        break;
      case trace::ActionKind::Transfer:
        offline_ok = offline.valid_transfer(a.actor, a.target, a.promise);
        break;
      default:
        break;
    }
    if (online.feed(a) != offline_ok) {
      std::snprintf(buf, sizeof buf,
                    "OWP online/offline disagreement at action %zu", idx);
      return buf;
    }
    offline.push(a);
    ++idx;
  }
  if (trace::is_owp_valid(t) && trace::contains_deadlock(t)) {
    return "OWP-valid trace contains a deadlock";
  }
  return "";
}

// Combined predicate: join-policy differential plus the ownership policy.
std::string check_all(const Trace& t) {
  std::string why = check_one(t);
  if (why.empty()) why = check_owp(t);
  return why;
}

// splitmix64 — deterministic per-seed budget randomization for budget chaos.
std::uint64_t mix64(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Chaos mode: one live-runtime run under a deterministic FaultPlan.
// Returns an explanation of the first violated invariant, or "". With a
// record dir, the run executes under the flight recorder and a violating
// run's recorded events are bridged into an offline trace file.
// With `budget_chaos`, the governor is armed with seed-randomized budgets
// (see the file header for the relaxed invariants that implies).
std::string check_fault_plan(std::uint64_t seed, runtime::SchedulerMode mode,
                             const std::string& record_dir,
                             bool budget_chaos) {
  runtime::Config cfg;
  cfg.policy = budget_chaos ? core::PolicyChoice::TJ_GT  // full 3-level ladder
                            : core::PolicyChoice::TJ_SP;
  cfg.fault = core::FaultMode::Fallback;
  cfg.scheduler = mode;
  cfg.workers = 3;
  cfg.fault_plan = runtime::FaultPlan::chaos(seed);
  cfg.obs.enabled = !record_dir.empty();
  if (budget_chaos) {
    std::uint64_t s = seed * 0x2545f4914f6cdd1dULL + 1;
    cfg.record_trace = true;  // enables the recorded-trace deadlock check
    cfg.governor.enabled = true;
    cfg.governor.poll_ms = 1 + static_cast<std::uint32_t>(mix64(s) % 3);
    // Byte budget from "trips instantly" (256B) to "never trips" (1MB).
    cfg.governor.max_verifier_bytes = std::size_t{256} << (mix64(s) % 13);
    if (mix64(s) % 3 == 0) {
      cfg.governor.max_verifier_nodes = std::size_t{8} << (mix64(s) % 6);
    }
    if (mix64(s) % 3 == 0) {
      cfg.governor.max_wfg_edges = std::size_t{8} << (mix64(s) % 5);
    }
    cfg.governor.trip_polls = 1 + static_cast<std::uint32_t>(mix64(s) % 3);
    cfg.governor.cooldown_polls =
        1 + static_cast<std::uint32_t>(mix64(s) % 6);
    if (mix64(s) % 2 == 0) {
      cfg.governor.spawn_inline_watermark = 8 + (mix64(s) % 40);
    }
  }
  runtime::Runtime rt(cfg);

  constexpr int kFanout = 16;
  constexpr int kPromises = 6;
  // Budget chaos runs a few rounds so governor trips land mid-schedule, not
  // only after the interesting work is done.
  const int rounds = budget_chaos ? 3 : 1;
  unsigned futures_resolved = 0;
  unsigned promises_resolved = 0;
  rt.root([&] {
    for (int round = 0; round < rounds; ++round) {
      std::vector<runtime::Future<long>> fs;
      for (int i = 0; i < kFanout; ++i) {
        fs.push_back(runtime::async([i]() -> long {
          auto inner = runtime::async([i] { return static_cast<long>(i); });
          return inner.get() + 1;
        }));
      }
      std::vector<runtime::Promise<long>> ps;
      std::vector<runtime::Future<void>> owners;
      for (int i = 0; i < kPromises; ++i) {
        ps.push_back(runtime::make_promise<long>());
        owners.push_back(runtime::async_owning(
            ps.back(), [p = ps.back(), i] { p.fulfill(i); }));
      }
      for (auto& f : fs) {
        try {
          (void)f.get();
          ++futures_resolved;
        } catch (const runtime::TjError&) {
          ++futures_resolved;
        }
      }
      for (auto& p : ps) {
        try {
          (void)p.get();
          ++promises_resolved;
        } catch (const runtime::TjError&) {
          ++promises_resolved;
        }
      }
      for (auto& f : owners) {
        try {
          f.join();
        } catch (const runtime::TjError&) {
        }
      }
    }
  });

  char buf[160];
  std::string why;
  const unsigned want_futures = static_cast<unsigned>(kFanout * rounds);
  const unsigned want_promises = static_cast<unsigned>(kPromises * rounds);
  if (futures_resolved != want_futures || promises_resolved != want_promises) {
    std::snprintf(buf, sizeof buf, "lost results: futures %u/%u promises %u/%u",
                  futures_resolved, want_futures, promises_resolved,
                  want_promises);
    why = buf;
  }
  const core::GateStats s = rt.gate_stats();
  const runtime::FaultStats fi = rt.fault_stats();
  // Without a ladder every rejection is injected (the workload is TJ-valid);
  // a degrading ladder adds genuine cross-level rejections on top.
  if (why.empty() && (budget_chaos
                          ? s.policy_rejections < fi.join_rejections
                          : s.policy_rejections != fi.join_rejections)) {
    std::snprintf(buf, sizeof buf, "join rejections %llu %s injected %llu",
                  static_cast<unsigned long long>(s.policy_rejections),
                  budget_chaos ? "<" : "!=",
                  static_cast<unsigned long long>(fi.join_rejections));
    why = buf;
  }
  if (why.empty() && !s.reconciles()) {
    why = "unreconciled rejections: " + core::to_string(s);
  }
  if (why.empty() && budget_chaos &&
      trace::contains_deadlock(rt.recorded_trace())) {
    why = "budget-chaos run recorded a deadlocked trace";
  }
  if (!why.empty() && rt.recorder() != nullptr) {
    // Bridge the recorded run back into the offline notation so the failing
    // schedule can be replayed through trace_check / the offline judgments.
    const obs::RecordedRun run = obs::extract_run(rt.recorder()->drain());
    char name[96];
    std::snprintf(name, sizeof name, "fault-%llu-%s.trace",
                  static_cast<unsigned long long>(seed),
                  std::string(to_string(mode)).c_str());
    record_witness(record_dir, name,
                   obs::to_trace_text(run.trace, "chaos violation: " + why));
  }
  return why;
}

int run_fault_plan_sweep(std::uint64_t first_seed, std::uint64_t plans,
                         const std::string& record_dir, bool budget_chaos) {
  for (std::uint64_t i = 0; i < plans; ++i) {
    const std::uint64_t seed = first_seed + i;
    for (const runtime::SchedulerMode mode :
         {runtime::SchedulerMode::Cooperative,
          runtime::SchedulerMode::Blocking}) {
      const std::string why =
          check_fault_plan(seed, mode, record_dir, budget_chaos);
      if (!why.empty()) {
        std::fprintf(stderr,
                     "FAULT-PLAN VIOLATION seed=%llu scheduler=%s%s: %s\n",
                     static_cast<unsigned long long>(seed),
                     std::string(to_string(mode)).c_str(),
                     budget_chaos ? " budget-chaos" : "", why.c_str());
        return 1;
      }
    }
    if ((i + 1) % 16 == 0) {
      std::fprintf(stderr, "[chaos] %llu plans ok\n",
                   static_cast<unsigned long long>(i + 1));
    }
  }
  std::printf("fuzz_policies: %llu fault plans x 2 schedulers%s, "
              "all invariants held\n",
              static_cast<unsigned long long>(plans),
              budget_chaos ? " under randomized governor budgets" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool iterations_set = false;
  std::uint64_t fault_seed = 0;
  bool fault_mode = false;
  bool budget_chaos = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&arg](const char* key) -> const char* {
      const std::size_t n = std::strlen(key);
      return arg.compare(0, n, key) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = val("--iterations=")) {
      o.iterations = std::strtoull(v, nullptr, 10);
      iterations_set = true;
    } else if (const char* vf = val("--fault-seed=")) {
      fault_seed = std::strtoull(vf, nullptr, 10);
      fault_mode = true;
    } else if (const char* v2 = val("--tasks=")) {
      o.tasks = static_cast<std::uint32_t>(std::atoi(v2));
    } else if (const char* v3 = val("--joins=")) {
      o.joins = static_cast<std::uint32_t>(std::atoi(v3));
    } else if (const char* vp = val("--promises=")) {
      o.promises = static_cast<std::uint32_t>(std::atoi(vp));
    } else if (const char* vo = val("--ops=")) {
      o.ops = static_cast<std::uint32_t>(std::atoi(vo));
    } else if (const char* v4 = val("--seed=")) {
      o.seed = std::strtoull(v4, nullptr, 10);
    } else if (const char* vr = val("--record=")) {
      o.record_dir = vr;
    } else if (arg == "--budget-chaos") {
      budget_chaos = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  if (budget_chaos && !fault_mode) {
    std::fprintf(stderr, "--budget-chaos requires --fault-seed=S\n");
    return 2;
  }
  if (fault_mode) {
    // Trace-fuzz iteration budgets are far too large for live runtime runs.
    return run_fault_plan_sweep(fault_seed, iterations_set ? o.iterations : 64,
                                o.record_dir, budget_chaos);
  }

  for (std::uint64_t i = 0; i < o.iterations; ++i) {
    const std::uint64_t seed = o.seed + i;
    // Alternate the five generators for coverage: three join-only shapes
    // plus adversarial and OWP-valid promise traces.
    const double bias = 0.1 * static_cast<double>(i % 11);
    Trace t;
    switch (i % 5) {
      case 0:
        t = trace::random_structural_trace(o.tasks, o.joins, seed, bias);
        break;
      case 1:
        t = trace::random_tj_valid_trace(o.tasks, o.joins, seed, bias);
        break;
      case 2:
        t = trace::random_kj_valid_trace(o.tasks, o.joins, seed, bias);
        break;
      case 3:
        t = trace::random_promise_trace(o.tasks, o.promises, o.ops, seed);
        break;
      default:
        t = trace::random_owp_valid_trace(o.tasks, o.promises, o.ops, seed);
        break;
    }
    const std::string why = check_all(t);
    if (!why.empty()) {
      // Shrink to the smallest trace that still shows a discrepancy.
      const Trace min = trace::minimize_trace(t, [](const Trace& c) {
        return !check_all(c).empty();
      });
      std::fprintf(stderr, "DISCREPANCY after %llu traces: %s\n",
                   static_cast<unsigned long long>(i), why.c_str());
      std::fprintf(stderr, "minimized witness: %s\n",
                   min.to_string().c_str());
      if (!o.record_dir.empty()) {
        char name[96];
        std::snprintf(name, sizeof name, "discrepancy-%llu.trace",
                      static_cast<unsigned long long>(seed));
        record_witness(o.record_dir, name,
                       obs::to_trace_text(t, "discrepancy: " + why));
        std::snprintf(name, sizeof name, "discrepancy-%llu-min.trace",
                      static_cast<unsigned long long>(seed));
        record_witness(o.record_dir, name,
                       obs::to_trace_text(min, "minimized witness: " + why));
        // Each rejecting policy's provenance witness for the minimized
        // trace, validated offline — WHY each verdict fell the way it did.
        std::snprintf(name, sizeof name, "discrepancy-%llu-witness.txt",
                      static_cast<unsigned long long>(seed));
        record_witness(o.record_dir, name, explain_rejections(min));
      }
      return 1;
    }
    if ((i + 1) % 1000 == 0) {
      std::fprintf(stderr, "[fuzz] %llu traces ok\n",
                   static_cast<unsigned long long>(i + 1));
    }
  }
  std::printf("fuzz_policies: %llu traces, no discrepancies\n",
              static_cast<unsigned long long>(o.iterations));
  return 0;
}
