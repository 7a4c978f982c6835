// apps: the paper's six benchmarks at the Small preset, each run on a fresh
// runtime under `none` and under TJ-SP, in interleaved rounds (as
// harness::measure_interleaved does, so heap and page warm-up is symmetric
// between the policies). Compute dominates, so a hot-path gain should leave
// this workload nearly flat; a regression that hurts real programs shows up
// here first. The seed permutes the app order of every round and which
// policy runs first; the app inputs are the fixed Small presets.

#include <algorithm>
#include <cmath>
#include <map>

#include "apps/app_registry.hpp"
#include "common.hpp"

namespace tjbench {

namespace rtj = tj::runtime;
using tj::core::PolicyChoice;

namespace {

struct PolicyCol {
  PolicyChoice policy;
  const char* label;
};
constexpr PolicyCol kNone{PolicyChoice::None, "none"};
constexpr PolicyCol kTjSp{PolicyChoice::TJ_SP, "tjsp"};

std::vector<const tj::apps::AppInfo*> paper_apps() {
  std::vector<const tj::apps::AppInfo*> out;
  for (const tj::apps::AppInfo& a : tj::apps::all_apps()) {
    if (!a.extra) out.push_back(&a);
  }
  return out;
}

struct AppsAcc {
  std::map<std::string, std::vector<double>> tjsp_s;  // by app
  std::uint64_t runs = 0;
  std::uint64_t failed = 0;
  std::uint64_t tjsp_runs = 0;
  double tjsp_total_s = 0;
  bool reconciled = true;
  std::vector<double> gaps_us;  ///< one run's end -> the next run's start
  std::uint64_t last_end_ns = 0;
  LayerDelta delta;
};

/// Runs `app` once on a fresh runtime; spans: the run as an op, the timed
/// parallel part as apps.<app>.<policy>.
void run_app(const tj::apps::AppInfo& app, const PolicyCol& col,
             AppsAcc& acc) {
  rtj::Config cfg;
  cfg.policy = col.policy;
  cfg.workers = kWorkers;
  const std::uint64_t op = new_op();
  const std::uint64_t t0 = now_ns();
  if (acc.last_end_ns != 0) {
    acc.gaps_us.push_back(static_cast<double>(t0 - acc.last_end_ns) / 1e3);
  }
  tj::apps::AppOutcome out;
  {
    rtj::Runtime rt(cfg);
    const LayerSnap before = snap(rt);
    out = app.run(rt, tj::apps::AppSize::Small);
    acc.delta.add(before, snap(rt));
    acc.delta.note_peaks(rt);
    acc.reconciled = acc.reconciled && gate_reconciles(rt.gate_stats());
  }
  const std::uint64_t t1 = now_ns();
  acc.last_end_ns = t1;
  if (op != 0) {
    const std::uint16_t name =
        g_tracer->name_id("apps." + app.name + "." + col.label);
    record_span(kOp, op, 0, t0, t1, false);
    record_span(name, op, op, t0,
                t0 + static_cast<std::uint64_t>(out.seconds * 1e9), false);
  }
  ++acc.runs;
  if (!out.valid) ++acc.failed;
  if (col.policy == PolicyChoice::TJ_SP) {
    acc.tjsp_s[app.name].push_back(out.seconds);
    ++acc.tjsp_runs;
    acc.tjsp_total_s += out.seconds;
  }
}

/// One round: every app under both policies, in the seeded order.
/// `until_ns` != 0 stops before any app pair that would start after it.
void round(Rng& rng, AppsAcc& acc, std::uint64_t until_ns) {
  std::vector<const tj::apps::AppInfo*> apps = paper_apps();
  for (std::size_t i = apps.size(); i > 1; --i) {
    std::swap(apps[i - 1], apps[rng.next() % i]);
  }
  const bool none_first = rng.next() % 2 == 0;
  for (const tj::apps::AppInfo* app : apps) {
    if (until_ns != 0 && now_ns() >= until_ns) return;
    run_app(*app, none_first ? kNone : kTjSp, acc);
    run_app(*app, none_first ? kTjSp : kNone, acc);
  }
}

double geomean(const std::vector<double>& v) {
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return v.empty() ? 0 : std::exp(log_sum / static_cast<double>(v.size()));
}

}  // namespace

void run_apps(const Options& o, RunResult& r) {
  Rng rng(o.seed);
  bool warm_ok = true;
  for (int k = 0; k < kSetups; ++k) {
    const std::uint64_t t0 = now_ns();
    AppsAcc warm;
    round(rng, warm, 0);
    warm_ok = warm_ok && warm.failed == 0 && warm.reconciled;
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  AppsAcc acc;
  const LockMap locks_before = lock_snapshot();
  const std::uint64_t t_start = now_ns();
  const std::uint64_t until =
      t_start + static_cast<std::uint64_t>(o.seconds * 1e9);
  round(rng, acc, 0);  // one whole round even when the budget is shorter
  while (now_ns() < until) round(rng, acc, until);
  const double window_s = static_cast<double>(now_ns() - t_start) / 1e9;
  acc.delta.add_locks(locks_before, lock_snapshot());

  std::vector<double> p50s, p90s, p99s;
  for (auto& [name, v] : acc.tjsp_s) {
    p50s.push_back(quantile(v, 0.50));
    p90s.push_back(quantile(v, 0.90));
    p99s.push_back(quantile(v, 0.99));
  }
  r.attempted = acc.runs;
  r.failed = acc.failed;
  r.wrong = acc.failed;
  r.samples = acc.tjsp_runs;
  r.ops_per_s = static_cast<double>(acc.tjsp_runs) / acc.tjsp_total_s;
  r.op_p50_us = geomean(p50s) * 1e6;
  r.op_p90_us = geomean(p90s) * 1e6;
  r.op_p99_us = geomean(p99s) * 1e6;
  fill_layer_counters(r, acc.delta, static_cast<double>(acc.runs), window_s);
  r.counters["gen.late_p99_us"] = quantile(acc.gaps_us, 0.99);
  r.checks["warmup_ok"] = warm_ok;
  r.checks["gate_reconciles"] = acc.reconciled;
  r.checks["every_app_measured"] = acc.tjsp_s.size() == paper_apps().size();
}

}  // namespace tjbench
