// The record→export→parse→replay round-trip property: a live run recorded
// by the flight recorder, bridged back to the offline notation
// (obs/replay_bridge), serialized as text and re-parsed, must (a) lose no
// events, (b) re-parse to the identical trace, and (c) replay through the
// offline judgments with the same verdicts the gate issued live. TJ and KJ
// judgments are monotone in the trace prefix, so a join the gate admitted
// live (Proceed) must be valid at its position in the completed trace —
// live-Proceed everywhere ⇒ offline TJ-valid. Checked for all six paper
// benchmarks under both scheduler modes.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "apps/app_registry.hpp"
#include "obs/export_chrome.hpp"
#include "obs/replay_bridge.hpp"
#include "runtime/api.hpp"
#include "trace/deadlock.hpp"
#include "trace/owp_judgment.hpp"
#include "trace/parse.hpp"
#include "trace/validity.hpp"

namespace tj {
namespace {

runtime::Config observed(runtime::SchedulerMode mode) {
  runtime::Config cfg;
  cfg.policy = core::PolicyChoice::TJ_SP;
  cfg.scheduler = mode;
  cfg.obs.enabled = true;
  return cfg;
}

void expect_reparses_identically(const trace::Trace& t) {
  const std::string text = obs::to_trace_text(t, "round-trip test");
  const trace::Trace reparsed = trace::parse_trace(text);
  ASSERT_EQ(reparsed.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(reparsed[i], t[i]) << "action " << i << " of:\n" << text;
  }
}

struct AppCase {
  const char* app;
  runtime::SchedulerMode mode;
};

// gtest's default printer shows a const char* as its address, which moves
// from run to run under ASLR and would leak into the test names that ctest
// discovers from --gtest_list_tests.
void PrintTo(const AppCase& c, std::ostream* os) {
  *os << "(\"" << c.app << "\", " << runtime::to_string(c.mode) << ")";
}

class ObsRoundTrip : public ::testing::TestWithParam<AppCase> {};

TEST_P(ObsRoundTrip, LiveVerdictsAgreeWithOfflineJudgments) {
  const auto& [name, mode] = GetParam();
  const apps::AppInfo* app = apps::find_app(name);
  ASSERT_NE(app, nullptr);

  runtime::Runtime rt(observed(mode));
  const apps::AppOutcome out = app->run(rt, apps::AppSize::Tiny);
  EXPECT_TRUE(out.valid) << out.detail;

  ASSERT_NE(rt.recorder(), nullptr);
  EXPECT_EQ(rt.recorder()->events_dropped(), 0u) << "event loss breaks replay";
  const std::vector<obs::Event> events = rt.recorder()->drain();

  // Every gate ruling was recorded, and (the paper's six apps are all
  // TJ-admissible) every ruling admitted the join outright.
  const core::GateStats stats = rt.gate_stats();
  std::uint64_t verdict_events = 0;
  for (const obs::Event& e : events) {
    if (e.kind != obs::EventKind::JoinVerdict) continue;
    ++verdict_events;
    EXPECT_EQ(e.detail, static_cast<std::uint8_t>(core::JoinDecision::Proceed));
    EXPECT_EQ(e.policy, static_cast<std::uint8_t>(core::PolicyChoice::TJ_SP));
  }
  EXPECT_EQ(verdict_events, stats.joins_checked);
  EXPECT_EQ(stats.policy_rejections, 0u);

  // Bridge to the offline notation: complete, and faithful through text.
  const obs::RecordedRun run = obs::extract_run(events);
  EXPECT_EQ(run.skipped_events, 0u);
  EXPECT_EQ(run.trace.fork_count() + 1, rt.tasks_created());
  EXPECT_EQ(run.trace.join_count(), stats.joins_checked);
  ASSERT_EQ(run.verdicts.size(), stats.joins_checked);
  for (const obs::RecordedRun::Verdict& v : run.verdicts) {
    EXPECT_FALSE(v.is_await);
    EXPECT_EQ(v.decision, static_cast<std::uint8_t>(core::JoinDecision::Proceed));
  }
  expect_reparses_identically(run.trace);

  // Offline replay: the judgments must agree with the live verdicts. TJ
  // validity of the whole trace certifies every live Proceed (monotonicity);
  // Theorem 3.11 then promises the recorded joins contain no cycle.
  EXPECT_TRUE(trace::is_structurally_valid(run.trace));
  EXPECT_TRUE(trace::is_tj_valid(run.trace));
  EXPECT_FALSE(trace::contains_deadlock(run.trace));
  if (app->kj_valid) {
    EXPECT_TRUE(trace::is_kj_valid(run.trace));
  }
}

std::string case_name(const ::testing::TestParamInfo<AppCase>& info) {
  return std::string(info.param.app) + "_" +
         std::string(runtime::to_string(info.param.mode));
}

std::vector<AppCase> six_apps_both_modes() {
  std::vector<AppCase> cases;
  for (const char* app : {"jacobi", "smithwaterman", "crypt", "strassen",
                          "series", "nqueens"}) {
    for (runtime::SchedulerMode mode : {runtime::SchedulerMode::Cooperative,
                                        runtime::SchedulerMode::Blocking}) {
      cases.push_back({app, mode});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(SixApps, ObsRoundTrip,
                         ::testing::ValuesIn(six_apps_both_modes()),
                         case_name);

// Promise actions round-trip too: a deterministic dataflow run records
// make/transfer/fulfill/await, bridges them into the extended notation, and
// replays OWP-valid offline — agreeing with the live gate, which admitted
// every await/fulfill.
TEST(ObsRoundTripPromises, DataflowReplaysOwpValid) {
  runtime::Runtime rt(observed(runtime::SchedulerMode::Cooperative));
  rt.root([] {
    auto p = runtime::make_promise<int>();
    auto q = runtime::make_promise<int>();
    auto owner_p = runtime::async_owning(p, [p] { p.fulfill(1); });
    auto owner_q = runtime::async_owning(
        q, [q, p] { q.fulfill(p.get() + 1); });
    EXPECT_EQ(q.get(), 2);
    owner_p.join();
    owner_q.join();
  });

  EXPECT_EQ(rt.recorder()->events_dropped(), 0u);
  const std::vector<obs::Event> events = rt.recorder()->drain();
  std::uint64_t await_verdicts = 0, fulfill_verdicts = 0;
  for (const obs::Event& e : events) {
    if (e.kind == obs::EventKind::AwaitVerdict) ++await_verdicts;
    if (e.kind == obs::EventKind::FulfillVerdict) ++fulfill_verdicts;
  }
  EXPECT_GE(await_verdicts, 2u);   // p.get() inside owner_q, q.get() in root
  EXPECT_EQ(fulfill_verdicts, 2u);

  const obs::RecordedRun run = obs::extract_run(events);
  EXPECT_EQ(run.skipped_events, 0u);
  const trace::Trace& t = run.trace;
  EXPECT_EQ(t.make_count(), 2u);
  EXPECT_GE(t.await_count(), 2u);
  expect_reparses_identically(t);
  EXPECT_TRUE(trace::is_structurally_valid(t));
  EXPECT_TRUE(trace::is_owp_valid(t));
  EXPECT_FALSE(trace::contains_deadlock(t));
}

// Service-mode streams round-trip too: AdmissionShed events and request/
// tenant annotations ride along in the recorded stream without disturbing
// the structural bridge — the offline trace is identical to a plain run's,
// while the Chrome export keeps the service-facing detail.
TEST(ObsRoundTripService, ShedAndRequestAnnotationsSurviveBridging) {
  runtime::Config cfg = observed(runtime::SchedulerMode::Cooperative);
  runtime::TenantBudget tight;
  tight.name = "tiny";
  tight.max_in_flight = 1;
  cfg.governor.tenants = {tight};
  runtime::Runtime rt(cfg);
  ASSERT_NE(rt.admission(), nullptr);

  rt.root([&] {
    for (std::uint64_t req = 1; req <= 4; ++req) {
      runtime::RequestScope span(req, 1);
      const auto v = rt.admission()->try_admit(0);
      // In-flight budget is 1 and we release immediately, so odd attempts
      // admit; to force sheds, attempt once more while still in flight.
      if (v.admitted) {
        const auto nested = rt.admission()->try_admit(0);
        EXPECT_FALSE(nested.admitted);
        runtime::async([] {}).join();
        rt.admission()->release(0);
      }
    }
  });

  EXPECT_EQ(rt.recorder()->events_dropped(), 0u);
  const std::vector<obs::Event> events = rt.recorder()->drain();
  std::uint64_t sheds = 0, annotated = 0;
  for (const obs::Event& e : events) {
    if (e.kind == obs::EventKind::AdmissionShed) {
      ++sheds;
      EXPECT_NE(e.request, 0u) << "shed events carry the request span";
      EXPECT_EQ(e.tenant, 1u);
    }
    if (e.request != 0) ++annotated;
  }
  EXPECT_GE(sheds, 1u);
  EXPECT_GT(annotated, sheds) << "spawn/join events are annotated too";
  const core::GateStats stats = rt.gate_stats();
  EXPECT_EQ(stats.requests_checked, stats.requests_admitted + sheds);

  // The bridge ignores service events without counting them as losses, and
  // the resulting trace still replays cleanly.
  const obs::RecordedRun run = obs::extract_run(events);
  EXPECT_EQ(run.skipped_events, 0u);
  EXPECT_EQ(run.trace.join_count(), stats.joins_checked);
  expect_reparses_identically(run.trace);
  EXPECT_TRUE(trace::is_structurally_valid(run.trace));
  EXPECT_TRUE(trace::is_tj_valid(run.trace));

  // The Chrome export keeps what the bridge drops: the shed marker lands in
  // the tenant's lane with its request id in the args.
  const std::string chrome = obs::to_chrome_json(events);
  EXPECT_NE(chrome.find("admission-shed"), std::string::npos);
  EXPECT_NE(chrome.find("\"tenant 0\""), std::string::npos);
  EXPECT_NE(chrome.find("\"request\":1"), std::string::npos);
}

}  // namespace
}  // namespace tj
