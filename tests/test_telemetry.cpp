// Request-scoped telemetry tests: RequestScope TLS propagation into the
// event stream (spawn-time inheritance included), the TelemetrySink's
// JSONL/Prometheus export and its exact final-sample reconciliation with
// the runtime's end-of-run stats, the zero-cost-when-off contract, the
// declarative SLO evaluator, the per-tenant critical-path lanes, and the
// tenant-aware Chrome export. Every suite name starts with "Telemetry" so
// `ctest -R Telemetry` (the CI tsan stage) runs exactly this file.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "obs/causal.hpp"
#include "obs/export_chrome.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"
#include "runtime/api.hpp"
#include "runtime/introspect.hpp"
#include "runtime/runtime.hpp"

namespace tj {
namespace {

namespace slo = obs::slo;

runtime::Config observed() {
  runtime::Config cfg;
  cfg.policy = core::PolicyChoice::TJ_SP;
  cfg.obs.enabled = true;
  return cfg;
}

std::string temp_path(const char* leaf) {
  return ::testing::TempDir() + leaf;
}

// --- RequestScope propagation --------------------------------------------

TEST(TelemetryRequestSpan, StampsEventsEmittedUnderTheScope) {
  runtime::Runtime rt(observed());
  rt.root([] {
    runtime::RequestScope span(42, 3);
    runtime::async([] {}).join();
  });
  const std::vector<obs::Event> events = rt.recorder()->drain();
  std::uint64_t stamped = 0;
  for (const obs::Event& e : events) {
    if (e.request == 42) {
      EXPECT_EQ(e.tenant, 3u) << obs::to_string(e);
      ++stamped;
    }
  }
  // At least the spawn, the verdict, and the join completion happen under
  // the scope on the root's thread.
  EXPECT_GE(stamped, 3u);
}

TEST(TelemetryRequestSpan, ChildTasksInheritTheSubmittingSpan) {
  runtime::Runtime rt(observed());
  rt.root([] {
    runtime::RequestScope span(7, 1);
    auto f = runtime::async([] {
      // Grandchild spawned from inside the request's task tree.
      runtime::async([] {}).join();
    });
    f.join();
  });
  const std::vector<obs::Event> events = rt.recorder()->drain();
  // Every task-scoped event of the request's tree carries the stamp, even
  // when a worker thread (which never saw the RequestScope) emitted it.
  std::uint64_t starts_stamped = 0;
  for (const obs::Event& e : events) {
    if (e.kind == obs::EventKind::TaskStart && e.request == 7) {
      ++starts_stamped;
    }
  }
  EXPECT_GE(starts_stamped, 2u) << "child and grandchild starts";
}

TEST(TelemetryRequestSpan, NoScopeMeansNoStamp) {
  runtime::Runtime rt(observed());
  rt.root([] { runtime::async([] {}).join(); });
  for (const obs::Event& e : rt.recorder()->drain()) {
    EXPECT_EQ(e.request, 0u) << obs::to_string(e);
    EXPECT_EQ(e.tenant, 0u) << obs::to_string(e);
  }
}

TEST(TelemetryRequestSpan, ScopesNestAndRestore) {
  obs::RequestContext& tls = obs::tls_request_context();
  EXPECT_EQ(tls.request, 0u);
  {
    obs::RequestScope outer(1, 1);
    EXPECT_EQ(tls.request, 1u);
    {
      obs::RequestScope inner(2, 2);
      EXPECT_EQ(tls.request, 2u);
      EXPECT_EQ(tls.tenant, 2u);
    }
    EXPECT_EQ(tls.request, 1u);
    EXPECT_EQ(tls.tenant, 1u);
  }
  EXPECT_EQ(tls.request, 0u);
}

// --- TelemetrySink --------------------------------------------------------

TEST(TelemetrySinkTest, InertWhenObsOff) {
  const std::string path = temp_path("telemetry_inert.jsonl");
  std::remove(path.c_str());
  runtime::Runtime rt(runtime::Config{});  // obs off ⇒ no recorder
  ASSERT_EQ(rt.recorder(), nullptr);
  obs::TelemetryConfig tcfg;
  tcfg.jsonl_path = path;
  obs::TelemetrySink sink(rt, tcfg);
  sink.start();
  EXPECT_FALSE(sink.active());
  sink.sample_now();
  sink.stop();
  EXPECT_EQ(sink.samples(), 0u);
  std::ifstream in(path);
  EXPECT_FALSE(in.good()) << "inert sink must not create output files";
}

TEST(TelemetrySinkTest, FinalSampleReconcilesWithEndOfRunStats) {
  const std::string path = temp_path("telemetry_reconcile.jsonl");
  std::remove(path.c_str());
  runtime::Config cfg = observed();
  // Spurious rejections, each cleared by the fallback, so the rejection
  // identity below has non-zero terms.
  cfg.fault_plan.seed = 3;
  cfg.fault_plan.join_rejection_period = 2;
  runtime::Runtime rt(cfg);
  obs::LatencyHistogram svc;
  obs::TelemetryConfig tcfg;
  tcfg.jsonl_path = path;
  tcfg.cadence_ms = 10'000;  // manual + final samples only: deterministic
  tcfg.scheduler_label = "test";
  obs::TelemetrySink sink(rt, tcfg);
  sink.register_histogram("svc_latency_ns", &svc);
  sink.start();
  ASSERT_TRUE(sink.active());

  rt.root([&] {
    for (int i = 0; i < 20; ++i) {
      runtime::async([] {}).join();
      svc.record(1000 + 100 * static_cast<std::uint64_t>(i));
    }
  });
  sink.sample_now();  // mid-stream sample, then the final one from stop()
  sink.stop();
  EXPECT_GE(sink.samples(), 2u);

  const std::vector<slo::Json> samples = slo::parse_jsonl_file(path);
  ASSERT_EQ(samples.size(), sink.samples());
  const slo::Json& last = samples.back();

  // Schema: every consumer-visible section is present.
  for (const char* key : {"t_ms", "seq", "scheduler", "configured_policy",
                          "active_policy", "ladder_level", "gate", "counters",
                          "obs", "governor", "hist", "delta"}) {
    EXPECT_NE(last.find(key), nullptr) << "missing field " << key;
  }
  EXPECT_EQ(last.find("scheduler")->str(), "test");

  // The rejection identity holds on the stream alone: the gate block is
  // read back field by field into a GateStats.
  core::GateStats streamed;
  core::for_each_field(
      streamed, [&last](const char* name, std::uint64_t& v, const char*) {
        const slo::Json* j = last.at_path(std::string("gate.") + name);
        ASSERT_NE(j, nullptr) << "missing gate." << name;
        v = static_cast<std::uint64_t>(j->number());
      });
  EXPECT_GT(streamed.policy_rejections, 0u);
  EXPECT_TRUE(streamed.reconciles());
  const obs::LatencyHistogram::Summary sum = svc.summary();
  EXPECT_EQ(last.at_path("hist.svc_latency_ns.count")->number(),
            static_cast<double>(sum.count));
  EXPECT_EQ(last.at_path("hist.svc_latency_ns.p999_ns")->number(),
            static_cast<double>(sum.p999_ns));
}

TEST(TelemetrySinkTest, DeltaTracksPerSampleIncrements) {
  const std::string path = temp_path("telemetry_delta.jsonl");
  std::remove(path.c_str());
  runtime::Runtime rt(observed());
  obs::LatencyHistogram svc;
  obs::TelemetryConfig tcfg;
  tcfg.jsonl_path = path;
  tcfg.cadence_ms = 10'000;
  obs::TelemetrySink sink(rt, tcfg);
  sink.register_histogram("svc_latency_ns", &svc);
  sink.start();

  svc.record(10);
  svc.record(20);
  sink.sample_now();
  svc.record(30);
  sink.sample_now();
  sink.stop();  // final sample: no increments since the second one

  const std::vector<slo::Json> samples = slo::parse_jsonl_file(path);
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].at_path("delta.svc_latency_ns.count")->number(), 2.0);
  EXPECT_EQ(samples[0].at_path("delta.svc_latency_ns.sum_ns")->number(), 30.0);
  EXPECT_EQ(samples[1].at_path("delta.svc_latency_ns.count")->number(), 1.0);
  EXPECT_EQ(samples[1].at_path("delta.svc_latency_ns.sum_ns")->number(), 30.0);
  EXPECT_EQ(samples[2].at_path("delta.svc_latency_ns.count")->number(), 0.0);
  // Cumulative view never regresses.
  EXPECT_EQ(samples[2].at_path("hist.svc_latency_ns.count")->number(), 3.0);
}

TEST(TelemetrySinkTest, PrometheusDumpRendersGateAndHistograms) {
  const std::string prom = temp_path("telemetry.prom");
  std::remove(prom.c_str());
  runtime::Runtime rt(observed());
  obs::LatencyHistogram svc;
  obs::TelemetryConfig tcfg;
  tcfg.prometheus_path = prom;
  tcfg.cadence_ms = 10'000;
  obs::TelemetrySink sink(rt, tcfg);
  sink.register_histogram("svc_latency_ns", &svc);
  sink.start();
  rt.root([&] {
    runtime::async([] {}).join();
    svc.record(500);
  });
  sink.stop();

  std::ifstream in(prom);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  for (const char* needle :
       {"# TYPE tj_joins_checked counter", "tj_joins_checked ",
        "tj_live_tasks ", "# TYPE tj_svc_latency_ns summary",
        "tj_svc_latency_ns{quantile=\"0.999\"}", "tj_svc_latency_ns_count"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << "missing: " << needle;
  }
}

// --- The counter tables ---------------------------------------------------

TEST(TelemetryCounterTable, AccumulationAddsEveryGateField) {
  core::GateStats a;
  core::GateStats b;
  std::uint64_t next = 1;
  const auto fill = [&next](const char*, std::uint64_t& v, const char*) {
    v = next++;
  };
  core::for_each_field(a, fill);
  core::for_each_field(b, fill);
  core::GateStats sum = a;
  sum += b;
  const auto of = [](const core::GateStats& s) {
    std::vector<std::uint64_t> out;
    core::for_each_field(s, [&out](const char*, std::uint64_t v,
                                   const char*) { out.push_back(v); });
    return out;
  };
  const std::vector<std::uint64_t> va = of(a), vb = of(b), vs = of(sum);
  // The table names every field: GateStats holds nothing else.
  ASSERT_EQ(va.size() * sizeof(std::uint64_t), sizeof(core::GateStats));
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(vs[i], va[i] + vb[i]) << "field " << i;
  }
  sum -= b;
  EXPECT_EQ(of(sum), va);
}

TEST(TelemetryCounterTable, EveryExportCarriesEveryCounterExactly) {
  const std::string jsonl = temp_path("telemetry_table.jsonl");
  const std::string prom = temp_path("telemetry_table.prom");
  std::remove(jsonl.c_str());
  std::remove(prom.c_str());
  runtime::Config cfg = observed();
  // Injected rejections make false_positives and faults_injected non-zero.
  cfg.fault_plan.seed = 3;
  cfg.fault_plan.join_rejection_period = 2;
  runtime::Runtime rt(cfg);
  obs::TelemetryConfig tcfg;
  tcfg.jsonl_path = jsonl;
  tcfg.prometheus_path = prom;
  tcfg.cadence_ms = 10'000;
  obs::TelemetrySink sink(rt, tcfg);
  sink.start();
  rt.root([] {
    for (int i = 0; i < 20; ++i) runtime::async([] {}).join();
  });
  sink.stop();

  const core::GateStats gs = rt.gate_stats();
  const obs::Counters cs = rt.recorder()->metrics().counters();
  EXPECT_GT(gs.false_positives, 0u);
  EXPECT_GT(cs.faults_injected, 0u);

  const std::vector<slo::Json> samples = slo::parse_jsonl_file(jsonl);
  ASSERT_FALSE(samples.empty());
  const slo::Json& last = samples.back();
  std::ifstream in(prom);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string prom_text = ss.str();
  std::istringstream words(runtime::snapshot(rt).to_string());
  std::vector<std::string> snapshot_words{
      std::istream_iterator<std::string>(words),
      std::istream_iterator<std::string>()};

  const auto check = [&](const char* block, const char* name,
                         std::uint64_t v) {
    const slo::Json* j = last.at_path(std::string(block) + "." + name);
    ASSERT_NE(j, nullptr) << "JSONL missing " << block << "." << name;
    EXPECT_EQ(j->number(), static_cast<double>(v)) << block << "." << name;
    const std::string series =
        "\ntj_" + std::string(name) + " " + std::to_string(v) + "\n";
    EXPECT_NE(prom_text.find(series), std::string::npos)
        << "Prometheus missing tj_" << name << " " << v;
    const std::string pair = std::string(name) + "=" + std::to_string(v);
    EXPECT_NE(std::find(snapshot_words.begin(), snapshot_words.end(), pair),
              snapshot_words.end())
        << "snapshot missing " << pair;
  };
  core::for_each_field(gs, [&](const char* name, std::uint64_t v,
                               const char*) { check("gate", name, v); });
  obs::for_each_counter(cs, [&](const char* name, std::uint64_t v,
                                const char*) { check("counters", name, v); });
}

// --- SLO evaluator --------------------------------------------------------

TEST(TelemetrySlo, ParsesRuleSpecs) {
  const std::vector<slo::Rule> rules =
      slo::parse_rules("p99_ms<250, shed_rate<=0.6;watchdog_cycles==0");
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules[0].metric, "p99_ms");
  EXPECT_EQ(rules[0].op, slo::Rule::Op::LT);
  EXPECT_EQ(rules[0].bound, 250.0);
  EXPECT_EQ(rules[1].op, slo::Rule::Op::LE);
  EXPECT_EQ(rules[2].op, slo::Rule::Op::EQ);
  EXPECT_THROW(slo::parse_rules("p99_ms<"), std::runtime_error);
  EXPECT_THROW(slo::parse_rules("no_operator"), std::runtime_error);
  EXPECT_THROW(slo::parse_rules("x!3"), std::runtime_error);
}

std::vector<slo::Json> one_sample(const char* json) {
  return {slo::parse_json(json)};
}

constexpr const char* kSample = R"({
  "ladder_level": 1, "watchdog_cycles": 0,
  "gate": {"requests_checked": 100, "requests_shed": 25},
  "hist": {"request_latency_ns": {"p50_ns": 1e6, "p99_ns": 8e6,
                                  "p999_ns": 2e7}}})";

TEST(TelemetrySlo, EvaluatesBuiltinsAgainstFinalSample) {
  const auto samples = one_sample(kSample);
  const slo::Evaluation ev = slo::evaluate(
      samples, slo::parse_rules("p99_ms<10,p999_ms<=20,shed_rate<0.3,"
                                "downgrade_level<=1,watchdog_cycles==0"));
  EXPECT_TRUE(ev.pass) << ev.to_string();
  for (const slo::RuleResult& r : ev.results) EXPECT_TRUE(r.pass);
  EXPECT_DOUBLE_EQ(ev.results[2].actual, 0.25);  // shed_rate
}

TEST(TelemetrySlo, FailsWhenABoundIsViolated) {
  const auto samples = one_sample(kSample);
  const slo::Evaluation ev =
      slo::evaluate(samples, slo::parse_rules("p99_ms<5,watchdog_cycles==0"));
  EXPECT_FALSE(ev.pass);
  EXPECT_FALSE(ev.results[0].pass);
  EXPECT_TRUE(ev.results[1].pass);
}

TEST(TelemetrySlo, MissingMetricFailsDeterministically) {
  const auto samples = one_sample(R"({"gate": {"requests_checked": 1}})");
  const slo::Evaluation ev =
      slo::evaluate(samples, slo::parse_rules("p99_ms<100"));
  EXPECT_FALSE(ev.pass);
  ASSERT_EQ(ev.results.size(), 1u);
  EXPECT_TRUE(ev.results[0].missing);
  // An empty series fails the same way instead of passing vacuously.
  const slo::Evaluation empty =
      slo::evaluate({}, slo::parse_rules("watchdog_cycles==0"));
  EXPECT_FALSE(empty.pass);
}

TEST(TelemetrySlo, DottedPathsAddressArbitraryScalars) {
  const auto samples = one_sample(kSample);
  const slo::Evaluation ev = slo::evaluate(
      samples, slo::parse_rules("gate.requests_shed<=25,"
                                "hist.request_latency_ns.p50_ns<2e6"));
  EXPECT_TRUE(ev.pass) << ev.to_string();
}

// --- Per-tenant critical-path lanes ---------------------------------------

TEST(TelemetryTenantLanes, LanesPartitionEveryAttributionCategory) {
  runtime::Runtime rt(observed());
  rt.root([] {
    {
      runtime::RequestScope a(1, 1);
      auto f = runtime::async([] { runtime::async([] {}).join(); });
      f.join();
    }
    {
      runtime::RequestScope b(2, 2);
      auto f = runtime::async([] {});
      f.join();
    }
  });
  const std::vector<obs::Event> events = rt.recorder()->drain();
  const obs::CriticalPathReport rep = obs::analyze_critical_path(events);
  ASSERT_GE(rep.tenants.size(), 2u) << "expected at least two tenant lanes";

  const auto check_partition =
      [&](obs::PathAttribution obs::CriticalPathReport::TenantLane::*lane,
          const obs::PathAttribution& global, const char* what) {
        std::uint64_t count = 0, on_ns = 0, off_ns = 0;
        for (const auto& t : rep.tenants) {
          count += (t.*lane).count;
          on_ns += (t.*lane).on_path_ns;
          off_ns += (t.*lane).off_path_ns;
        }
        EXPECT_EQ(count, global.count) << what;
        EXPECT_EQ(on_ns, global.on_path_ns) << what;
        EXPECT_EQ(off_ns, global.off_path_ns) << what;
      };
  check_partition(&obs::CriticalPathReport::TenantLane::policy_check,
                  rep.policy_check, "policy_check");
  check_partition(&obs::CriticalPathReport::TenantLane::cycle_scan,
                  rep.cycle_scan, "cycle_scan");
  check_partition(&obs::CriticalPathReport::TenantLane::blocked_join,
                  rep.blocked_join, "blocked_join");
  check_partition(&obs::CriticalPathReport::TenantLane::blocked_await,
                  rep.blocked_await, "blocked_await");
  // Both tenants actually did verifier-visible work.
  std::uint64_t lanes_with_checks = 0;
  for (const auto& t : rep.tenants) {
    if (t.tenant != 0 && t.policy_check.count > 0) ++lanes_with_checks;
  }
  EXPECT_GE(lanes_with_checks, 2u);
}

// --- Chrome export tenant lanes -------------------------------------------

TEST(TelemetryChrome, TenantLanesAndRequestArgsInExport) {
  runtime::Runtime rt(observed());
  rt.root([] {
    runtime::RequestScope span(9, 2);
    runtime::async([] {}).join();
  });
  const std::vector<obs::Event> events = rt.recorder()->drain();
  const std::string json = obs::to_chrome_json(events);
  EXPECT_NE(json.find("\"runtime (unattributed)\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant 1\""), std::string::npos)
      << "tenant index 1 (stored stamp 2) must get its own named lane";
  EXPECT_NE(json.find("\"request\":9"), std::string::npos);
}

}  // namespace
}  // namespace tj
