// Service-mode load generator: open-loop (Poisson) request traffic against
// one long-lived Runtime per scheduler mode, with per-tenant admission
// control at the front door, per-request deadlines, and optional chaos
// (deterministic fault injection + hostile governor budgets) under live
// traffic.
//
// Open-loop means arrivals are scheduled by the clock, not by completions:
// when the service falls behind, queueing delay shows up in request latency
// instead of silently throttling the generator. Each request is one of the
// six evaluation kernels or a promise-dataflow stage, submitted for one of
// three tenants (the "noisy" tenant gets half the traffic but the smallest
// budget — admission isolation is the point). A request's life:
//
//   arrival --(try_admit)--> admitted --> spawned --> joined by deadline
//        \-> shed --> retried with backoff (up to --retries) --> final shed
//                                          admitted-but-late --> timed out
//
// Every request ends in exactly one disposition, and the tool asserts the
// books balance exactly:
//   submitted == completed + shed + timed_out
//   gate.requests_checked == gate.requests_admitted + gate.requests_shed
//   per tenant: admitted == released (+ 0 in flight at drain)
//   policy reconciliation + monotone ladder downgrades, as in tools/soak.
//
// Latency (measured from the *scheduled* arrival, so it includes queueing
// and retry delay) is reported as p50/p99/p999 per tenant plus SLO
// attainment (fraction of submitted requests completed within deadline).
// --json emits one machine-readable JSON object per run.
//
//   ./build/tools/loadgen --seconds=30 --rate=40 --fault-seed=7 --hostile
//   ./build/tools/loadgen --seconds=5 --scheduler=cooperative --json
//
// `kill -USR1 <pid>` dumps a live runtime snapshot (including per-tenant
// admission state) to stderr, exactly as in tools/soak.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/crypt.hpp"
#include "apps/jacobi.hpp"
#include "apps/nqueens.hpp"
#include "apps/series.hpp"
#include "apps/smith_waterman.hpp"
#include "apps/strassen.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"
#include "runtime/api.hpp"
#include "runtime/backoff.hpp"
#include "runtime/introspect.hpp"

namespace rtj = tj::runtime;
namespace apps = tj::apps;

using Clock = std::chrono::steady_clock;

namespace {

/// SIGINT/SIGTERM request a graceful wind-down: arrivals stop, in-flight
/// requests drain, and the --json report (marked "interrupted": true) is
/// still emitted — an interrupted run must leave an artifact, not a corpse.
std::atomic<bool> g_stop{false};

extern "C" void on_interrupt(int) { g_stop.store(true); }

struct Options {
  unsigned seconds = 10;
  double rate = 30.0;            // mean arrivals per second (all tenants)
  unsigned deadline_ms = 400;    // per-request SLO deadline
  unsigned retries = 3;          // shed-retry budget per request
  std::uint64_t fault_seed = 0;  // 0 = no chaos
  std::uint64_t seed = 42;       // arrival/mix RNG
  std::string scheduler = "both";
  std::string policy = "tj-gt";  // tj-gt | tj-sp | cycle | async
  unsigned threads = 4;          // worker-pool size (recorded in the report)
  bool hostile = false;          // tight governor + shared-pressure budgets
  unsigned introspect_ms = 0;    // 0 = dump only on SIGUSR1
  bool json = false;
  std::string json_file;  // empty = stdout
  // Continuous telemetry + SLO gating (obs/telemetry.hpp, obs/slo.hpp).
  std::string telemetry_file;   // JSONL time series; "" = off
  std::string prom_file;        // Prometheus text dump; "" = off
  unsigned telemetry_ms = 100;  // sampling cadence
  std::string slo_rules;        // e.g. "p99_ms<250,shed_rate<=0.6"
};

bool parse_arg(const char* arg, const char* name, std::string& out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  out = arg + n + 1;
  return true;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (parse_arg(argv[i], "--seconds", v)) {
      o.seconds = static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (parse_arg(argv[i], "--rate", v)) {
      o.rate = std::strtod(v.c_str(), nullptr);
    } else if (parse_arg(argv[i], "--deadline-ms", v)) {
      o.deadline_ms =
          static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (parse_arg(argv[i], "--retries", v)) {
      o.retries = static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (parse_arg(argv[i], "--fault-seed", v)) {
      o.fault_seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (parse_arg(argv[i], "--seed", v)) {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (parse_arg(argv[i], "--scheduler", v)) {
      o.scheduler = v;
    } else if (parse_arg(argv[i], "--policy", v)) {
      o.policy = v;
    } else if (parse_arg(argv[i], "--threads", v)) {
      o.threads = static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (parse_arg(argv[i], "--introspect-ms", v)) {
      o.introspect_ms =
          static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (parse_arg(argv[i], "--telemetry", v)) {
      o.telemetry_file = v;
    } else if (parse_arg(argv[i], "--prom", v)) {
      o.prom_file = v;
    } else if (parse_arg(argv[i], "--telemetry-ms", v)) {
      o.telemetry_ms =
          static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (parse_arg(argv[i], "--slo", v)) {
      o.slo_rules = v;
    } else if (std::strcmp(argv[i], "--hostile") == 0) {
      o.hostile = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      o.json = true;
    } else if (parse_arg(argv[i], "--json", v)) {
      o.json = true;
      o.json_file = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (o.rate <= 0.0 || o.seconds == 0 || o.deadline_ms == 0) {
    std::fprintf(stderr, "loadgen: --rate, --seconds, --deadline-ms must be "
                         "positive\n");
    std::exit(2);
  }
  if (!o.slo_rules.empty() && o.telemetry_file.empty()) {
    std::fprintf(stderr, "loadgen: --slo requires --telemetry=FILE (rules "
                         "evaluate over the JSONL stream)\n");
    std::exit(2);
  }
  if (o.telemetry_ms == 0) o.telemetry_ms = 100;
  if (o.threads == 0) {
    std::fprintf(stderr, "loadgen: --threads must be positive\n");
    std::exit(2);
  }
  return o;
}

tj::core::PolicyChoice parse_policy(const std::string& p) {
  if (p == "tj-gt") return tj::core::PolicyChoice::TJ_GT;
  if (p == "tj-sp") return tj::core::PolicyChoice::TJ_SP;
  if (p == "cycle") return tj::core::PolicyChoice::CycleOnly;
  if (p == "async") return tj::core::PolicyChoice::Async;
  std::fprintf(stderr,
               "loadgen: unknown --policy=%s (tj-gt|tj-sp|cycle|async)\n",
               p.c_str());
  std::exit(2);
}

// ---- deterministic RNG (arrivals + request mix) ----

struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed | 1) {}
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  /// Uniform in (0, 1].
  double u01() {
    return (static_cast<double>(next() >> 11) + 1.0) / 9007199254740993.0;
  }
};

// ---- sequential reference values (as in tools/soak) ----

struct Expected {
  double series_checksum;
  double jacobi_checksum;
  std::uint64_t nqueens_solutions;
  int sw_best_score;
  double strassen_checksum;
};

Expected compute_expected() {
  Expected e{};
  {
    const auto p = apps::SeriesParams::tiny();
    double sum = 0.0;
    for (std::size_t k = 0; k < p.coefficients; ++k) {
      const auto c = apps::series_coefficient(k, p.integration_steps);
      sum += c.a + c.b;
    }
    e.series_checksum = sum;
  }
  e.jacobi_checksum = apps::jacobi_reference(apps::JacobiParams::tiny());
  e.nqueens_solutions =
      apps::nqueens_reference(apps::NQueensParams::tiny().board);
  e.sw_best_score =
      apps::smith_waterman_reference(apps::SmithWatermanParams::tiny());
  {
    const auto p = apps::StrassenParams::tiny();
    const auto a = apps::Matrix::random(p.n, p.seed);
    const auto b = apps::Matrix::random(p.n, p.seed ^ 0xabcdef);
    e.strassen_checksum = apps::strassen_sequential(a, b, p.cutoff).checksum();
  }
  return e;
}

bool close(double a, double b) {
  const double d = a > b ? a - b : b - a;
  const double m = a > 0 ? a : -a;
  return d <= 1e-9 * (m > 1.0 ? m : 1.0);
}

/// Cross-owned promise pair (as in tools/soak): one request type exercises
/// the OWP machinery; under chaos a side may fault and recover.
bool promise_stage(std::atomic<std::uint64_t>& recovered_count) {
  auto flag = std::make_shared<std::atomic<bool>>(false);
  auto cross = [flag](rtj::Promise<int> mine, rtj::Promise<int> theirs) {
    try {
      const int got = theirs.get();
      mine.fulfill(got + 1);
      return got + 1;
    } catch (const rtj::TjError&) {
      flag->store(true, std::memory_order_relaxed);
      try {
        mine.fulfill(100);
      } catch (const rtj::TjError&) {
        // Injected fulfill failure: orphaned at exit, sibling faults — no
        // hang either way.
      }
      return 100;
    }
  };
  rtj::Promise<int> p1 = rtj::make_promise<int>();
  rtj::Promise<int> p2 = rtj::make_promise<int>();
  rtj::Future<int> t1 = rtj::async_owning(p1, [=] { return cross(p1, p2); });
  rtj::Future<int> t2 = rtj::async_owning(p2, [=] { return cross(p2, p1); });
  int settled = 0;
  for (const auto& f : {t1, t2}) {
    try {
      (void)f.get();
      ++settled;
    } catch (const rtj::TjError&) {
      flag->store(true, std::memory_order_relaxed);
      ++settled;  // faulted but settled — only a hang is a failure
    }
  }
  if (flag->load(std::memory_order_relaxed)) {
    recovered_count.fetch_add(1, std::memory_order_relaxed);
  }
  return settled == 2;
}

constexpr int kKinds = 7;

/// Runs one request kernel in the current task context; true iff the result
/// matches the sequential reference.
bool run_kernel(int kind, const Expected& exp,
                std::atomic<std::uint64_t>& promise_recovered) {
  switch (kind) {
    case 0:
      return close(apps::run_series_nested(apps::SeriesParams::tiny()).checksum,
                   exp.series_checksum);
    case 1:
      return apps::run_crypt_nested(apps::CryptParams::tiny()).roundtrip_ok;
    case 2:
      return close(apps::run_jacobi_nested(apps::JacobiParams::tiny()).checksum,
                   exp.jacobi_checksum);
    case 3:
      return apps::run_nqueens_nested(apps::NQueensParams::tiny()).solutions ==
             exp.nqueens_solutions;
    case 4:
      return apps::run_smith_waterman_nested(apps::SmithWatermanParams::tiny())
                 .best_score == exp.sw_best_score;
    case 5:
      return close(
          apps::run_strassen_nested(apps::StrassenParams::tiny()).checksum,
          exp.strassen_checksum);
    default:
      return promise_stage(promise_recovered);
  }
}

// ---- tenants ----

struct TenantSpec {
  rtj::TenantBudget budget;
  double weight;  // share of arrivals
};

/// The fixed three-tenant mix: the noisy tenant gets half the traffic but
/// the smallest in-flight budget, so overload sheds *its* requests while
/// gold/silver keep their latency.
std::vector<TenantSpec> make_tenants(const Options& o) {
  std::vector<TenantSpec> t(3);
  t[0].budget.name = "gold";
  t[0].budget.max_in_flight = 8;
  t[0].weight = 0.25;
  t[1].budget.name = "silver";
  t[1].budget.max_in_flight = 6;
  t[1].weight = 0.25;
  t[2].budget.name = "noisy";
  t[2].budget.max_in_flight = 3;
  t[2].budget.shed_cooldown_ms = 10;
  t[2].weight = 0.50;
  if (o.hostile) {
    // Shared-pressure budgets: the noisy tenant is also shed when the
    // runtime itself is saturated, before the governor must act.
    t[2].budget.max_live_tasks = 192;
    t[2].budget.max_verifier_bytes = 96 * 1024;
  }
  return t;
}

// ---- results ----

struct LatSummary {
  std::uint64_t count = 0;
  double p50_ms = 0, p99_ms = 0, p999_ms = 0, max_ms = 0, mean_ms = 0;
};

LatSummary summarize(const tj::obs::LatencyHistogram& h) {
  LatSummary s;
  const tj::obs::LatencyHistogram::Summary sum = h.summary();
  s.count = sum.count;
  if (s.count == 0) return s;
  s.p50_ms = static_cast<double>(sum.p50_ns) / 1e6;
  s.p99_ms = static_cast<double>(sum.p99_ns) / 1e6;
  s.p999_ms = static_cast<double>(sum.p999_ns) / 1e6;
  s.max_ms = static_cast<double>(sum.max_ns) / 1e6;
  s.mean_ms = static_cast<double>(sum.sum_ns) /
              static_cast<double>(sum.count) / 1e6;
  return s;
}

struct TenantResult {
  std::string name;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;   // settled (faulted-but-settled included)
  std::uint64_t shed = 0;        // final disposition after retries
  std::uint64_t timed_out = 0;   // admitted but deadline expired
  std::uint64_t faulted = 0;     // subset of completed
  std::uint64_t in_deadline = 0; // subset of completed: met the SLO
  std::uint64_t retries = 0;     // backoff retries scheduled
  std::uint64_t shed_attempts = 0;  // try_admit sheds (≥ `shed`)
  LatSummary lat;
  double slo() const {
    return submitted != 0
               ? static_cast<double>(in_deadline) /
                     static_cast<double>(submitted)
               : 1.0;
  }
};

struct ModeResult {
  std::string scheduler;
  double wall_s = 0;
  std::uint64_t submitted = 0, completed = 0, shed = 0, timed_out = 0;
  std::uint64_t faulted = 0, in_deadline = 0, retries = 0, lost = 0;
  std::uint64_t admit_attempts = 0;  // try_admit calls (arrivals + retries)
  std::uint64_t promise_recovered = 0;
  LatSummary lat;
  std::vector<TenantResult> tenants;
  bool conservation = false;
  bool reconciled = false;            // policy-rejection invariant (soak's)
  bool admission_reconciled = false;  // checked == admitted + shed, exactly
  bool admission_balanced = false;    // per tenant: admitted == released
  bool monotone = true;
  bool interrupted = false;  // SIGINT/SIGTERM wound this mode down early
  std::uint64_t watchdog_cycles = 0;
  std::size_t final_level = 0, ladder_floor = 0;
  std::string history;
  tj::core::GateStats stats;
  // Telemetry stream health (trivially true when --telemetry is off): every
  // gate counter in the final JSONL sample must equal the end-of-run
  // gate_stats() exactly — the time series ends on the truth.
  bool telemetry_reconciled = true;
  std::uint64_t telemetry_samples = 0;
  // Contention-registry health (trivially true when --telemetry is off):
  // every lock site in the final sample must balance exactly —
  // acquisitions == contended + uncontended, and the wait histogram never
  // counted more events than the contended counter admits. A profiled
  // mutex that drops or double-counts an acquisition fails the run.
  bool contention_reconciled = true;
  std::uint64_t contention_sites = 0;

  bool pass() const {
    return conservation && reconciled && admission_reconciled &&
           admission_balanced && monotone && watchdog_cycles == 0 &&
           lost == 0 && telemetry_reconciled && contention_reconciled;
  }
};

// ---- the dispatcher ----

/// One in-flight or shed-retrying request.
struct Request {
  std::uint64_t id = 0;  ///< request-span id (stamped into obs events)
  std::size_t tenant = 0;
  int kind = 0;
  Clock::time_point arrival{};   // scheduled arrival: the latency epoch
  Clock::time_point deadline{};  // arrival + deadline_ms
  Clock::time_point retry_at{};  // for the shed-retry queue
  unsigned retries_left = 0;
  rtj::Backoff backoff;
  rtj::Future<bool> fut;  // valid once admitted and spawned
};

void run_mode(rtj::SchedulerMode mode, const Options& o, const Expected& exp,
              const std::vector<TenantSpec>& tenants, ModeResult& r) {
  r.scheduler = std::string(to_string(mode));
  r.tenants.assign(tenants.size(), TenantResult{});
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    r.tenants[i].name = tenants[i].budget.name;
  }

  rtj::Config cfg;
  cfg.policy = parse_policy(o.policy);  // tj-gt = the full 3-level ladder
  cfg.scheduler = mode;
  cfg.workers = o.threads;
  cfg.obs.enabled = true;
  cfg.governor.enabled = true;
  cfg.governor.poll_ms = 2;
  cfg.governor.spawn_inline_watermark = 256;
  if (o.hostile) {
    cfg.governor.max_verifier_bytes = 64 * 1024;
    cfg.governor.spawn_inline_watermark = 128;
  }
  cfg.governor.trip_polls = 3;
  cfg.governor.cooldown_polls = 8;
  for (const TenantSpec& t : tenants) {
    cfg.governor.tenants.push_back(t.budget);
  }
  cfg.watchdog.enabled = true;
  cfg.watchdog.poll_ms = 100;
  cfg.watchdog.stall_ms = 10'000;
  if (o.fault_seed != 0) {
    cfg.fault_plan = rtj::FaultPlan::chaos(o.fault_seed);
  }
  std::uint64_t cycles_seen = 0;
  cfg.watchdog.on_stall = [&cycles_seen](const rtj::StallReport& rep) {
    cycles_seen += rep.cycles.size();
    std::fputs(rep.to_string().c_str(), stderr);
  };

  rtj::Runtime rt(cfg);
  rtj::AdmissionController& adm = *rt.admission();
  rtj::IntrospectionHook hook(rt);
  auto last_dump = Clock::now();

  // Per-tenant + overall latency histograms (loadgen-owned; the runtime's
  // metrics registry keeps measuring joins underneath, independently).
  std::vector<tj::obs::LatencyHistogram> lat(tenants.size());
  tj::obs::LatencyHistogram lat_all;
  std::atomic<std::uint64_t> promise_recovered{0};

  // Continuous telemetry: the sink samples RuntimeSnapshot + histogram
  // summaries on its own thread while traffic runs; the request-latency
  // histograms are registered so the stream carries the user-visible tail,
  // not just verifier internals.
  tj::obs::TelemetryConfig tcfg;
  tcfg.jsonl_path = o.telemetry_file;
  tcfg.prometheus_path = o.prom_file;
  tcfg.cadence_ms = o.telemetry_ms;
  tcfg.scheduler_label = r.scheduler;
  tj::obs::TelemetrySink sink(rt, tcfg);
  sink.register_histogram("request_latency_ns", &lat_all);
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    sink.register_histogram("request_latency_" + tenants[i].budget.name +
                                "_ns",
                            &lat[i]);
  }
  sink.start();

  Rng rng(o.seed ^ (mode == rtj::SchedulerMode::Cooperative ? 0xc0 : 0xb0));
  const auto start = Clock::now();
  const auto end = start + std::chrono::seconds(o.seconds);
  const auto deadline_len = std::chrono::milliseconds(o.deadline_ms);

  auto next_interval = [&] {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(rng.u01()) / o.rate));
  };
  auto pick_tenant = [&] {
    double x = rng.u01(), acc = 0.0;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      acc += tenants[i].weight;
      if (x <= acc) return i;
    }
    return tenants.size() - 1;
  };

  rt.root([&] {
    std::uint64_t next_request_id = 1;  // 0 means "no request" in obs events
    std::vector<Request> in_flight;   // admission order: front = oldest
    std::vector<Request> retrying;    // shed, waiting out their backoff
    std::vector<rtj::Future<bool>> drain;  // timed out; joined at the end
    auto next_arrival = start + next_interval();

    auto spawn_request = [&](Request& q) {
      const int kind = q.kind;
      q.fut = rtj::async([kind, &exp, &promise_recovered] {
        return run_kernel(kind, exp, promise_recovered);
      });
    };
    // Settles a ready request: harvest the result, release the slot.
    auto finish = [&](Request& q) {
      TenantResult& t = r.tenants[q.tenant];
      bool ok = false;
      try {
        ok = q.fut.get();
      } catch (const std::exception&) {
        ++t.faulted;
        ok = true;  // faulted-but-settled: accounted, not lost
      }
      const auto now = Clock::now();
      ++t.completed;
      if (now <= q.deadline) ++t.in_deadline;
      if (!ok) ++r.lost;
      const auto ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - q.arrival)
              .count());
      lat[q.tenant].record(ns);
      lat_all.record(ns);
      adm.release(q.tenant);
    };
    // Admission attempt; on admit the request is spawned and tracked, on
    // shed it is scheduled for a backoff retry (or finally shed). The
    // RequestScope brackets the front door: the AdmissionShed event and the
    // whole spawned task tree (transitively) carry this request's id and
    // tenant lane in every flight-recorder event.
    auto attempt = [&](Request&& q) {
      rtj::RequestScope span(q.id, static_cast<std::uint8_t>(q.tenant + 1));
      ++r.admit_attempts;
      const rtj::AdmissionController::Verdict v = adm.try_admit(q.tenant);
      if (v.admitted) {
        spawn_request(q);
        in_flight.push_back(std::move(q));
        return;
      }
      TenantResult& t = r.tenants[q.tenant];
      ++t.shed_attempts;
      if (q.retries_left == 0) {
        ++t.shed;
        return;
      }
      --q.retries_left;
      const auto retry_at = Clock::now() + q.backoff.next();
      if (retry_at > q.deadline) {
        ++t.shed;  // a retry that can't beat the deadline is a final shed
        return;
      }
      ++t.retries;
      q.retry_at = retry_at;
      retrying.push_back(std::move(q));
    };

    for (;;) {
      auto now = Clock::now();
      if (!r.interrupted && g_stop.load(std::memory_order_relaxed)) {
        // Graceful wind-down: no new arrivals, and the backoff queue takes
        // its terminal disposition NOW (final shed) so conservation stays
        // exact; in-flight requests drain through the normal reap path.
        r.interrupted = true;
        for (const Request& q : retrying) ++r.tenants[q.tenant].shed;
        retrying.clear();
      }
      if (o.introspect_ms != 0 &&
          now - last_dump >= std::chrono::milliseconds(o.introspect_ms)) {
        hook.request();
        last_dump = now;
      }

      // 1. Reap ready requests BEFORE expiring deadlines: a request that
      //    finished in time but is observed late still counts completed.
      for (auto it = in_flight.begin(); it != in_flight.end();) {
        if (it->fut.ready()) {
          finish(*it);
          it = in_flight.erase(it);
        } else {
          ++it;
        }
      }
      // 2. Expire deadlines: withdraw (the task keeps running; its future
      //    moves to the drain list so it is still joined — timed-out work
      //    is never lost, just no longer awaited).
      now = Clock::now();
      for (auto it = in_flight.begin(); it != in_flight.end();) {
        if (now >= it->deadline) {
          ++r.tenants[it->tenant].timed_out;
          adm.release(it->tenant);
          drain.push_back(std::move(it->fut));
          it = in_flight.erase(it);
        } else {
          ++it;
        }
      }
      // 3. Due shed-retries.
      for (auto it = retrying.begin(); it != retrying.end();) {
        if (now >= it->retry_at) {
          Request q = std::move(*it);
          it = retrying.erase(it);
          attempt(std::move(q));
        } else {
          ++it;
        }
      }
      // 4. Open-loop arrivals: every interval the clock has passed yields a
      //    request, whether or not the service kept up.
      while (!r.interrupted && next_arrival <= now && next_arrival < end) {
        Request q;
        q.id = next_request_id++;
        q.tenant = pick_tenant();
        q.kind = static_cast<int>(rng.next() % kKinds);
        q.arrival = next_arrival;
        q.deadline = next_arrival + deadline_len;
        q.retries_left = o.retries;
        q.backoff = rtj::Backoff(std::chrono::milliseconds(2),
                                 std::chrono::milliseconds(50),
                                 rng.next());
        ++r.tenants[q.tenant].submitted;
        next_arrival += next_interval();
        attempt(std::move(q));
      }

      if ((next_arrival >= end || r.interrupted) && in_flight.empty() &&
          retrying.empty()) {
        break;
      }

      // 5. Sleep until the next event — by joining the oldest in-flight
      //    request with exactly that budget (the deadline-aware join path:
      //    on Timeout the wait edge is withdrawn and we go around again).
      now = Clock::now();
      auto wake = (next_arrival < end && !r.interrupted)
                      ? next_arrival
                      : now + std::chrono::milliseconds(50);
      for (const Request& q : in_flight) wake = std::min(wake, q.deadline);
      for (const Request& q : retrying) wake = std::min(wake, q.retry_at);
      if (wake <= now) continue;
      const auto dt = wake - now;
      if (!in_flight.empty()) {
        try {
          if (in_flight.front().fut.join_for(dt) == rtj::JoinOutcome::Ready) {
            finish(in_flight.front());
            in_flight.erase(in_flight.begin());
          }
        } catch (const rtj::TjError&) {
          // A faulted join settles the request; harvest it on the next pass
          // via ready()/finish() (the task is done once join faults land).
        }
      } else {
        std::this_thread::sleep_until(wake);
      }
    }

    // Drain withdrawn (timed-out) requests: they were released and counted,
    // but their tasks still run to completion — join them so the runtime
    // quiesces cleanly and nothing is abandoned mid-chaos.
    for (const auto& f : drain) {
      try {
        f.join();
      } catch (const std::exception&) {
        // Disposition was already recorded at timeout; a faulted straggler
        // changes nothing.
      }
    }
  });

  // Stop telemetry FIRST: the workload has quiesced, so the sink's final
  // synchronous sample and the gate_stats() read below see the same frozen
  // counters — the reconciliation check compares them exactly.
  sink.stop();

  r.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  r.watchdog_cycles = cycles_seen;
  r.promise_recovered = promise_recovered.load(std::memory_order_relaxed);

  // Roll up per-tenant counters and latency.
  for (std::size_t i = 0; i < r.tenants.size(); ++i) {
    TenantResult& t = r.tenants[i];
    t.lat = summarize(lat[i]);
    r.submitted += t.submitted;
    r.completed += t.completed;
    r.shed += t.shed;
    r.timed_out += t.timed_out;
    r.faulted += t.faulted;
    r.in_deadline += t.in_deadline;
    r.retries += t.retries;
  }
  r.lat = summarize(lat_all);
  r.conservation = r.submitted == r.completed + r.shed + r.timed_out;

  // Admission reconciliation: the gate's front-door stats must agree both
  // internally (checked == admitted + shed) and with the controller's and
  // the generator's own books — exactly, even under chaos.
  r.stats = rt.gate_stats();
  std::uint64_t adm_admitted = 0, adm_shed = 0;
  bool balanced = true;
  for (const auto& s : rt.admission()->snapshot()) {
    balanced = balanced && s.in_flight == 0 && s.admitted == s.released;
    adm_admitted += s.admitted;
    adm_shed += s.shed;
  }
  std::uint64_t gen_shed_attempts = 0;
  for (const TenantResult& t : r.tenants) gen_shed_attempts += t.shed_attempts;
  r.admission_balanced = balanced;
  r.admission_reconciled =
      r.stats.requests_checked ==
          r.stats.requests_admitted + r.stats.requests_shed &&
      r.stats.requests_checked == r.admit_attempts &&
      r.stats.requests_admitted == adm_admitted &&
      r.stats.requests_shed == adm_shed && adm_shed == gen_shed_attempts;

  // Policy reconciliation + monotone ladder, as in tools/soak.
  r.reconciled = r.stats.reconciles();
  if (const rtj::ResourceGovernor* gov = rt.governor()) {
    r.final_level = gov->level();
    r.history = gov->history_string();
    std::size_t prev_to = 0;
    for (const auto& t : gov->transitions()) {
      if (t.to_level < t.from_level || t.from_level < prev_to) {
        r.monotone = false;
      }
      prev_to = t.to_level;
    }
  }
  if (auto* lad = dynamic_cast<tj::core::LadderVerifier*>(rt.verifier())) {
    r.ladder_floor = lad->level_count() - 1;
  }

  // Telemetry reconciliation: re-read this mode's samples from the JSONL
  // file and require the final one to agree with gate_stats() counter for
  // counter. Going through the file (not the sink's memory) also proves the
  // stream round-trips: schema-valid JSON, correct scheduler label, nothing
  // truncated.
  if (!o.telemetry_file.empty()) {
    r.telemetry_reconciled = false;
    try {
      namespace slo = tj::obs::slo;
      std::vector<slo::Json> mine;
      for (slo::Json& s : slo::parse_jsonl_file(o.telemetry_file)) {
        const slo::Json* sched = s.find("scheduler");
        if (sched != nullptr && sched->str() == r.scheduler) {
          mine.push_back(std::move(s));
        }
      }
      r.telemetry_samples = mine.size();
      if (!mine.empty()) {
        const slo::Json& last = mine.back();
        const auto eq = [&last](const std::string& path, std::uint64_t want) {
          const slo::Json* v = last.at_path(path);
          return v != nullptr && v->is_number() &&
                 v->number() == static_cast<double>(want);
        };
        r.telemetry_reconciled =
            eq("hist.request_latency_ns.count", lat_all.count());
        tj::core::for_each_field(
            r.stats, [&](const char* name, std::uint64_t v, const char*) {
              r.telemetry_reconciled = r.telemetry_reconciled &&
                                       eq(std::string("gate.") + name, v);
            });

        // Contention reconciliation over the final (post-quiesce) sample:
        // the sink takes it synchronously in stop() after the workload has
        // drained, so every site must balance exactly — not approximately.
        const slo::Json* sites = last.at_path("contention.sites");
        if (sites != nullptr && sites->is_array()) {
          r.contention_sites = sites->array().size();
          for (const slo::Json& site : sites->array()) {
            const auto num = [&site](const char* key) -> double {
              const slo::Json* v = site.find(key);
              return v != nullptr && v->is_number() ? v->number() : -1.0;
            };
            const double acq = num("acquisitions");
            const double con = num("contended");
            const double unc = num("uncontended");
            const slo::Json* wc = site.at_path("wait.count");
            const double waits =
                wc != nullptr && wc->is_number() ? wc->number() : -1.0;
            const bool ok = acq >= 0 && con >= 0 && unc >= 0 && waits >= 0 &&
                            acq == con + unc && waits <= con;
            if (!ok) {
              const slo::Json* name = site.find("site");
              std::fprintf(stderr,
                           "loadgen: lock site %s does not reconcile: "
                           "acquisitions=%.0f contended=%.0f "
                           "uncontended=%.0f wait.count=%.0f\n",
                           name != nullptr ? name->str().c_str() : "?", acq,
                           con, unc, waits);
              r.contention_reconciled = false;
            }
          }
        }
      }
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "loadgen: telemetry stream unusable: %s\n",
                   ex.what());
    }
  }
}

// ---- reporting ----

void print_mode(std::FILE* out, const ModeResult& r) {
  std::fprintf(
      out,
      "[%s] %s%s: %llu submitted = %llu completed + %llu shed + %llu "
      "timed_out (%llu faulted, %llu retries, %llu lost) in %.1fs "
      "(%.1f done/s)\n",
      r.pass() ? "PASS" : "FAIL", r.scheduler.c_str(),
      r.interrupted ? " (INTERRUPTED)" : "",
      static_cast<unsigned long long>(r.submitted),
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.timed_out),
      static_cast<unsigned long long>(r.faulted),
      static_cast<unsigned long long>(r.retries),
      static_cast<unsigned long long>(r.lost), r.wall_s,
      r.wall_s > 0 ? static_cast<double>(r.completed) / r.wall_s : 0.0);
  std::fprintf(out,
               "       checks: conservation=%d reconciled=%d admission=%d "
               "balanced=%d monotone=%d telemetry=%d contention=%d "
               "cycles=%llu level=%zu/%zu\n",
               r.conservation ? 1 : 0, r.reconciled ? 1 : 0,
               r.admission_reconciled ? 1 : 0, r.admission_balanced ? 1 : 0,
               r.monotone ? 1 : 0, r.telemetry_reconciled ? 1 : 0,
               r.contention_reconciled ? 1 : 0,
               static_cast<unsigned long long>(r.watchdog_cycles),
               r.final_level, r.ladder_floor);
  if (r.telemetry_samples != 0) {
    std::fprintf(out,
                 "       telemetry: %llu samples, final reconciled=%d, "
                 "%llu lock sites reconciled=%d\n",
                 static_cast<unsigned long long>(r.telemetry_samples),
                 r.telemetry_reconciled ? 1 : 0,
                 static_cast<unsigned long long>(r.contention_sites),
                 r.contention_reconciled ? 1 : 0);
  }
  for (const TenantResult& t : r.tenants) {
    std::fprintf(out,
                 "       %-6s: slo=%.3f submitted=%llu completed=%llu "
                 "shed=%llu timed_out=%llu p50=%.1fms p99=%.1fms "
                 "p999=%.1fms\n",
                 t.name.c_str(), t.slo(),
                 static_cast<unsigned long long>(t.submitted),
                 static_cast<unsigned long long>(t.completed),
                 static_cast<unsigned long long>(t.shed),
                 static_cast<unsigned long long>(t.timed_out), t.lat.p50_ms,
                 t.lat.p99_ms, t.lat.p999_ms);
  }
  if (!r.history.empty()) {
    std::fprintf(out, "       degradation: %s\n", r.history.c_str());
  }
}

void json_lat(std::ostringstream& os, const LatSummary& l) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "{\"count\": %llu, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                "\"p999_ms\": %.3f, \"max_ms\": %.3f, \"mean_ms\": %.3f}",
                static_cast<unsigned long long>(l.count), l.p50_ms, l.p99_ms,
                l.p999_ms, l.max_ms, l.mean_ms);
  os << buf;
}

std::string to_json(const Options& o, const std::vector<ModeResult>& modes,
                    bool pass) {
  std::ostringstream os;
  bool interrupted = false;
  for (const ModeResult& r : modes) interrupted = interrupted || r.interrupted;
  os << "{\n  \"tool\": \"loadgen\",\n";
  os << "  \"seconds\": " << o.seconds << ",\n";
  os << "  \"rate_hz\": " << o.rate << ",\n";
  os << "  \"deadline_ms\": " << o.deadline_ms << ",\n";
  os << "  \"fault_seed\": " << o.fault_seed << ",\n";
  os << "  \"policy\": \"" << o.policy << "\",\n";
  os << "  \"threads\": " << o.threads << ",\n";
  os << "  \"hostile\": " << (o.hostile ? "true" : "false") << ",\n";
  os << "  \"interrupted\": " << (interrupted ? "true" : "false") << ",\n";
  os << "  \"modes\": [\n";
  for (std::size_t m = 0; m < modes.size(); ++m) {
    const ModeResult& r = modes[m];
    os << "    {\n";
    os << "      \"scheduler\": \"" << r.scheduler << "\",\n";
    os << "      \"interrupted\": " << (r.interrupted ? "true" : "false")
       << ",\n";
    os << "      \"wall_seconds\": " << r.wall_s << ",\n";
    os << "      \"throughput_rps\": "
       << (r.wall_s > 0 ? static_cast<double>(r.completed) / r.wall_s : 0.0)
       << ",\n";
    os << "      \"requests\": {\"submitted\": " << r.submitted
       << ", \"completed\": " << r.completed << ", \"shed\": " << r.shed
       << ", \"timed_out\": " << r.timed_out << ", \"faulted\": " << r.faulted
       << ", \"retries\": " << r.retries << ", \"lost\": " << r.lost
       << "},\n";
    os << "      \"slo_attainment\": "
       << (r.submitted != 0
               ? static_cast<double>(r.in_deadline) /
                     static_cast<double>(r.submitted)
               : 1.0)
       << ",\n";
    os << "      \"latency_ms\": ";
    json_lat(os, r.lat);
    os << ",\n";
    os << "      \"checks\": {\"conservation_exact\": "
       << (r.conservation ? "true" : "false")
       << ", \"gate_reconciled\": " << (r.reconciled ? "true" : "false")
       << ", \"admission_reconciled\": "
       << (r.admission_reconciled ? "true" : "false")
       << ", \"admission_balanced\": "
       << (r.admission_balanced ? "true" : "false")
       << ", \"monotone_downgrades\": " << (r.monotone ? "true" : "false")
       << ", \"telemetry_reconciled\": "
       << (r.telemetry_reconciled ? "true" : "false")
       << ", \"contention_reconciled\": "
       << (r.contention_reconciled ? "true" : "false")
       << ", \"watchdog_cycles\": " << r.watchdog_cycles << "},\n";
    os << "      \"telemetry_samples\": " << r.telemetry_samples << ",\n";
    os << "      \"contention_sites\": " << r.contention_sites << ",\n";
    os << "      \"ladder\": {\"final_level\": " << r.final_level
       << ", \"floor\": " << r.ladder_floor << "},\n";
    os << "      \"admission\": {\"checked\": " << r.stats.requests_checked
       << ", \"admitted\": " << r.stats.requests_admitted
       << ", \"shed\": " << r.stats.requests_shed << "},\n";
    os << "      \"tenants\": [\n";
    for (std::size_t i = 0; i < r.tenants.size(); ++i) {
      const TenantResult& t = r.tenants[i];
      os << "        {\"name\": \"" << t.name
         << "\", \"submitted\": " << t.submitted
         << ", \"completed\": " << t.completed << ", \"shed\": " << t.shed
         << ", \"timed_out\": " << t.timed_out
         << ", \"faulted\": " << t.faulted << ", \"retries\": " << t.retries
         << ", \"slo_attainment\": " << t.slo() << ", \"latency_ms\": ";
      json_lat(os, t.lat);
      os << "}" << (i + 1 < r.tenants.size() ? "," : "") << "\n";
    }
    os << "      ]\n";
    os << "    }" << (m + 1 < modes.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"pass\": " << (pass ? "true" : "false") << "\n";
  os << "}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  rtj::IntrospectionHook::install_signal_handler();
  std::signal(SIGINT, on_interrupt);
  std::signal(SIGTERM, on_interrupt);
  // Human-readable output goes to stderr when the JSON report owns stdout.
  std::FILE* out = (o.json && o.json_file.empty()) ? stderr : stdout;
  std::fprintf(out,
               "loadgen: %us per mode @ %.0f req/s, deadline %ums, "
               "policy=%s, fault-seed=%llu%s\n",
               o.seconds, o.rate, o.deadline_ms, o.policy.c_str(),
               static_cast<unsigned long long>(o.fault_seed),
               o.hostile ? ", hostile budgets" : "");
  const Expected exp = compute_expected();
  const std::vector<TenantSpec> tenants = make_tenants(o);

  // One telemetry stream per invocation: truncate up front, then each
  // mode's sink appends its samples (distinguished by the scheduler field).
  if (!o.telemetry_file.empty()) {
    std::ofstream trunc(o.telemetry_file, std::ios::trunc);
    if (!trunc) {
      std::fprintf(stderr, "loadgen: cannot write --telemetry=%s\n",
                   o.telemetry_file.c_str());
      return 2;
    }
  }

  std::vector<rtj::SchedulerMode> modes;
  if (o.scheduler == "both" || o.scheduler == "blocking") {
    modes.push_back(rtj::SchedulerMode::Blocking);
  }
  if (o.scheduler == "both" || o.scheduler == "cooperative") {
    modes.push_back(rtj::SchedulerMode::Cooperative);
  }
  if (modes.empty()) {
    std::fprintf(stderr, "unknown --scheduler=%s\n", o.scheduler.c_str());
    return 2;
  }

  std::vector<ModeResult> results;
  results.reserve(modes.size());
  bool pass = true;
  for (std::size_t i = 0; i < modes.size(); ++i) {
    results.emplace_back();
    run_mode(modes[i], o, exp, tenants, results.back());
    print_mode(out, results.back());
    pass = pass && results.back().pass();
    // An interrupt drains the current mode but skips the rest: the report
    // below covers exactly the modes that ran.
    if (g_stop.load(std::memory_order_relaxed)) break;
  }

  // Declarative SLO gate: every mode's final sample must satisfy every
  // rule; a violated rule (or a metric the stream does not carry) fails
  // the run with the same nonzero exit CI already watches.
  if (!o.slo_rules.empty()) {
    try {
      namespace slo = tj::obs::slo;
      const std::vector<slo::Rule> rules = slo::parse_rules(o.slo_rules);
      std::vector<slo::Json> samples =
          slo::parse_jsonl_file(o.telemetry_file);
      for (const ModeResult& r : results) {
        std::vector<slo::Json> mine;
        for (const slo::Json& s : samples) {
          const slo::Json* sched = s.find("scheduler");
          if (sched != nullptr && sched->str() == r.scheduler) {
            mine.push_back(s);
          }
        }
        const slo::Evaluation ev = slo::evaluate(mine, rules);
        std::fprintf(out, "[%s] slo %s:\n%s",
                     ev.pass ? "PASS" : "FAIL", r.scheduler.c_str(),
                     ev.to_string().c_str());
        pass = pass && ev.pass;
      }
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "loadgen: slo evaluation failed: %s\n", ex.what());
      pass = false;
    }
  }

  if (o.json) {
    const std::string doc = to_json(o, results, pass);
    if (o.json_file.empty()) {
      std::fputs(doc.c_str(), stdout);
    } else {
      std::ofstream f(o.json_file);
      f << doc;
      if (!f) {
        std::fprintf(stderr, "loadgen: cannot write %s\n",
                     o.json_file.c_str());
        return 2;
      }
    }
  }
  std::fprintf(out, "loadgen %s\n", pass ? "PASSED" : "FAILED");
  return pass ? 0 : 1;
}
