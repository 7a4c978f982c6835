// service: open-loop Poisson arrivals issued by the root task, the only load
// generator. The request mix is loadgen's: the six paper kernels at the Tiny
// preset plus a cross-owned promise pair, for gold/silver/noisy tenants
// (see tenants() for their budgets). The runtime runs the TJ-GT ladder with
// the governor (no budgets) and the watchdog on, and the recorder on (the
// generator drains it between arrivals, as an exporter would, so nothing
// drops). The first 80% of the window arrives at the nominal rate, the
// rest at an overload rate.
//
// Latency runs from a request's *scheduled* arrival to the request task's
// own completion stamp, so a stalled generator shows up as latency. Each
// request frees its admission slot when its task ends; a request that ends
// after its deadline is timed out, one refused at the front door is shed.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "apps/crypt.hpp"
#include "apps/jacobi.hpp"
#include "apps/nqueens.hpp"
#include "apps/series.hpp"
#include "apps/smith_waterman.hpp"
#include "apps/strassen.hpp"
#include "common.hpp"
#include "runtime/api.hpp"

namespace tjbench {

namespace rtj = tj::runtime;
namespace apps = tj::apps;

namespace {

// Nominal load: well below capacity, enough requests in a window for an
// exact p99 with plenty of samples beyond it.
constexpr double kNominalRate = 200;
// Well past capacity: admission sheds and goodput measures capacity.
constexpr double kOverloadRate = 3000;
// Share of the window spent at the nominal rate; the rest is overload.
constexpr double kNominalShare = 0.8;
constexpr std::uint64_t kDeadlineNs = 400'000'000;
constexpr int kKinds = 7;

struct Expected {
  double series_checksum = 0;
  double jacobi_checksum = 0;
  std::uint64_t nqueens_solutions = 0;
  int sw_best_score = 0;
  double strassen_checksum = 0;
};

Expected compute_expected() {
  Expected e;
  const auto sp = apps::SeriesParams::tiny();
  for (std::size_t k = 0; k < sp.coefficients; ++k) {
    const auto c = apps::series_coefficient(k, sp.integration_steps);
    e.series_checksum += c.a + c.b;
  }
  e.jacobi_checksum = apps::jacobi_reference(apps::JacobiParams::tiny());
  e.nqueens_solutions =
      apps::nqueens_reference(apps::NQueensParams::tiny().board);
  e.sw_best_score =
      apps::smith_waterman_reference(apps::SmithWatermanParams::tiny());
  const auto st = apps::StrassenParams::tiny();
  e.strassen_checksum =
      apps::strassen_sequential(apps::Matrix::random(st.n, st.seed),
                                apps::Matrix::random(st.n, st.seed ^ 0xabcdef),
                                st.cutoff)
          .checksum();
  return e;
}

bool close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(a));
}

/// Two tasks, each owning one promise and awaiting the other's: the gate
/// averts the deadlock on one side, which then fulfills with 100 so the
/// other side completes with 101.
bool promise_pair(std::uint64_t op) {
  auto cross = [op](rtj::Promise<int> mine, rtj::Promise<int> theirs) {
    try {
      int got = 0;
      {
        ScopedSpan s(kAwait, op);
        got = theirs.get();
      }
      ScopedSpan s(kFulfill, op);
      mine.fulfill(got + 1);
      return got + 1;
    } catch (const rtj::TjError&) {
      ScopedSpan s(kFulfill, op);
      mine.fulfill(100);
      return 100;
    }
  };
  rtj::Promise<int> p1, p2;
  {
    ScopedSpan s(kMakePromise, op);
    p1 = rtj::make_promise<int>();
  }
  {
    ScopedSpan s(kMakePromise, op);
    p2 = rtj::make_promise<int>();
  }
  auto t1 = rtj::async_owning(p1, [=] { return cross(p1, p2); });
  auto t2 = rtj::async_owning(p2, [=] { return cross(p2, p1); });
  const int a = t1.get();
  const int b = t2.get();
  return std::min(a, b) == 100 && std::max(a, b) == 101;
}

bool run_kernel(int kind, const Expected& e, std::uint64_t op) {
  switch (kind) {
    case 0:
      return close(apps::run_series_nested(apps::SeriesParams::tiny()).checksum,
                   e.series_checksum);
    case 1:
      return apps::run_crypt_nested(apps::CryptParams::tiny()).roundtrip_ok;
    case 2:
      return close(apps::run_jacobi_nested(apps::JacobiParams::tiny()).checksum,
                   e.jacobi_checksum);
    case 3:
      return apps::run_nqueens_nested(apps::NQueensParams::tiny()).solutions ==
             e.nqueens_solutions;
    case 4:
      return apps::run_smith_waterman_nested(apps::SmithWatermanParams::tiny())
                 .best_score == e.sw_best_score;
    case 5:
      return close(
          apps::run_strassen_nested(apps::StrassenParams::tiny()).checksum,
          e.strassen_checksum);
    default:
      return promise_pair(op);
  }
}

struct Tenant {
  rtj::TenantBudget budget;
  double weight;  ///< share of arrivals
};

/// loadgen's tenants with four times its in-flight budgets: with loadgen's,
/// a few milliseconds of scheduling stall at 200 req/s already shed noisy
/// requests (twice them still shed after a rare longer stall), and the
/// nominal phase must shed nothing. Overload still sheds, noisy first.
std::vector<Tenant> tenants() {
  std::vector<Tenant> t(3);
  t[0].budget.name = "gold";
  t[0].budget.max_in_flight = 32;
  t[0].weight = 0.25;
  t[1].budget.name = "silver";
  t[1].budget.max_in_flight = 24;
  t[1].weight = 0.25;
  t[2].budget.name = "noisy";
  t[2].budget.max_in_flight = 12;
  t[2].budget.shed_cooldown_ms = 10;
  t[2].weight = 0.50;
  return t;
}

rtj::Config service_config() {
  rtj::Config cfg;
  cfg.policy = tj::core::PolicyChoice::TJ_GT;  // the full 3-level ladder
  cfg.workers = kWorkers;
  cfg.obs.enabled = true;
  cfg.governor.enabled = true;
  cfg.governor.poll_ms = 2;
  cfg.governor.spawn_inline_watermark = 256;
  for (const Tenant& t : tenants()) cfg.governor.tenants.push_back(t.budget);
  cfg.watchdog.enabled = true;
  cfg.watchdog.poll_ms = 100;
  cfg.watchdog.stall_ms = 10'000;
  return cfg;
}

struct Outcome {
  bool ok = false;
  std::uint64_t t_body = 0;
  std::uint64_t t_end = 0;
};

struct Request {
  std::uint64_t id = 0;  ///< request-span id in the flight recorder
  std::uint64_t op = 0;  ///< trace op id (0: untraced)
  std::size_t tenant = 0;
  int kind = 0;
  bool nominal = true;
  std::uint64_t arrival_ns = 0;  ///< scheduled arrival
  std::uint64_t admit_ns = 0;    ///< admission attempt
  std::uint64_t spawn_ret_ns = 0;
  rtj::Future<Outcome> fut;
};

/// Admission check and spawn; false when the request was shed.
bool submit(rtj::Runtime& rt, const Expected& e, Request& q) {
  rtj::AdmissionController& adm = *rt.admission();
  rtj::RequestScope scope(q.id, static_cast<std::uint8_t>(q.tenant + 1));
  q.admit_ns = now_ns();
  bool admitted = false;
  {
    ScopedSpan s(kAdmit, q.op);
    admitted = adm.try_admit(q.tenant).admitted;
  }
  if (!admitted) {
    record_span(kOp, q.op, 0, q.admit_ns, now_ns(), true);
    return false;
  }
  {
    ScopedSpan s(kSpawn, q.op);
    q.fut = rtj::async([&adm, &e, kind = q.kind, tenant = q.tenant,
                        op = q.op] {
      Outcome o;
      o.t_body = now_ns();
      try {
        ScopedSpan k(kKernel, op);
        o.ok = run_kernel(kind, e, op);
      } catch (const std::exception&) {
        o.ok = false;
      }
      o.t_end = now_ns();
      adm.release(tenant);
      return o;
    });
  }
  q.spawn_ret_ns = now_ns();
  return true;
}

Outcome harvest(Request& q) {
  const bool ready = q.fut.ready();
  Outcome o;
  {
    ScopedSpan s(ready ? kJoinReady : kJoinWait, q.op);
    o = q.fut.get();
  }
  record_span(kQueueDelay, q.op, q.op, q.spawn_ret_ns,
              std::max(q.spawn_ret_ns, o.t_body), true);
  record_span(kOp, q.op, 0, q.admit_ns, now_ns(), true);
  return o;
}

/// Sequential requests cycling through every kind (gold tenant, never
/// shed); true iff all were correct.
bool closed_requests(rtj::Runtime& rt, const Expected& e, unsigned n,
                     std::uint64_t& next_id) {
  bool ok = true;
  for (unsigned i = 0; i < n; ++i) {
    Request q;
    q.id = next_id++;
    q.op = new_op();
    q.kind = static_cast<int>(i % kKinds);
    ok = submit(rt, e, q) && harvest(q).ok && ok;
  }
  return ok;
}

/// Blocks until every worker has run a task: one task per worker, each held
/// until all have started, so no two share a thread. Call from the root
/// task. False on timeout.
bool rendezvous_workers() {
  std::atomic<unsigned> arrived{0};
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  std::vector<rtj::Future<bool>> tasks;
  for (unsigned i = 0; i < kWorkers; ++i) {
    tasks.push_back(rtj::async([&arrived, deadline] {
      arrived.fetch_add(1);
      while (arrived.load() < kWorkers && Clock::now() < deadline) {
        std::this_thread::yield();
      }
      return arrived.load() >= kWorkers;
    }));
  }
  // Poll instead of joining: a join on a still-queued task would run it
  // inline on this (non-worker) thread.
  for (const auto& t : tasks) {
    while (!t.ready() && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  bool all = true;
  for (const auto& t : tasks) all = t.get() && all;
  return all;
}

/// Rendezvous (every worker runs a task) then a few requests of each kind.
bool warm_up(rtj::Runtime& rt, const Expected& e, std::uint64_t& next_id) {
  const bool all_workers = rendezvous_workers();
  return closed_requests(rt, e, 16 * kKinds, next_id) && all_workers;
}

struct Phase {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< ended within the deadline
  std::uint64_t timed_out = 0;  ///< ended after the deadline
  std::uint64_t shed = 0;
  std::uint64_t wrong = 0;
};

/// One set-up (references, runtime, warm-up) and, when `measure`, the
/// window.
void service_once(const Options& o, bool measure, RunResult& r) {
  const std::uint64_t t_setup0 = now_ns();
  const Expected e = compute_expected();
  rtj::Runtime rt(service_config());
  const std::vector<Tenant> mix = tenants();
  Rng rng(o.seed);
  Phase ph[2];  // [0] nominal, [1] overload
  std::vector<double> lat_us, late_us;
  std::uint64_t admit_attempts = 0;
  std::size_t level_at_nominal_end = 0;
  LayerSnap before, after;
  LockMap locks_before, locks_after;
  std::uint64_t t_start = 0;

  rt.root([&] {
    std::uint64_t next_id = 1;
    const bool warm_ok = warm_up(rt, e, next_id);
    r.checks["warmup_ok"] = r.checks["warmup_ok"] && warm_ok;
    r.setup_s.push_back(static_cast<double>(now_ns() - t_setup0) / 1e9);
    if (!measure) return;
    admit_attempts = next_id - 1;  // every warm-up request was attempted
    before = snap(rt);
    locks_before = lock_snapshot();

    tj::obs::FlightRecorder& rec = *rt.recorder();
    std::vector<tj::obs::Event> drained;
    t_start = now_ns();
    const std::uint64_t t_mid =
        t_start + static_cast<std::uint64_t>(o.seconds * kNominalShare * 1e9);
    const std::uint64_t t_end =
        t_start + static_cast<std::uint64_t>(o.seconds * 1e9);
    lat_us.reserve(static_cast<std::size_t>(kNominalRate * o.seconds));
    late_us.reserve(lat_us.capacity());
    auto interval_ns = [&](std::uint64_t at) {
      const double rate = at < t_mid ? kNominalRate : kOverloadRate;
      return static_cast<std::uint64_t>(-std::log(rng.u01()) / rate * 1e9);
    };
    auto pick_tenant = [&] {
      const double x = rng.u01();
      double acc = 0;
      for (std::size_t i = 0; i < mix.size(); ++i) {
        acc += mix[i].weight;
        if (x <= acc) return i;
      }
      return mix.size() - 1;
    };
    // Every kind once per block of kKinds requests, in a seeded order: the
    // mix is exact, so the latency percentiles do not move with it.
    int kinds[kKinds];
    int next_kind = kKinds;
    auto pick_kind = [&] {
      if (next_kind == kKinds) {
        for (int i = 0; i < kKinds; ++i) kinds[i] = i;
        for (int i = kKinds - 1; i > 0; --i) {
          std::swap(kinds[i], kinds[rng.next() % (i + 1)]);
        }
        next_kind = 0;
      }
      return kinds[next_kind++];
    };
    std::vector<Request> in_flight;
    std::uint64_t next_arrival = t_start + interval_ns(t_start);
    bool nominal_done = false;
    for (;;) {
      const std::uint64_t now = now_ns();
      if (!nominal_done && now >= t_mid) {
        level_at_nominal_end = rt.governor()->level();
        nominal_done = true;
      }
      for (std::size_t i = 0; i < in_flight.size();) {
        Request& q = in_flight[i];
        if (!q.fut.ready()) {
          ++i;
          continue;
        }
        const Outcome out = harvest(q);
        Phase& p = ph[q.nominal ? 0 : 1];
        if (!out.ok) ++p.wrong;
        if (out.t_end <= q.arrival_ns + kDeadlineNs) {
          ++p.completed;
        } else {
          ++p.timed_out;
        }
        if (q.nominal) {
          lat_us.push_back(static_cast<double>(out.t_end - q.arrival_ns) / 1e3);
        }
        in_flight[i] = std::move(in_flight.back());
        in_flight.pop_back();
      }
      while (next_arrival <= now && next_arrival < t_end) {
        Request q;
        q.id = next_id++;
        q.op = new_op();
        q.tenant = pick_tenant();
        q.kind = pick_kind();
        q.nominal = next_arrival < t_mid;
        q.arrival_ns = next_arrival;
        next_arrival += interval_ns(next_arrival);
        Phase& p = ph[q.nominal ? 0 : 1];
        ++p.submitted;
        ++admit_attempts;
        const bool admitted = submit(rt, e, q);
        if (q.nominal) {
          late_us.push_back(
              static_cast<double>(q.admit_ns - q.arrival_ns) / 1e3);
        }
        if (admitted) {
          in_flight.push_back(std::move(q));
        } else {
          ++p.shed;
        }
      }
      if (next_arrival >= t_end && in_flight.empty()) break;
      rec.consume(drained);
      drained.clear();
      const std::uint64_t wake =
          std::min(next_arrival, now_ns() + std::uint64_t{1'000'000});
      std::this_thread::sleep_until(Clock::time_point(
          std::chrono::nanoseconds(static_cast<std::int64_t>(wake))));
    }
    after = snap(rt);
    locks_after = lock_snapshot();
  });
  if (!measure) return;

  const double overload_s = o.seconds * (1 - kNominalShare);
  const double window_s = static_cast<double>(now_ns() - t_start) / 1e9;
  r.attempted = ph[0].submitted + ph[1].submitted;
  r.wrong = ph[0].wrong + ph[1].wrong;
  r.failed = r.wrong + ph[0].shed + ph[0].timed_out;
  r.ops_per_s = static_cast<double>(ph[1].completed) / overload_s;
  r.samples = lat_us.size();
  r.op_p50_us = quantile(lat_us, 0.50);
  r.op_p90_us = quantile(lat_us, 0.90);
  r.op_p99_us = quantile(lat_us, 0.99);

  LayerDelta d;
  d.add(before, after);
  d.add_locks(locks_before, locks_after);
  d.note_peaks(rt);
  fill_layer_counters(r, d, static_cast<double>(r.attempted), window_s);
  auto share = [](std::uint64_t a, std::uint64_t b) {
    return b != 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  r.counters["adm.shed_share"] = share(ph[0].shed, ph[0].submitted);
  r.counters["adm.overload_shed_share"] = share(ph[1].shed, ph[1].submitted);
  r.counters["governor.level"] = static_cast<double>(level_at_nominal_end);
  r.counters["gen.late_p99_us"] = quantile(late_us, 0.99);

  const tj::core::GateStats g = rt.gate_stats();
  std::uint64_t admitted = 0, released = 0, shed = 0;
  for (const auto& t : rt.admission()->snapshot()) {
    admitted += t.admitted;
    released += t.released;
    shed += t.shed;
  }
  bool conserved = true;
  for (const Phase& p : ph) {
    conserved = conserved && p.submitted == p.completed + p.shed + p.timed_out;
  }
  r.checks["conservation"] = conserved;
  r.checks["gate_reconciles"] = gate_reconciles(g);
  r.checks["requests_checked_eq_attempts"] =
      g.requests_checked == admit_attempts &&
      g.requests_admitted == admitted && g.requests_shed == shed &&
      admitted == released;
  r.checks["recorder_no_drops"] = rt.recorder()->events_dropped() == 0;
  r.checks["governor_level0_at_nominal"] = level_at_nominal_end == 0;
  r.checks["watchdog_no_cycles"] = rt.watchdog()->cycles_found() == 0;
}

}  // namespace

void run_service(const Options& o, RunResult& r) {
  r.checks["warmup_ok"] = true;
  for (int k = 0; k < kSetups; ++k) service_once(o, k == kSetups - 1, r);
}

}  // namespace tjbench
