// Long-lived robustness soak: one Runtime per scheduler mode hosts a
// rotating mix of the six evaluation benchmarks plus a promise-dataflow
// stage for a wall-clock budget, under deliberately tight governor budgets
// (so the degradation ladder is exercised down to the WFG-only floor) and,
// optionally, deterministic fault-injection chaos (--fault-seed).
//
// Pass criteria, checked per mode and printed at the end:
//   * zero hangs            — the loop finishes and every stage settles; any
//                             watchdog-confirmed waits-for cycle fails the run
//   * zero lost results     — every app iteration reproduces the sequential
//                             reference value exactly, even fully degraded
//   * monotone degradation  — governor transitions only ever step the ladder
//                             down (GC enablement keeps the level)
//   * exact reconciliation  — every rejection was cleared by the fallback
//                             or averted a real deadlock
//                             (core::GateStats::reconciles)
//   * bounded RSS           — peak resident set under --max-rss-mb
//
//   ./build/tools/soak --seconds=60 --fault-seed=7
//   ./build/tools/soak --seconds=10 --scheduler=cooperative   # CI smoke

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/crypt.hpp"
#include "apps/jacobi.hpp"
#include "apps/nqueens.hpp"
#include "apps/series.hpp"
#include "apps/smith_waterman.hpp"
#include "apps/strassen.hpp"
#include "harness/memory_sampler.hpp"
#include "runtime/api.hpp"
#include "runtime/introspect.hpp"

namespace rtj = tj::runtime;
namespace apps = tj::apps;

namespace {

struct Options {
  unsigned seconds = 30;
  std::uint64_t fault_seed = 0;          // 0 = no chaos
  std::string scheduler = "both";        // blocking | cooperative | both
  std::size_t max_rss_mb = 1024;
  std::size_t max_verifier_kb = 64;      // tight by design
  std::size_t inline_watermark = 256;
  bool expect_floor = true;              // tight budgets must reach WFG-only
  unsigned introspect_ms = 0;            // 0 = dump only on SIGUSR1
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
    } else if (parse_arg(argv[i], "--minutes", v)) {
      o.seconds =
          60 * static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (parse_arg(argv[i], "--fault-seed", v)) {
      o.fault_seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (parse_arg(argv[i], "--scheduler", v)) {
      o.scheduler = v;
    } else if (parse_arg(argv[i], "--max-rss-mb", v)) {
      o.max_rss_mb = std::strtoull(v.c_str(), nullptr, 10);
    } else if (parse_arg(argv[i], "--max-verifier-kb", v)) {
      o.max_verifier_kb = std::strtoull(v.c_str(), nullptr, 10);
    } else if (parse_arg(argv[i], "--inline-watermark", v)) {
      o.inline_watermark = std::strtoull(v.c_str(), nullptr, 10);
    } else if (parse_arg(argv[i], "--introspect-ms", v)) {
      o.introspect_ms =
          static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (parse_arg(argv[i], "--no-floor-check", v) ||
               std::strcmp(argv[i], "--no-floor-check") == 0) {
      o.expect_floor = false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return o;
}

/// Reference values, computed once (sequentially, outside any runtime).
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

struct ModeResult {
  std::uint64_t iterations = 0;
  std::uint64_t lost_results = 0;
  std::uint64_t promise_ok = 0;
  std::uint64_t promise_recovered = 0;
  std::uint64_t watchdog_cycles = 0;
  std::size_t final_level = 0;
  std::size_t ladder_floor = 0;
  std::string history;
  bool monotone = true;
  bool reconciled = false;
  tj::core::GateStats stats;
};

bool close(double a, double b) {
  const double d = a > b ? a - b : b - a;
  const double m = a > 0 ? a : -a;
  return d <= 1e-9 * (m > 1.0 ? m : 1.0);
}

/// Cross-owned promise pair (the canonical OWP deadlock): one side faults
/// and recovers. Returns true iff both futures settled without a hang;
/// `recovered` is set when any stage took a fault-recovery path (expected
/// under chaos, and on the side whose await closes the obligation cycle).
bool promise_stage(bool& recovered) {
  // Atomic: both cross tasks may take the recovery path concurrently.
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
        // Injected fulfill failure: the promise is orphaned at task exit and
        // the sibling's await faults — still no hang.
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
      ++settled;  // a faulted join still settled — only a hang is a failure
    }
  }
  recovered = flag->load(std::memory_order_relaxed);
  return settled == 2;
}

ModeResult run_mode(rtj::SchedulerMode mode, const Options& o,
                    const Expected& exp) {
  ModeResult r;
  rtj::Config cfg;
  cfg.policy = tj::core::PolicyChoice::TJ_GT;  // full 3-level ladder
  cfg.scheduler = mode;
  cfg.workers = 4;
  cfg.obs.enabled = true;
  cfg.governor.enabled = true;
  cfg.governor.poll_ms = 2;
  cfg.governor.max_verifier_bytes = o.max_verifier_kb * 1024;
  cfg.governor.trip_polls = 3;
  cfg.governor.cooldown_polls = 8;
  cfg.governor.spawn_inline_watermark = o.inline_watermark;
  cfg.watchdog.enabled = true;
  cfg.watchdog.poll_ms = 100;
  cfg.watchdog.stall_ms = 10'000;
  if (o.fault_seed != 0) {
    cfg.fault_plan = rtj::FaultPlan::chaos(o.fault_seed);
  }
  std::uint64_t cycles_seen = 0;
  cfg.watchdog.on_stall = [&cycles_seen](const rtj::StallReport& rep) {
    // A stall with an acyclic WFG is slowness (tiny machine, chaos delays);
    // a confirmed cycle is a real deadlock and fails the soak.
    cycles_seen += rep.cycles.size();
    std::fputs(rep.to_string().c_str(), stderr);
  };

  rtj::Runtime rt(cfg);
  // Live introspection: `kill -USR1 <pid>` dumps a runtime snapshot (WFG
  // edges, ladder level, governor state, recent witnesses, blocked waits) to
  // stderr; --introspect-ms additionally dumps on a fixed cadence.
  rtj::IntrospectionHook hook(rt);
  auto last_dump = std::chrono::steady_clock::now();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(o.seconds);
  rt.root([&] {
    std::uint64_t i = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      if (o.introspect_ms != 0 &&
          std::chrono::steady_clock::now() - last_dump >=
              std::chrono::milliseconds(o.introspect_ms)) {
        hook.request();
        last_dump = std::chrono::steady_clock::now();
      }
      // Each iteration is one request span (ids from 1, tenants cycling
      // over three lanes): tasks it spawns inherit the stamp, so the
      // recorded stream slices per-iteration in trace_dump / export_chrome.
      rtj::RequestScope span(i + 1, static_cast<std::uint8_t>(i % 3 + 1));
      bool ok = true;
      switch (i % 7) {
        case 0:
          ok = close(apps::run_series_nested(apps::SeriesParams::tiny())
                         .checksum,
                     exp.series_checksum);
          break;
        case 1:
          ok = apps::run_crypt_nested(apps::CryptParams::tiny()).roundtrip_ok;
          break;
        case 2:
          ok = close(apps::run_jacobi_nested(apps::JacobiParams::tiny())
                         .checksum,
                     exp.jacobi_checksum);
          break;
        case 3:
          ok = apps::run_nqueens_nested(apps::NQueensParams::tiny())
                   .solutions == exp.nqueens_solutions;
          break;
        case 4:
          ok = apps::run_smith_waterman_nested(
                   apps::SmithWatermanParams::tiny())
                   .best_score == exp.sw_best_score;
          break;
        case 5:
          ok = close(apps::run_strassen_nested(apps::StrassenParams::tiny())
                         .checksum,
                     exp.strassen_checksum);
          break;
        case 6: {
          bool recovered = false;
          ok = promise_stage(recovered);
          if (ok && !recovered) ++r.promise_ok;
          if (recovered) ++r.promise_recovered;
          break;
        }
      }
      if (!ok) ++r.lost_results;
      ++i;
    }
    r.iterations = i;
  });

  r.watchdog_cycles = cycles_seen;
  if (const rtj::ResourceGovernor* gov = rt.governor()) {
    r.final_level = gov->level();
    r.history = gov->history_string();
    std::size_t prev_to = 0;
    for (const auto& t : gov->transitions()) {
      if (t.to_level < t.from_level || t.from_level < prev_to) {
        r.monotone = false;  // stepped up, or skipped history — never sound
      }
      prev_to = t.to_level;
    }
  }
  if (auto* lad = dynamic_cast<tj::core::LadderVerifier*>(rt.verifier())) {
    r.ladder_floor = lad->level_count() - 1;
  }
  r.stats = rt.gate_stats();
  r.reconciled = r.stats.reconciles();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  rtj::IntrospectionHook::install_signal_handler();
  std::printf("soak: %us per mode, fault-seed=%llu, verifier budget %zuKB, "
              "inline watermark %zu\n",
              o.seconds, static_cast<unsigned long long>(o.fault_seed),
              o.max_verifier_kb, o.inline_watermark);
  const Expected exp = compute_expected();

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

  tj::harness::MemorySampler rss(100);
  bool pass = true;
  for (const rtj::SchedulerMode mode : modes) {
    const ModeResult r = run_mode(mode, o, exp);
    const bool mode_ok =
        r.lost_results == 0 && r.watchdog_cycles == 0 && r.monotone &&
        r.reconciled && (!o.expect_floor || r.final_level == r.ladder_floor);
    pass = pass && mode_ok;
    std::printf(
        "[%s] %s: %llu iterations, %llu lost results, promise ok/recovered "
        "%llu/%llu, level %zu/%zu, monotone=%d, reconciled=%d, "
        "watchdog cycles %llu\n",
        mode_ok ? "PASS" : "FAIL", std::string(to_string(mode)).c_str(),
        static_cast<unsigned long long>(r.iterations),
        static_cast<unsigned long long>(r.lost_results),
        static_cast<unsigned long long>(r.promise_ok),
        static_cast<unsigned long long>(r.promise_recovered),
        r.final_level, r.ladder_floor, r.monotone ? 1 : 0,
        r.reconciled ? 1 : 0,
        static_cast<unsigned long long>(r.watchdog_cycles));
    if (!r.history.empty()) {
      std::printf("       degradation: %s\n", r.history.c_str());
    }
    if (!r.reconciled) {
      std::printf("       stats: %s\n", tj::core::to_string(r.stats).c_str());
    }
  }

  rss.stop();
  const std::size_t peak_mb = rss.peak_bytes() >> 20;
  const bool rss_ok = peak_mb <= o.max_rss_mb;
  std::printf("[%s] peak RSS %zuMB (budget %zuMB, avg %.0fMB over %llu "
              "samples)\n",
              rss_ok ? "PASS" : "FAIL", peak_mb, o.max_rss_mb,
              rss.average_bytes() / (1024.0 * 1024.0),
              static_cast<unsigned long long>(rss.samples()));
  pass = pass && rss_ok;

  std::printf("soak %s\n", pass ? "PASSED" : "FAILED");
  return pass ? 0 : 1;
}
