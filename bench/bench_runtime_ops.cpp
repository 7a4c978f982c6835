// Runtime-primitive microbenchmarks: the per-operation cost the verifiers
// add to async (fork) and to Future::get on an already-completed task (the
// non-blocking join fast path). This is the micro-level view behind Table
// 2's whole-program overheads.

#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/api.hpp"

namespace {

using tj::core::PolicyChoice;
using tj::runtime::Config;
using tj::runtime::Future;
using tj::runtime::Runtime;

constexpr PolicyChoice kPolicies[] = {
    PolicyChoice::None,  PolicyChoice::TJ_GT, PolicyChoice::TJ_JP,
    PolicyChoice::TJ_SP, PolicyChoice::KJ_VC, PolicyChoice::KJ_SS,
    PolicyChoice::CycleOnly,
};

void bench_spawn(benchmark::State& state, PolicyChoice p) {
  Runtime rt({.policy = p, .workers = 2});
  rt.root([&state] {
    // Spawn trivial tasks; each iteration measures async() itself. The
    // tasks drain concurrently; root() quiesces afterwards.
    for (auto _ : state) {
      auto f = tj::runtime::async([] {});
      benchmark::DoNotOptimize(f);
    }
  });
  state.SetLabel(std::string(tj::core::to_string(p)));
}

void bench_completed_join(benchmark::State& state, PolicyChoice p) {
  Runtime rt({.policy = p, .workers = 2});
  rt.root([&state] {
    auto f = tj::runtime::async([] { return 1; });
    f.join();  // ensure completion: joins below never block
    for (auto _ : state) {
      benchmark::DoNotOptimize(f.get());
    }
  });
  state.SetLabel(std::string(tj::core::to_string(p)));
}

void bench_sibling_join_chain(benchmark::State& state, PolicyChoice p) {
  // Ten thousand siblings joined in fork order per iteration: the Series
  // pattern, as one number.
  const std::size_t kTasks = 10'000;
  Runtime rt({.policy = p});
  rt.root([&state, kTasks] {
    for (auto _ : state) {
      std::vector<Future<int>> fs;
      fs.reserve(kTasks);
      for (std::size_t i = 0; i < kTasks; ++i) {
        fs.push_back(tj::runtime::async([] { return 1; }));
      }
      int acc = 0;
      for (const auto& f : fs) acc += f.get();
      benchmark::DoNotOptimize(acc);
    }
  });
  state.SetLabel(std::string(tj::core::to_string(p)));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTasks));
}

// Watchdog-idle overhead: same fork-all-join-all workload with the stall
// detector enabled but never firing (stall_ms far above any real wait). The
// per-join cost is one mutex-guarded map insert/erase on the *blocking*
// path only; completed-join fast paths pay nothing. Compare against
// RuntimeOps/ForkAllJoinAll10k/tj-sp — the delta should be within noise.
void bench_join_chain_watchdog_idle(benchmark::State& state) {
  const std::size_t kTasks = 10'000;
  Config cfg;
  cfg.policy = PolicyChoice::TJ_SP;
  cfg.watchdog.enabled = true;
  cfg.watchdog.poll_ms = 50;
  cfg.watchdog.stall_ms = 60'000;  // idle: nothing stalls this long
  Runtime rt(cfg);
  rt.root([&state, kTasks] {
    for (auto _ : state) {
      std::vector<Future<int>> fs;
      fs.reserve(kTasks);
      for (std::size_t i = 0; i < kTasks; ++i) {
        fs.push_back(tj::runtime::async([] { return 1; }));
      }
      int acc = 0;
      for (const auto& f : fs) acc += f.get();
      benchmark::DoNotOptimize(acc);
    }
  });
  state.SetLabel("tj-sp+watchdog-idle");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTasks));
}

// Flight-recorder overhead: the same fork-all-join-all workload with the
// recorder enabled. Each fork/join adds a handful of events (spawn, start,
// verdict, complete, end), each costing one atomic fetch_add + clock read +
// SPSC push. Compare against RuntimeOps/ForkAllJoinAll10k/tj-sp; the ratio
// is the recorder-on overhead factor reported in docs/benchmarks.md. The
// buffer is sized so nothing drops — a dropping run measures less work.
void bench_join_chain_recorder_on(benchmark::State& state) {
  const std::size_t kTasks = 10'000;
  Config cfg;
  cfg.policy = PolicyChoice::TJ_SP;
  cfg.obs.enabled = true;
  cfg.obs.buffer_capacity = std::size_t{1} << 20;
  Runtime rt(cfg);
  std::uint64_t dropped = 0;
  rt.root([&state, kTasks] {
    for (auto _ : state) {
      std::vector<Future<int>> fs;
      fs.reserve(kTasks);
      for (std::size_t i = 0; i < kTasks; ++i) {
        fs.push_back(tj::runtime::async([] { return 1; }));
      }
      int acc = 0;
      for (const auto& f : fs) acc += f.get();
      benchmark::DoNotOptimize(acc);
    }
  });
  dropped = rt.recorder()->events_dropped();
  state.counters["events"] =
      static_cast<double>(rt.recorder()->events_recorded());
  state.counters["dropped"] = static_cast<double>(dropped);
  state.SetLabel(dropped == 0 ? "tj-sp+recorder" : "tj-sp+recorder DROPPED");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTasks));
}

// Async-mode (optimistic verification) hot-path cost. The gate approves
// every join/await immediately — the per-operation policy work is zero by
// construction — so what this column actually measures is the cost of the
// machinery async mode keeps running: the flight recorder events each
// fork/join emits (async implies recorder-on) plus the background detector
// thread consuming them. Compare against ForkAllJoinAll10k/tj-sp (the
// cheapest sound synchronous policy) and /recorder-on (same event traffic,
// no detector): async vs recorder-on isolates the detector's share, and
// async vs tj-sp is the headline "~1.0x" claim. The ring is sized so
// nothing drops — a drop-induced failover would silently downgrade the
// run to synchronous CycleOnly and measure the wrong mode; the `failover`
// counter (and a poisoned label) make that impossible to miss.
tj::runtime::Config async_config() {
  Config cfg;
  cfg.policy = PolicyChoice::Async;
  cfg.obs.buffer_capacity = std::size_t{1} << 20;
  return cfg;
}

void annotate_async(benchmark::State& state, const Runtime& rt,
                    std::string_view label) {
  const auto rs = rt.recovery()->status();
  state.counters["events"] =
      static_cast<double>(rt.recorder()->events_recorded());
  state.counters["dropped"] =
      static_cast<double>(rt.recorder()->events_dropped());
  state.counters["failover"] = rs.detector.failed_over ? 1.0 : 0.0;
  state.counters["recovered"] = static_cast<double>(rs.cycles_recovered);
  state.SetLabel(rs.detector.failed_over ? std::string(label) + " FAILED-OVER"
                                         : std::string(label));
}

void bench_spawn_async(benchmark::State& state) {
  Config cfg = async_config();
  cfg.workers = 2;
  Runtime rt(cfg);
  rt.root([&state] {
    for (auto _ : state) {
      auto f = tj::runtime::async([] {});
      benchmark::DoNotOptimize(f);
    }
  });
  annotate_async(state, rt, "async");
}

void bench_completed_join_async(benchmark::State& state) {
  Config cfg = async_config();
  cfg.workers = 2;
  Runtime rt(cfg);
  rt.root([&state] {
    auto f = tj::runtime::async([] { return 1; });
    f.join();
    for (auto _ : state) {
      benchmark::DoNotOptimize(f.get());
    }
  });
  annotate_async(state, rt, "async");
}

void bench_join_chain_async(benchmark::State& state) {
  const std::size_t kTasks = 10'000;
  Runtime rt(async_config());
  rt.root([&state, kTasks] {
    for (auto _ : state) {
      std::vector<Future<int>> fs;
      fs.reserve(kTasks);
      for (std::size_t i = 0; i < kTasks; ++i) {
        fs.push_back(tj::runtime::async([] { return 1; }));
      }
      int acc = 0;
      for (const auto& f : fs) acc += f.get();
      benchmark::DoNotOptimize(acc);
    }
  });
  annotate_async(state, rt, "async");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTasks));
}

// Governor-idle overhead: the fork-all-join-all workload with the resource
// governor enabled but every budget unlimited, so it polls (every 5 ms) and
// never trips. The steady-state cost has two parts: the ladder verifier's
// extra virtual hop + level/forest tag per node on every policy check, and
// the periodic footprint probe on the housekeeping thread. Compare against
// RuntimeOps/ForkAllJoinAll10k/tj-gt — the ratio is the price of keeping
// the degradation machinery armed.
void bench_join_chain_governor_idle(benchmark::State& state) {
  const std::size_t kTasks = 10'000;
  Config cfg;
  cfg.policy = PolicyChoice::TJ_GT;
  cfg.governor.enabled = true;
  cfg.governor.poll_ms = 5;  // budgets stay 0 = unlimited: never trips
  Runtime rt(cfg);
  rt.root([&state, kTasks] {
    for (auto _ : state) {
      std::vector<Future<int>> fs;
      fs.reserve(kTasks);
      for (std::size_t i = 0; i < kTasks; ++i) {
        fs.push_back(tj::runtime::async([] { return 1; }));
      }
      int acc = 0;
      for (const auto& f : fs) acc += f.get();
      benchmark::DoNotOptimize(acc);
    }
  });
  state.SetLabel("tj-gt+governor-idle");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTasks));
}

// Deadline-join overhead: identical workload, but every join goes through
// get_for() with a deadline that never expires. The completed-join fast
// path is deadline-free; only joins that actually block pay for the timed
// wait (a wait_for loop instead of wait, plus the withdraw-on-timeout
// bookkeeping that never runs here). Compare against
// RuntimeOps/ForkAllJoinAll10k/tj-sp: the delta is what `join_for` costs
// when you use it everywhere as a hang-proofing idiom.
void bench_join_chain_deadline_join(benchmark::State& state) {
  const std::size_t kTasks = 10'000;
  Runtime rt({.policy = PolicyChoice::TJ_SP});
  rt.root([&state, kTasks] {
    for (auto _ : state) {
      std::vector<Future<int>> fs;
      fs.reserve(kTasks);
      for (std::size_t i = 0; i < kTasks; ++i) {
        fs.push_back(tj::runtime::async([] { return 1; }));
      }
      int acc = 0;
      for (const auto& f : fs) {
        auto v = f.get_for(std::chrono::seconds(60));
        acc += v ? *v : 0;
      }
      benchmark::DoNotOptimize(acc);
    }
  });
  state.SetLabel("tj-sp+join_for");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTasks));
}

void register_all() {
  benchmark::RegisterBenchmark("RuntimeOps/ForkAllJoinAll10k/governor-idle",
                               bench_join_chain_governor_idle)
      ->Iterations(3)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("RuntimeOps/ForkAllJoinAll10k/join_for",
                               bench_join_chain_deadline_join)
      ->Iterations(3)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("RuntimeOps/ForkAllJoinAll10k/watchdog-idle",
                               bench_join_chain_watchdog_idle)
      ->Iterations(3)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("RuntimeOps/ForkAllJoinAll10k/recorder-on",
                               bench_join_chain_recorder_on)
      ->Iterations(3)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("RuntimeOps/Spawn/async", bench_spawn_async)
      ->Iterations(50000);
  benchmark::RegisterBenchmark("RuntimeOps/CompletedJoin/async",
                               bench_completed_join_async);
  benchmark::RegisterBenchmark("RuntimeOps/ForkAllJoinAll10k/async",
                               bench_join_chain_async)
      ->Iterations(3)
      ->Unit(benchmark::kMillisecond);
  for (PolicyChoice p : kPolicies) {
    const std::string name(tj::core::to_string(p));
    benchmark::RegisterBenchmark(
        ("RuntimeOps/Spawn/" + name).c_str(),
        [p](benchmark::State& st) { bench_spawn(st, p); })
        ->Iterations(50000);
    benchmark::RegisterBenchmark(
        ("RuntimeOps/CompletedJoin/" + name).c_str(),
        [p](benchmark::State& st) { bench_completed_join(st, p); });
    benchmark::RegisterBenchmark(
        ("RuntimeOps/ForkAllJoinAll10k/" + name).c_str(),
        [p](benchmark::State& st) { bench_sibling_join_chain(st, p); })
        ->Iterations(3)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  // `--json[=FILE]` is shorthand for Google Benchmark's JSON switches, so CI
  // and the loadgen SLO tooling share one machine-readable flag convention.
  std::vector<char*> args(argv, argv + argc);
  std::string fmt_arg, out_arg, out_fmt_arg;
  for (auto it = args.begin() + 1; it != args.end(); ++it) {
    const std::string_view a = *it;
    if (a == "--json") {
      fmt_arg = "--benchmark_format=json";
      it = args.erase(it);
      args.push_back(fmt_arg.data());
      break;
    }
    if (a.rfind("--json=", 0) == 0) {
      out_arg = "--benchmark_out=" + std::string(a.substr(7));
      out_fmt_arg = "--benchmark_out_format=json";
      it = args.erase(it);
      args.push_back(out_arg.data());
      args.push_back(out_fmt_arg.data());
      break;
    }
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
