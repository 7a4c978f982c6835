// The three closed-loop workloads: four driver tasks, one per worker, each
// issuing its next op as soon as the previous one returns.
//
//   forkjoin  TJ-SP, no promises, recorder off. One op is a depth-2 tree:
//             fork 8 children, each forks 8 leaves of ~2 us arithmetic and
//             joins them in fork order, then the driver joins its children
//             (72 spawns and 72 joins). The WFG stays on its unchecked fast
//             path and the recorder is bypassed.
//   promise   TJ-SP + OWP. One op is a ping: make a promise, async_owning a
//             child that fulfills it, await it, join the child. The live
//             owner edge makes every WFG insert cycle-check.
//   async     the promise op under PolicyChoice::Async: no policy work, every
//             event goes through the flight recorder and the detector.

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "runtime/api.hpp"

namespace tjbench {

namespace rtj = tj::runtime;
using tj::core::PolicyChoice;

namespace {

enum class OpKind { ForkJoin, Promise };

struct LoopSpec {
  OpKind op;
  PolicyChoice policy;
  unsigned warm_ops;     ///< per driver, before the window, per set-up
  unsigned trace_every;  ///< traced run: every n-th op of a driver
};

LoopSpec spec_for(const std::string& workload) {
  if (workload == "forkjoin") {
    return {OpKind::ForkJoin, PolicyChoice::TJ_SP, 400, 64};
  }
  if (workload == "promise") {
    return {OpKind::Promise, PolicyChoice::TJ_SP, 4000, 64};
  }
  if (workload == "async") {
    return {OpKind::Promise, PolicyChoice::Async, 4000, 64};
  }
  throw std::invalid_argument("not a closed-loop workload: " + workload);
}

constexpr std::size_t kFan = 8;          // children per op, leaves per child
constexpr std::size_t kDistinctOps = 64;  // inputs cycle with this period
constexpr int kLeafIters = 1000;          // ~2 us of dependent arithmetic

std::uint64_t leaf_work(std::uint64_t x) {
  for (int i = 0; i < kLeafIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Per-op inputs and their expected results, generated from the seed.
struct Inputs {
  std::vector<std::uint64_t> leaves;  // kDistinctOps * kFan * kFan
  std::vector<std::uint64_t> expect;  // forkjoin: sum of leaf results
  std::vector<int> values;            // promise: the value to ping
};

Inputs make_inputs(OpKind op, std::uint64_t seed) {
  Rng rng(seed);
  Inputs in;
  if (op == OpKind::ForkJoin) {
    in.leaves.resize(kDistinctOps * kFan * kFan);
    for (auto& x : in.leaves) x = rng.next();
    in.expect.resize(kDistinctOps);
    for (std::size_t k = 0; k < kDistinctOps; ++k) {
      std::uint64_t sum = 0;
      for (std::size_t j = 0; j < kFan * kFan; ++j) {
        sum += leaf_work(in.leaves[k * kFan * kFan + j]);
      }
      in.expect[k] = sum;
    }
  } else {
    in.values.resize(kDistinctOps);
    for (int& v : in.values) v = static_cast<int>(rng.next() % 1'000'000);
  }
  return in;
}

/// Timestamps a traced child leaves for its spawner. Shared with the child,
/// so a child still running after a failed op never writes a dead frame;
/// the spawner reads the child's fields only after joining it.
struct ChildStamp {
  std::uint64_t parent = 0;    ///< spawner's innermost span at spawn time
  std::uint64_t t_ret = 0;     ///< spawn returned
  std::uint64_t t_body = 0;    ///< body's first statement
  std::uint64_t t_signal = 0;  ///< promise child: fulfill called
  std::uint64_t t_end = 0;     ///< body's last statement
  std::uintptr_t thread = 0;
};
using Stamp = std::shared_ptr<ChildStamp>;

Stamp new_stamp(std::uint64_t op) {
  return op != 0 ? std::make_shared<ChildStamp>() : nullptr;
}

template <typename Body>
auto stamped(Stamp st, Body body) {
  return [st, body] {
    if (st) {
      st->t_body = now_ns();
      st->thread = thread_tag();
    }
    auto v = body();
    if (st) st->t_end = now_ns();
    return v;
  };
}

/// `launch(body)`, timed as rt.spawn when `st` is set.
template <typename Body, typename Launch>
auto timed_spawn(std::uint64_t op, const Stamp& st, Body body, Launch launch) {
  if (!st) return launch(std::move(body));
  st->parent = current_parent(op);
  auto wrapped = stamped(st, std::move(body));
  decltype(launch(wrapped)) f;
  {
    ScopedSpan s(kSpawn, op);
    f = launch(std::move(wrapped));
  }
  st->t_ret = now_ns();
  return f;
}

template <typename Body>
auto spawn(std::uint64_t op, const Stamp& st, Body body) {
  return timed_spawn(op, st, std::move(body),
                     [](auto b) { return rtj::async(std::move(b)); });
}

template <typename T, typename Body>
auto spawn_owning(std::uint64_t op, const Stamp& st, const rtj::Promise<T>& p,
                  Body body) {
  return timed_spawn(op, st, std::move(body), [&p](auto b) {
    return rtj::async_owning(p, std::move(b));
  });
}

/// Future::get, classified as a join on a ready or a not-yet-ready task.
template <typename T>
T join(std::uint64_t op, const rtj::Future<T>& f, const Stamp& st) {
  if (!st) return f.get();
  const bool ready = f.ready();
  const std::uint64_t parent = current_parent(op);
  T v;
  {
    ScopedSpan s(ready ? kJoinReady : kJoinWait, op);
    v = f.get();
  }
  const std::uint64_t t_ret = now_ns();
  record_span(kQueueDelay, op, st->parent, st->t_ret,
              std::max(st->t_ret, st->t_body), true);
  // A wake only when the waiter really waited for another thread; a child
  // the joiner ran inline involves no wake-up.
  if (!ready && st->thread != thread_tag()) {
    record_span(kWake, op, parent, st->t_end, t_ret, true);
  }
  return v;
}

std::uint64_t fork_join_child(std::uint64_t op, const std::uint64_t* leaves) {
  std::array<rtj::Future<std::uint64_t>, kFan> fs;
  std::array<Stamp, kFan> st;
  for (std::size_t l = 0; l < kFan; ++l) {
    const std::uint64_t x = leaves[l];
    st[l] = new_stamp(op);
    fs[l] = spawn(op, st[l], [x] { return leaf_work(x); });
  }
  std::uint64_t sum = 0;
  for (std::size_t l = 0; l < kFan; ++l) sum += join(op, fs[l], st[l]);
  return sum;
}

bool fork_join_op(std::uint64_t op, const Inputs& in, std::size_t k) {
  const std::uint64_t* leaves = &in.leaves[k * kFan * kFan];
  std::array<rtj::Future<std::uint64_t>, kFan> fs;
  std::array<Stamp, kFan> st;
  for (std::size_t c = 0; c < kFan; ++c) {
    const std::uint64_t* mine = leaves + c * kFan;
    st[c] = new_stamp(op);
    fs[c] = spawn(op, st[c], [op, mine] { return fork_join_child(op, mine); });
  }
  std::uint64_t sum = 0;
  for (std::size_t c = 0; c < kFan; ++c) sum += join(op, fs[c], st[c]);
  return sum == in.expect[k];
}

bool promise_op(std::uint64_t op, int v) {
  rtj::Promise<int> p;
  {
    ScopedSpan s(kMakePromise, op);
    p = rtj::make_promise<int>();
  }
  const Stamp st = new_stamp(op);
  auto child = spawn_owning(op, st, p, [p, v, op, st] {
    if (st) st->t_signal = now_ns();
    ScopedSpan s(kFulfill, op);
    p.fulfill(v);
    return v + 1;
  });
  const bool was_ready = st && p.ready();
  int got = 0;
  {
    ScopedSpan s(kAwait, op);
    got = p.get();
  }
  const std::uint64_t t_awaited = now_ns();
  const int joined = join(op, child, st);
  if (st && !was_ready && st->thread != thread_tag()) {
    record_span(kWake, op, current_parent(op), st->t_signal, t_awaited, true);
  }
  return got == v && joined == v + 1;
}

bool run_op(const LoopSpec& spec, std::uint64_t op, const Inputs& in,
            std::size_t k) {
  return spec.op == OpKind::ForkJoin ? fork_join_op(op, in, k)
                                     : promise_op(op, in.values[k]);
}

// A client's driver task ends after this long and the root spawns the next
// one. A task that the joiner ran inline stays referenced from the
// scheduler's global queue until some worker dequeues it; with four
// long-lived drivers on four workers no worker ever does, and the process
// grows by ~150 MB/s. Ending each driver sends its worker back to the queue.
constexpr std::uint64_t kBatchNs = 20'000'000;

/// One closed-loop client, served in turn by a chain of driver tasks (each
/// task's writes are ordered before the next one's by the root's join).
struct Client {
  unsigned index = 0;
  std::vector<double> lat_ns;
  std::vector<double> gap_ns;  ///< previous op's end -> next op's start
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t prev_end = 0;
  std::uintptr_t first_thread = 0;
  bool warm_ok = true;
};

void warm_up(const LoopSpec& spec, const Inputs& in, double seconds,
             Client& c) {
  c.first_thread = thread_tag();
  const std::uint64_t w0 = now_ns();
  for (unsigned i = 0; i < spec.warm_ops; ++i) {
    try {
      c.warm_ok = run_op(spec, 0, in, (c.index * 7 + i) % kDistinctOps) &&
                  c.warm_ok;
    } catch (const std::exception&) {
      c.warm_ok = false;
    }
  }
  // Room for twice the warm-up rate over the window; more grows the vector.
  const double warm_s = static_cast<double>(now_ns() - w0) / 1e9;
  const double rate = spec.warm_ops / std::max(warm_s, 1e-6);
  c.lat_ns.reserve(
      static_cast<std::size_t>(std::min(rate * seconds * 2 + 1024, 5e7)));
  c.gap_ns.reserve(c.lat_ns.capacity());
}

/// Runs the client's ops for one batch, or until the window ends.
void serve(const LoopSpec& spec, const Inputs& in, Client& c,
           std::uint64_t window_end) {
  const std::uint64_t until = std::min(window_end, now_ns() + kBatchNs);
  const unsigned every = g_tracer != nullptr ? spec.trace_every : 0;
  for (;;) {
    const std::uint64_t t0 = now_ns();
    if (t0 >= until) break;
    if (c.prev_end != 0) {
      c.gap_ns.push_back(static_cast<double>(t0 - c.prev_end));
    }
    const std::uint64_t i = c.ops;
    const std::uint64_t op = every != 0 && i % every == 0 ? new_op() : 0;
    bool ok = false;
    try {
      ScopedSpan s(kOp, op);
      ok = run_op(spec, op, in, (c.index * 7919 + i) % kDistinctOps);
    } catch (const std::exception&) {
      ok = false;
    }
    c.prev_end = now_ns();
    c.lat_ns.push_back(static_cast<double>(c.prev_end - t0));
    ++c.ops;
    if (!ok) ++c.failed;
  }
}

rtj::Config make_config(const LoopSpec& spec) {
  rtj::Config cfg;
  cfg.policy = spec.policy;
  cfg.workers = kWorkers;
  return cfg;
}

/// Polls until `f` terminated without joining it (a join on a queued task
/// would run it inline on the root thread).
template <typename T>
void wait_ready(const rtj::Future<T>& f) {
  while (!f.ready()) std::this_thread::sleep_for(std::chrono::microseconds(50));
}

/// One set-up (inputs, runtime, warm-up) and, when `measure`, the window.
void closed_loop_once(const LoopSpec& spec, const Options& o, bool measure,
                      std::uint64_t t_setup0, RunResult& r) {
  const Inputs in = make_inputs(spec.op, o.seed);
  rtj::Runtime rt(make_config(spec));
  std::array<Client, kWorkers> clients;
  LayerSnap before, after;
  LockMap locks_before, locks_after;
  std::uint64_t t_start = 0;
  rt.root([&] {
    // Warm-up drivers hold their workers until all have warmed up, so every
    // worker runs ops before the window.
    std::atomic<unsigned> warmed{0};
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    std::array<rtj::Future<int>, kWorkers> drivers;
    for (unsigned d = 0; d < kWorkers; ++d) {
      clients[d].index = d;
      drivers[d] = rtj::async([&, d] {
        warm_up(spec, in, o.seconds, clients[d]);
        warmed.fetch_add(1);
        while (warmed.load() < kWorkers && Clock::now() < deadline) {
          std::this_thread::yield();
        }
        return 0;
      });
    }
    for (const auto& f : drivers) {
      wait_ready(f);
      f.get();
    }
    r.setup_s.push_back(static_cast<double>(now_ns() - t_setup0) / 1e9);
    if (!measure) return;

    before = snap(rt);
    locks_before = lock_snapshot();
    t_start = now_ns();
    const std::uint64_t end =
        t_start + static_cast<std::uint64_t>(o.seconds * 1e9);
    // Relay: whenever a client's driver ends, start its next one. Drivers
    // are collected in whatever order they end; none ends before its batch
    // is due, so the root sleeps until the earliest due one, then polls.
    std::array<std::uint64_t, kWorkers> due;
    auto start = [&](unsigned d) {
      due[d] = std::min(now_ns() + kBatchNs, end);
      drivers[d] = rtj::async([&, d, end] {
        serve(spec, in, clients[d], end);
        return 0;
      });
    };
    for (unsigned d = 0; d < kWorkers; ++d) start(d);
    for (unsigned running = kWorkers; running != 0;) {
      std::uint64_t wake = end;
      for (unsigned d = 0; d < kWorkers; ++d) {
        if (!drivers[d].valid()) continue;
        if (drivers[d].ready()) {
          drivers[d].get();
          drivers[d] = {};
          if (now_ns() >= end) {
            --running;
            continue;
          }
          start(d);
        }
        wake = std::min(wake, due[d]);
      }
      const std::uint64_t poll = now_ns() + 50'000;
      std::this_thread::sleep_until(Clock::time_point(
          std::chrono::nanoseconds(std::max(wake, poll))));
    }
    after = snap(rt);
    locks_after = lock_snapshot();
  });
  if (!measure) return;

  std::vector<double> lat_us, gaps_us;
  std::uint64_t end_ns = t_start;
  std::set<std::uintptr_t> threads;
  bool warm_ok = true;
  for (const Client& c : clients) {
    for (double ns : c.lat_ns) lat_us.push_back(ns / 1e3);
    for (double ns : c.gap_ns) gaps_us.push_back(ns / 1e3);
    r.attempted += c.ops;
    r.failed += c.failed;
    r.wrong += c.failed;
    end_ns = std::max(end_ns, c.prev_end);
    threads.insert(c.first_thread);
    warm_ok = warm_ok && c.warm_ok;
  }
  const double window_s = static_cast<double>(end_ns - t_start) / 1e9;
  r.ops_per_s = static_cast<double>(r.attempted) / window_s;
  r.samples = lat_us.size();
  r.op_p50_us = quantile(lat_us, 0.50);
  r.op_p90_us = quantile(lat_us, 0.90);
  r.op_p99_us = quantile(lat_us, 0.99);

  LayerDelta d;
  d.add(before, after);
  d.add_locks(locks_before, locks_after);
  d.note_peaks(rt);
  fill_layer_counters(r, d, static_cast<double>(r.attempted), window_s);
  r.counters["gen.late_p99_us"] = quantile(gaps_us, 0.99);

  const tj::core::GateStats g = rt.gate_stats();
  r.checks["warmup_ok"] = warm_ok;
  r.checks["drivers_on_distinct_workers"] = threads.size() == kWorkers;
  r.checks["gate_reconciles"] = gate_reconciles(g);
  if (rt.recorder() != nullptr) {
    r.checks["recorder_no_drops"] = rt.recorder()->events_dropped() == 0;
  }
  if (const rtj::RecoverySupervisor* rec = rt.recovery()) {
    r.checks["detector_not_failed_over"] = !rec->failed_over();
    r.counters["detector.failed_over"] = rec->failed_over() ? 1 : 0;
  }
}

}  // namespace

void run_closed_loop(const Options& o, RunResult& r) {
  const LoopSpec spec = spec_for(o.workload);
  for (int k = 0; k < kSetups; ++k) {
    closed_loop_once(spec, o, k == kSetups - 1, now_ns(), r);
  }
}

}  // namespace tjbench
