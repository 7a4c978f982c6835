// The probe suite of the traced run: isolated public-class probes on 4
// threads, shaped like the workloads. TJ-SP add_child/permits_join on a
// forkjoin-shaped tree, WFG add/remove on the fast path and with an owner
// edge live, and flight recorder emit/consume with every thread's log
// created beforehand.

#include <atomic>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common.hpp"
#include "core/tj_sp.hpp"
#include "obs/recorder.hpp"
#include "wfg/waits_for_graph.hpp"

namespace tjbench {

namespace {

constexpr double kProbeSeconds = 0.2;
constexpr std::size_t kFan = 8;

/// Runs fn(t) on kWorkers threads that start together and concatenates the
/// samples they return. A thread that throws (a wrong verdict included)
/// clears `ok`.
template <typename Fn>
auto on_threads(Fn fn, bool& ok) {
  using Samples = decltype(fn(0u));
  std::vector<Samples> per(kWorkers);
  std::atomic<unsigned> arrived{0};
  std::atomic<bool> failed{false};
  {
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < kWorkers; ++t) {
      threads.emplace_back([&, t] {
        arrived.fetch_add(1);
        while (arrived.load() < kWorkers) std::this_thread::yield();
        try {
          per[t] = fn(t);
        } catch (const std::exception&) {
          failed.store(true);
        }
      });
    }
  }
  ok = ok && !failed.load();
  Samples all;
  for (const Samples& v : per) all.insert(all.end(), v.begin(), v.end());
  return all;
}

std::uint64_t deadline() {
  return now_ns() + static_cast<std::uint64_t>(kProbeSeconds * 1e9);
}

void verifier_probe(RunResult& r, bool& ok) {
  using tj::core::PolicyNode;
  tj::core::TjSpVerifier v;
  PolicyNode* root = v.add_child(nullptr);
  std::vector<PolicyNode*> drivers;  // one per thread: add_child on a parent
  for (unsigned t = 0; t < kWorkers; ++t) drivers.push_back(v.add_child(root));
  // Per batch: ns per add_child and per permits_join.
  const auto samples = on_threads(
      [&](unsigned t) {
        std::vector<std::pair<double, double>> out;
        PolicyNode* children[kFan];
        PolicyNode* leaves[kFan * kFan];
        for (const std::uint64_t end = deadline(); now_ns() < end;) {
          const std::uint64_t t0 = now_ns();
          for (std::size_t c = 0; c < kFan; ++c) {
            children[c] = v.add_child(drivers[t]);
            for (std::size_t l = 0; l < kFan; ++l) {
              leaves[c * kFan + l] = v.add_child(children[c]);
            }
          }
          const std::uint64_t t1 = now_ns();
          bool all = true;
          for (std::size_t c = 0; c < kFan; ++c) {
            for (std::size_t l = 0; l < kFan; ++l) {
              all = v.permits_join(children[c], leaves[c * kFan + l]) && all;
            }
          }
          for (std::size_t c = 0; c < kFan; ++c) {
            all = v.permits_join(drivers[t], children[c]) && all;
          }
          const std::uint64_t t2 = now_ns();
          if (!all) throw std::runtime_error("TJ-SP rejected a tree join");
          for (PolicyNode* n : leaves) v.release(n);
          for (PolicyNode* n : children) v.release(n);
          constexpr double kCalls = kFan + kFan * kFan;
          out.emplace_back(static_cast<double>(t1 - t0) / kCalls,
                           static_cast<double>(t2 - t1) / kCalls);
        }
        return out;
      },
      ok);
  std::vector<double> add_ns, check_ns;
  for (const auto& [add, check] : samples) {
    add_ns.push_back(add);
    check_ns.push_back(check);
  }
  r.counters["verifier.add_child_ns"] = median(add_ns);
  r.counters["verifier.permits_join_ns"] = median(check_ns);
}

/// add_wait + remove_wait pairs, each thread on its own waiters.
double wfg_probe(tj::wfg::WaitsForGraph& g, bool& ok) {
  const std::vector<double> ns = on_threads(
      [&](unsigned t) {
        std::vector<double> out;
        const tj::wfg::NodeId base = (std::uint64_t{t} + 1) << 32;
        for (const std::uint64_t end = deadline(); now_ns() < end;) {
          const std::uint64_t t0 = now_ns();
          for (std::uint64_t i = 1; i <= 64; ++i) {
            if (g.add_wait(base + i, base + 1000 + i) !=
                tj::wfg::WaitVerdict::Added) {
              throw std::runtime_error("acyclic wait refused");
            }
            g.remove_wait(base + i);
          }
          out.push_back(static_cast<double>(now_ns() - t0) / 64);
        }
        return out;
      },
      ok);
  return median(ns);
}

void recorder_probe(RunResult& r, bool& ok) {
  tj::obs::FlightRecorder rec(tj::obs::ObsConfig{true, std::size_t{1} << 16});
  std::atomic<unsigned> logs_ready{0};
  std::atomic<bool> emitting{true};
  std::uint64_t consume_ns = 0, consumed = 0;
  std::thread consumer([&] {
    std::vector<tj::obs::Event> batch;
    while (logs_ready.load() < kWorkers && emitting.load()) {
      std::this_thread::yield();
    }
    // Mirrors the async detector's tick: drain, then sleep one period.
    while (emitting.load() || !batch.empty()) {
      batch.clear();
      const std::uint64_t t0 = now_ns();
      consumed += rec.consume(batch);
      consume_ns += now_ns() - t0;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const std::vector<double> emit_ns = on_threads(
      [&](unsigned t) {
        tj::obs::Event e;
        e.kind = tj::obs::EventKind::TaskStart;
        e.actor = t;
        rec.emit(e);  // creates this thread's log before timing
        logs_ready.fetch_add(1);
        std::vector<double> out;
        for (const std::uint64_t end = deadline(); now_ns() < end;) {
          const std::uint64_t t0 = now_ns();
          for (int i = 0; i < 64; ++i) rec.emit(e);
          out.push_back(static_cast<double>(now_ns() - t0) / 64);
          // Paced well below the consumer's rate, so no ring ever fills.
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        return out;
      },
      ok);
  emitting.store(false);
  consumer.join();
  r.counters["recorder.emit_ns"] = median(emit_ns);
  r.counters["recorder.consume_ns_per_event"] =
      consumed != 0 ? static_cast<double>(consume_ns) / consumed : 0;
}

}  // namespace

void run_probes(RunResult& r) {
  bool ok = true;
  verifier_probe(r, ok);
  tj::wfg::WaitsForGraph fast;
  r.counters["wfg.add_remove_ns"] = wfg_probe(fast, ok);
  // A live owner edge (as in the promise workload) makes every insert
  // cycle-check.
  tj::wfg::WaitsForGraph checked;
  checked.add_owner_edge(tj::wfg::promise_node_id(1), 1);
  r.counters["wfg.checked_add_ns"] = wfg_probe(checked, ok);
  recorder_probe(r, ok);
  r.checks["probes_ok"] = ok;
}

}  // namespace tjbench
