// Contention-observatory tests: the profiled lock wrappers' cost contract
// (registry-inert when off, counter-only when uncontended, wait/hold
// histograms when contended), multithreaded wait attribution to the right
// site, the snapshot ordering invariant under concurrent hammering, the
// worker-state board, the RuntimeSnapshot / telemetry-sample views of
// both, and every policy on a profiled promise ping. Every suite name
// starts with "Contention" so `ctest -R Contention` (the CI tsan stage)
// runs exactly this file — the wrappers and the state board are the newest
// always-on concurrency code in the runtime.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/contention.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"
#include "runtime/api.hpp"
#include "runtime/introspect.hpp"
#include "runtime/runtime.hpp"

namespace tj {
namespace {

using obs::ContentionEnableGuard;
using obs::ContentionRegistry;
using obs::ProfiledMutex;
using obs::ProfiledSharedMutex;
using obs::SiteSnapshot;
using obs::WorkerSlot;
using obs::WorkerState;
using obs::WorkerStateBoard;

/// Registry lookup by name; sites are process-cumulative, so tests use
/// unique site names and (where needed) diff snapshots.
bool find_site(const std::string& name, SiteSnapshot& out) {
  for (SiteSnapshot& s : ContentionRegistry::instance().snapshot()) {
    if (s.name == name) {
      out = std::move(s);
      return true;
    }
  }
  return false;
}

// --- the cost contract -----------------------------------------------------

TEST(ContentionWrapper, OffIsRegistryInert) {
  ASSERT_FALSE(obs::contention_profiling_enabled())
      << "another retainer is live; the off-contract cannot be tested";
  ProfiledMutex mu("test.inert");
  for (int i = 0; i < 100; ++i) {
    std::scoped_lock lk(mu);
  }
  // No site was interned: the wrapper never touched the registry.
  EXPECT_EQ(mu.site(), nullptr);
  SiteSnapshot snap;
  EXPECT_FALSE(find_site("test.inert", snap));
}

TEST(ContentionWrapper, UncontendedIsCounterOnly) {
  ContentionEnableGuard on(true);
  ProfiledMutex mu("test.uncontended");
  for (int i = 0; i < 50; ++i) {
    std::scoped_lock lk(mu);
  }
  SiteSnapshot snap;
  ASSERT_TRUE(find_site("test.uncontended", snap));
  EXPECT_EQ(snap.uncontended, 50u);
  EXPECT_EQ(snap.contended, 0u);
  EXPECT_EQ(snap.acquisitions, 50u);
  // No clock was read: the wait and hold histograms never recorded.
  EXPECT_EQ(snap.wait.count, 0u);
  EXPECT_EQ(snap.hold.count, 0u);
}

TEST(ContentionWrapper, SitesWithOneNameShareOneSlot) {
  ContentionEnableGuard on(true);
  ProfiledMutex a("test.shared-site");
  ProfiledMutex b("test.shared-site");
  {
    std::scoped_lock lk(a);
  }
  {
    std::scoped_lock lk(b);
  }
  SiteSnapshot snap;
  ASSERT_TRUE(find_site("test.shared-site", snap));
  EXPECT_EQ(snap.acquisitions, 2u);
  EXPECT_EQ(a.site(), b.site());
}

// --- contended attribution -------------------------------------------------

TEST(ContentionWrapper, WaitsLandOnTheContendedSiteOnly) {
  ContentionEnableGuard on(true);
  ProfiledMutex hot("test.hot");
  ProfiledMutex cold("test.cold");

  // Main holds `hot` while 4 threads block on it; `cold` is only ever
  // locked from this thread, so any contention recorded there is a
  // misattribution.
  constexpr int kBlockers = 4;
  std::atomic<int> arrived{0};
  hot.lock();
  std::vector<std::thread> threads;
  threads.reserve(kBlockers);
  for (int i = 0; i < kBlockers; ++i) {
    threads.emplace_back([&] {
      arrived.fetch_add(1);
      std::scoped_lock lk(hot);
    });
  }
  while (arrived.load() != kBlockers) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  for (int i = 0; i < 20; ++i) {
    std::scoped_lock lk(cold);
  }
  hot.unlock();
  for (std::thread& t : threads) t.join();

  SiteSnapshot h, c;
  ASSERT_TRUE(find_site("test.hot", h));
  ASSERT_TRUE(find_site("test.cold", c));
  EXPECT_EQ(h.acquisitions, 1u + kBlockers);
  EXPECT_GE(h.contended, 1u);  // at least whoever blocked on main's hold
  EXPECT_EQ(h.wait.count, h.contended);  // quiesced: exact
  EXPECT_GT(h.wait.sum_ns, 0u);
  EXPECT_EQ(c.contended, 0u);
  EXPECT_EQ(c.uncontended, 20u);
  EXPECT_EQ(h.uncontended + h.contended, h.acquisitions);
}

TEST(ContentionWrapper, LongContendedHoldIsRecordedAtUnlock) {
  ContentionEnableGuard on(true);
  ProfiledMutex mu("test.long-hold");
  WorkerStateBoard board;
  WorkerSlot* slot = board.register_worker();
  // Thread B's acquisition is contended (A holds the lock when B arrives);
  // B then holds well past kLongHoldNs, which must land in hold_ns.
  mu.lock();
  std::thread b([&] {
    obs::tls_worker_slot() = slot;
    std::scoped_lock lk(mu);  // blocks until A releases -> contended
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  });
  // The contended path publishes BlockedLock before it blocks, so once it
  // shows B is committed to a contended acquisition.
  while (slot->current() != WorkerState::BlockedLock) {
    std::this_thread::yield();
  }
  mu.unlock();
  b.join();

  SiteSnapshot snap;
  ASSERT_TRUE(find_site("test.long-hold", snap));
  ASSERT_GE(snap.contended, 1u);
  EXPECT_GE(snap.hold.count, 1u);
  EXPECT_GE(snap.hold.max_ns, obs::kLongHoldNs);
}

TEST(ContentionWrapper, SharedMutexCountsSharedAndExclusive) {
  ContentionEnableGuard on(true);
  ProfiledSharedMutex mu("test.rw");
  for (int i = 0; i < 10; ++i) {
    std::shared_lock lk(mu);
  }
  for (int i = 0; i < 3; ++i) {
    std::scoped_lock lk(mu);
  }
  SiteSnapshot snap;
  ASSERT_TRUE(find_site("test.rw", snap));
  EXPECT_EQ(snap.acquisitions, 13u);
  EXPECT_EQ(snap.contended, 0u);
}

// --- the snapshot ordering invariant under fire ----------------------------

TEST(ContentionWrapper, SnapshotInvariantHoldsUnderConcurrentHammering) {
  ContentionEnableGuard on(true);
  ProfiledMutex mu("test.hammer");
  std::atomic<bool> stop{false};
  std::uint64_t guarded = 0;  // plain: proves mutual exclusion under tsan

  std::vector<std::thread> writers;
  for (int i = 0; i < 4; ++i) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::scoped_lock lk(mu);
        ++guarded;
      }
    });
  }
  // Reader thread: at every instant, wait.count <= contended and
  // acquisitions == uncontended + contended (acquisitions is derived at
  // snapshot time from a consistent read order).
  std::thread reader([&] {
    for (int i = 0; i < 200; ++i) {
      SiteSnapshot snap;
      if (find_site("test.hammer", snap)) {
        EXPECT_LE(snap.wait.count, snap.contended);
        EXPECT_EQ(snap.uncontended + snap.contended, snap.acquisitions);
      }
      std::this_thread::yield();
    }
  });
  reader.join();
  stop.store(true);
  std::uint64_t expected = 0;
  for (std::thread& t : writers) t.join();
  {
    std::scoped_lock lk(mu);
    expected = guarded;
  }
  SiteSnapshot snap;
  ASSERT_TRUE(find_site("test.hammer", snap));
  EXPECT_EQ(snap.acquisitions, expected + 1);  // writers + the final read
  EXPECT_EQ(snap.wait.count, snap.contended);  // quiesced: exact
}

// --- worker-state board ----------------------------------------------------

TEST(ContentionWorkers, ScopedStateNestsAndRestores) {
  ContentionEnableGuard on(true);
  WorkerStateBoard board;
  WorkerSlot* slot = board.register_worker();
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->current(), WorkerState::Idle);
  {
    obs::ScopedWorkerState running(slot, WorkerState::Running);
    EXPECT_EQ(slot->current(), WorkerState::Running);
    {
      obs::ScopedWorkerState blocked(slot, WorkerState::BlockedJoin);
      EXPECT_EQ(slot->current(), WorkerState::BlockedJoin);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(slot->current(), WorkerState::Running);
  }
  EXPECT_EQ(slot->current(), WorkerState::Idle);

  const WorkerStateBoard::Totals t = board.totals();
  EXPECT_EQ(t.workers, 1u);
  EXPECT_GE(t.transitions, 4u);
  EXPECT_GT(
      t.state_ns[static_cast<std::size_t>(WorkerState::BlockedJoin)], 0u);
  // Null slot: the bracket is a no-op, not a crash (non-worker threads).
  obs::ScopedWorkerState noop(nullptr, WorkerState::Running);
}

TEST(ContentionWorkers, TotalsCountCurrentStatesAcrossSlots) {
  ContentionEnableGuard on(true);
  WorkerStateBoard board;
  WorkerSlot* a = board.register_worker();
  WorkerSlot* b = board.register_worker();
  a->set_state(WorkerState::Running);
  b->set_state(WorkerState::BlockedLock);
  const WorkerStateBoard::Totals t = board.totals();
  EXPECT_EQ(t.workers, 2u);
  EXPECT_EQ(t.current[static_cast<std::size_t>(WorkerState::Running)], 1u);
  EXPECT_EQ(t.current[static_cast<std::size_t>(WorkerState::BlockedLock)],
            1u);
  std::uint64_t census = 0;
  for (std::uint64_t c : t.current) census += c;
  EXPECT_EQ(census, 2u);
}

// --- runtime + telemetry integration ---------------------------------------

runtime::Config observed() {
  runtime::Config cfg;
  cfg.policy = core::PolicyChoice::TJ_SP;
  cfg.obs.enabled = true;
  cfg.workers = 2;
  return cfg;
}

TEST(ContentionRuntime, SnapshotCarriesLockSitesAndWorkerBoard) {
  runtime::Runtime rt(observed());
  rt.root([] {
    std::vector<runtime::Future<int>> fs;
    for (int i = 0; i < 16; ++i) {
      fs.push_back(runtime::async([i] { return i; }));
    }
    int acc = 0;
    for (auto& f : fs) acc += f.get();
    return acc;
  });
  const runtime::RuntimeSnapshot s = runtime::snapshot(rt);
  EXPECT_TRUE(s.contention_enabled);
  ASSERT_FALSE(s.lock_sites.empty());
  bool saw_queue = false;
  for (const SiteSnapshot& site : s.lock_sites) {
    EXPECT_EQ(site.uncontended + site.contended, site.acquisitions)
        << site.name;
    saw_queue = saw_queue || site.name == "sched.queue";
  }
  EXPECT_TRUE(saw_queue) << "scheduler queue must be a profiled site";
  EXPECT_EQ(s.workers.workers, 2u);
  EXPECT_GT(s.workers.transitions, 0u);
  // The rendered form carries both new tables.
  const std::string text = s.to_string();
  EXPECT_NE(text.find("locks:"), std::string::npos);
  EXPECT_NE(text.find("workers:"), std::string::npos);
}

TEST(ContentionRuntime, ObsOffRuntimeDoesNotRetainProfiling) {
  runtime::Config cfg;
  cfg.policy = core::PolicyChoice::TJ_SP;
  cfg.obs.enabled = false;
  cfg.workers = 2;
  runtime::Runtime rt(cfg);
  EXPECT_FALSE(obs::contention_profiling_enabled());
  rt.root([] { return runtime::async([] { return 1; }).get(); });
  const runtime::RuntimeSnapshot s = runtime::snapshot(rt);
  EXPECT_FALSE(s.contention_enabled);
}

TEST(ContentionTelemetry, FinalSampleReconcilesWithTheRegistry) {
  const std::string path = ::testing::TempDir() + "contention_reconcile.jsonl";
  {
    runtime::Runtime rt(observed());
    obs::TelemetryConfig tcfg;
    tcfg.jsonl_path = path;
    tcfg.cadence_ms = 10;
    obs::TelemetrySink sink(rt, tcfg);
    sink.start();
    rt.root([] {
      std::vector<runtime::Future<int>> fs;
      for (int i = 0; i < 32; ++i) {
        fs.push_back(runtime::async([i] { return i; }));
      }
      int acc = 0;
      for (auto& f : fs) acc += f.get();
      return acc;
    });
    sink.stop();  // takes the final synchronous sample while quiesced
  }
  namespace slo = obs::slo;
  std::vector<slo::Json> samples = slo::parse_jsonl_file(path);
  ASSERT_FALSE(samples.empty());
  const slo::Json& last = samples.back();
  const slo::Json* sites = last.at_path("contention.sites");
  ASSERT_NE(sites, nullptr);
  ASSERT_TRUE(sites->is_array());
  ASSERT_FALSE(sites->array().empty());
  // Exact per-site balance in the exported stream, not just in memory:
  // acquisitions == contended + uncontended, wait.count <= contended.
  for (const slo::Json& site : sites->array()) {
    const auto num = [&site](const char* key) {
      const slo::Json* v = site.find(key);
      return v != nullptr && v->is_number() ? v->number() : -1.0;
    };
    const std::string name = site.find("site")->str();
    EXPECT_EQ(num("acquisitions"), num("contended") + num("uncontended"))
        << name;
    const slo::Json* wc = site.at_path("wait.count");
    ASSERT_NE(wc, nullptr) << name;
    EXPECT_LE(wc->number(), num("contended")) << name;
  }
  const slo::Json* workers = last.find("workers");
  ASSERT_NE(workers, nullptr);
  EXPECT_EQ(workers->find("count")->number(), 2.0);
  std::remove(path.c_str());
}

// --- every policy on a multi-worker promise ping --------------------------

constexpr unsigned kPingDrivers = 2;
constexpr std::uint64_t kPingOps = 50;

/// The ownership-policy ping (make_promise, async_owning fulfils it, await,
/// join) from two drivers on two workers with lock profiling on and no
/// recorder. PolicyChoice::None keeps the default OWP promise policy, so
/// that case runs promise verification alone.
class ContentionPolicyPing
    : public ::testing::TestWithParam<core::PolicyChoice> {};

TEST_P(ContentionPolicyPing, ExactSumAndBalancedSites) {
  runtime::Config cfg;
  cfg.policy = GetParam();
  cfg.workers = 2;
  // Ring headroom, so drops cannot fail the async detector over mid-run.
  if (cfg.policy == core::PolicyChoice::Async) {
    cfg.obs.buffer_capacity = std::size_t{1} << 20;
  }
  ContentionEnableGuard on(true);
  const auto total_acquisitions = [] {
    std::uint64_t n = 0;
    for (const SiteSnapshot& s : ContentionRegistry::instance().snapshot()) {
      n += s.acquisitions;
    }
    return n;
  };
  const std::uint64_t before = total_acquisitions();

  runtime::Runtime rt(cfg);
  const std::uint64_t sum = rt.root([] {
    std::vector<runtime::Future<std::uint64_t>> drivers;
    for (unsigned d = 0; d < kPingDrivers; ++d) {
      drivers.push_back(runtime::async([] {
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < kPingOps; ++i) {
          auto p = runtime::make_promise<int>();
          auto child = runtime::async_owning(p, [p] {
            p.fulfill(1);
            return 1;
          });
          acc += static_cast<std::uint64_t>(p.get());
          acc += static_cast<std::uint64_t>(child.get());
        }
        return acc;
      }));
    }
    std::uint64_t total = 0;
    for (auto& f : drivers) total += f.get();
    return total;
  });

  EXPECT_EQ(sum, 2 * kPingDrivers * kPingOps);
  EXPECT_GT(total_acquisitions(), before);
  for (const SiteSnapshot& s : ContentionRegistry::instance().snapshot()) {
    EXPECT_EQ(s.acquisitions, s.uncontended + s.contended) << s.name;
  }
  if (cfg.policy == core::PolicyChoice::Async) {
    ASSERT_NE(rt.recovery(), nullptr);
    EXPECT_FALSE(rt.recovery()->failed_over())
        << "a failed-over run measures the synchronous floor, not async";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ContentionPolicyPing,
    ::testing::Values(core::PolicyChoice::TJ_GT, core::PolicyChoice::TJ_JP,
                      core::PolicyChoice::TJ_SP, core::PolicyChoice::KJ_VC,
                      core::PolicyChoice::KJ_SS, core::PolicyChoice::None,
                      core::PolicyChoice::CycleOnly,
                      core::PolicyChoice::Async),
    [](const ::testing::TestParamInfo<core::PolicyChoice>& info) {
      std::string name(core::to_string(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace tj
