#!/usr/bin/env bash
# CI entry point: build + full test suite for each configured preset.
# Defaults to the release build and a ThreadSanitizer build — the latter is
# what shakes out races in the runtime's concurrent machinery (scheduler,
# join gate, promise fulfil/orphan paths), which plain ctest cannot see.
#
# Usage: scripts/ci.sh                 # release + tsan
#        PRESETS="release" scripts/ci.sh   # subset
#        CHAOS=0 scripts/ci.sh         # skip the chaos stage
#        ASAN=0 scripts/ci.sh          # skip the asan stage
#        SOAK=0 scripts/ci.sh          # skip the long-lived soak stage
#        LOADGEN=0 scripts/ci.sh       # skip the service-mode loadgen stage
#        BENCH=0 scripts/ci.sh         # skip the tjbench ledger stage
set -euo pipefail

cd "$(dirname "$0")/.."
PRESETS="${PRESETS:-release tsan}"
CHAOS="${CHAOS:-1}"
ASAN="${ASAN:-1}"
SOAK="${SOAK:-1}"
LOADGEN="${LOADGEN:-1}"
BENCH="${BENCH:-1}"

# Temp files shared across stages; one trap cleans them all up.
tmpfiles=()
cleanup() { rm -f "${tmpfiles[@]:-}"; }
trap cleanup EXIT

for p in $PRESETS; do
  echo "== [$p] configure"
  cmake --preset "$p"
  echo "== [$p] build"
  cmake --build --preset "$p" -j"$(nproc)"
  echo "== [$p] test"
  ctest --preset "$p" --output-on-failure -j"$(nproc)"
done

# Observability stage: record a live benchmark run with the flight recorder,
# bridge it to the offline notation, and replay it through the offline
# checker. trace_dump exits nonzero on dropped events or a failed app
# self-check; trace_check exits nonzero if the offline judgments disagree
# with the verdicts the gate issued live (a live-admitted join that is not
# TJ-valid offline, or a recorded deadlock cycle).
if [[ " $PRESETS " == *" release "* ]]; then
  echo "== [obs] record live run and replay through the offline checker"
  obs_trace="$(mktemp /tmp/tj-obs-XXXXXX.trace)"
  tmpfiles+=("$obs_trace")
  for app in series nqueens; do
    for sched in cooperative blocking; do
      ./build/tools/trace_dump --app="$app" --size=tiny \
          --scheduler="$sched" --trace="$obs_trace"
      ./build/examples/trace_check "$obs_trace"
    done
  done

  # Critical-path attribution must reconcile: per overhead category, the
  # on-path + off-path split computed from the event stream has to equal the
  # metrics histograms' totals (exactly, when no events were dropped).
  # --check makes any mismatch (or a failed app self-check) a nonzero exit.
  echo "== [obs] critical-path attribution reconciles with the histograms"
  for app in series nqueens; do
    for sched in cooperative blocking; do
      ./build/tools/critical_path --app="$app" --size=tiny \
          --scheduler="$sched" --check
    done
  done
fi

# Chaos stage: re-run the randomized stress suites and the fault-plan seed
# sweep under ThreadSanitizer. The plans inject policy rejections, perturbed
# wakeups, fulfill failures and worker deaths; TSan watches the recovery
# paths those faults drive (cancellation, poisoning, compensation spawning),
# which a single green run of the functional suite does not stress.
# Telemetry race stage: the TelemetrySink samples a live runtime from its
# own thread while workers mutate every counter it reads, and RequestScope
# stamps cross threads at spawn time — exactly the shapes TSan exists for.
if [[ " $PRESETS " == *" tsan "* ]]; then
  echo "== [telemetry] sink + request-span tests under tsan"
  ctest --preset tsan -R 'Telemetry' --output-on-failure -j"$(nproc)"

  # Contention-observatory race stage: the profiled lock wrappers and the
  # worker-state board are always-on concurrency primitives (every runtime
  # lock acquisition crosses them), and their snapshot path reads counters
  # other threads are mutating — the exact shape TSan exists for.
  echo "== [contention] profiled locks + worker-state board under tsan"
  ctest --preset tsan -R 'Contention' --output-on-failure -j"$(nproc)"

  # Async-detector race stage: the optimistic gate approves joins with zero
  # policy work while a background detector replays the event stream into a
  # shadow graph and the recovery supervisor posts wait-breaks into parked
  # waiters — three threads handing exception_ptrs, wake generations and
  # WFG snapshots across each other. This is the subsystem most likely to
  # hide a wakeup race, so it gets its own named TSan pass.
  echo "== [async] optimistic detector + recovery tests under tsan"
  ctest --preset tsan -R 'AsyncDetect|AsyncFailover|RecoveredUnderAsync' \
        --output-on-failure -j"$(nproc)"

  # Scheduler race stage: per-worker deques, the injection queue, steals,
  # the sleeper count + epoch futex, and deque hand-over at worker death.
  # The protocol tests (local-push wake-up, dead worker's deque, blocked
  # worker drained by compensation) and the residency test run here.
  echo "== [scheduler] work-stealing protocol tests under tsan"
  ctest --preset tsan -R 'Scheduler|Cooperative|Blocking|Modes/BothModes' \
        --output-on-failure -j"$(nproc)"
fi

if [[ "$CHAOS" == "1" ]] && [[ " $PRESETS " == *" tsan "* ]]; then
  echo "== [chaos] seed sweep under tsan (incl. detector faults)"
  ctest --preset tsan -R 'Chaos|FaultInjection|Cancellation|Watchdog' \
        --output-on-failure -j"$(nproc)"
  echo "== [chaos] fault-plan fuzz"
  ./build-tsan/tools/fuzz_policies --fault-seed=1 --iterations=48
  echo "== [chaos] governor budget-chaos fuzz"
  ./build-tsan/tools/fuzz_policies --fault-seed=1 --budget-chaos --iterations=8
fi

# Soak stage: every app plus the promise-dataflow pattern cycling through ONE
# long-lived runtime under tight governor budgets and an armed chaos plan —
# the graceful-degradation acceptance test (no hangs, no lost results,
# monotone downgrades, reconciled gate stats, bounded RSS). ~25 s wall.
if [[ "$SOAK" == "1" ]] && [[ " $PRESETS " == *" release "* ]]; then
  echo "== [soak] degradation soak, both schedulers, chaos armed"
  ./build/tools/soak --seconds=10 --fault-seed=7
fi

# Service-mode stage: open-loop mixed-tenant traffic against one long-lived
# runtime per scheduler, with chaos armed and hostile (tight) budgets — the
# admission-control acceptance test. The tool itself exits nonzero unless
# every mode conserves requests exactly (submitted == completed + shed +
# timed_out), reconciles the gate's admission stats, and degrades
# monotonically; on top of that the emitted SLO report must parse as JSON.
if [[ "$LOADGEN" == "1" ]] && [[ " $PRESETS " == *" release "* ]]; then
  echo "== [loadgen] open-loop service run, both schedulers, chaos + hostile budgets"
  slo_json="$(mktemp /tmp/tj-slo-XXXXXX.json)"
  tmpfiles+=("$slo_json")
  ./build/tools/loadgen --seconds=6 --rate=120 --deadline-ms=250 \
      --fault-seed=7 --hostile --json="$slo_json"
  python3 -m json.tool "$slo_json" >/dev/null
  echo "== [loadgen] SLO report is valid JSON"

  # Telemetry smoke: the same service run with the continuous exporter and
  # the declarative SLO gate armed. loadgen itself exits nonzero unless the
  # final telemetry sample reconciles exactly with its end-of-run stats and
  # every SLO rule holds (generous bounds — this gates wiring, not perf);
  # afterwards the JSONL stream is schema-validated line by line, each
  # scheduler's final (post-quiesce) sample must satisfy the rejection
  # identity exactly, every gate field and registry counter must be a
  # tj_<name> series in the Prometheus dump, and the dashboard must render
  # the stream. Mid-run samples are relaxed per-field reads, so a ruling in
  # flight can leave the rejection identity off by one there; only the
  # final samples are held to it.
  echo "== [telemetry] continuous export + SLO gate + dashboard render"
  tel_jsonl="$(mktemp /tmp/tj-telemetry-XXXXXX.jsonl)"
  tel_prom="$(mktemp /tmp/tj-telemetry-XXXXXX.prom)"
  tmpfiles+=("$tel_jsonl" "$tel_prom")
  ./build/tools/loadgen --seconds=6 --rate=120 --deadline-ms=250 \
      --fault-seed=7 --hostile \
      --telemetry="$tel_jsonl" --prom="$tel_prom" \
      --slo='p99_ms<60000,shed_rate<=0.95,downgrade_level<=3,watchdog_cycles==0'
  python3 - "$tel_jsonl" "$tel_prom" <<'EOF'
import json, sys
required = ["t_ms", "seq", "scheduler", "configured_policy", "active_policy",
            "ladder_level", "gate", "counters", "obs", "governor", "tenants",
            "hist", "delta"]
gate_keys = ["joins_checked", "requests_checked", "requests_admitted",
             "requests_shed"]
n = 0
final = {}
for line in open(sys.argv[1]):
    if not line.strip():
        continue
    s = json.loads(line)
    for k in required:
        assert k in s, f"sample {n}: missing {k}"
    for k in gate_keys:
        assert k in s["gate"], f"sample {n}: missing gate.{k}"
    assert s["gate"]["requests_checked"] == (
        s["gate"]["requests_admitted"] + s["gate"]["requests_shed"]), n
    final[s["scheduler"]] = (n, s)
    n += 1
assert n >= 2, "telemetry stream too short"
# core::GateStats::reconciles() on each scheduler's final sample.
for sched, (i, s) in final.items():
    g = s["gate"]
    assert g["policy_rejections"] + g["owp_rejections"] == (
        g["false_positives"] + g["owp_false_positives"] +
        g["deadlocks_averted"] - g["deadlocks_averted_approved"]), (sched, i)
series = {l.split()[0] for l in open(sys.argv[2])
          if l.strip() and not l.startswith("#")}
for k in list(s["gate"]) + list(s["counters"]):
    assert f"tj_{k}" in series, f"Prometheus dump missing tj_{k}"
print(f"telemetry schema OK ({n} samples, {len(final)} reconciled finals)")
EOF
  ./build/tools/tj_top --once --no-color "$tel_jsonl" >/dev/null
  echo "== [telemetry] JSONL schema, dashboard render, Prometheus dump OK"

  # Async-mode acceptance: the same open-loop service run under optimistic
  # verification. The gate approves joins with zero policy work and the
  # background detector + recovery supervisor break any deadlock that slips
  # through, so the contract shifts from "no deadlock ever blocks" to "every
  # deadlock is broken within a bounded recovery latency" — which is exactly
  # what the SLO gate enforces: recovery p99 under 200 ms and the watchdog
  # (the backstop above the detector) never firing. Chaos stays armed so
  # detector delay/drop/death faults are in play during live traffic.
  echo "== [async] loadgen under optimistic verification + recovery SLO gate"
  async_jsonl="$(mktemp /tmp/tj-async-XXXXXX.jsonl)"
  tmpfiles+=("$async_jsonl")
  ./build/tools/loadgen --seconds=6 --rate=120 --deadline-ms=250 \
      --fault-seed=7 --policy=async \
      --telemetry="$async_jsonl" \
      --slo='recovery_p99_ms<200,p99_ms<60000,watchdog_cycles==0'
  echo "== [async] recovery-latency SLO holds under live traffic"
fi

# Performance ledger: one set of every tjbench workload (BENCHMARK.json) at
# the contract's 15 s budget. run.py exits nonzero if a driver run breaks
# one of its invariants (gate reconciliation, no recorder drops, no detector
# failover, ...) or an end-to-end metric is non-finite or not positive.
if [[ "$BENCH" == "1" ]] && [[ " $PRESETS " == *" release "* ]]; then
  echo "== [bench] tjbench ledger (one set, every workload)"
  bench_json="$(mktemp /tmp/tj-bench-XXXXXX.json)"
  tmpfiles+=("$bench_json")
  python3 bench/tjbench/run.py --sets=1 --seed=1 --seconds=15 \
      --out="$bench_json"
fi

# ASan stage: a targeted address/UB-sanitizer pass over the subsystems that
# juggle raw policy-node and promise-state lifetimes under faults and
# degradation (governor/ladder downgrades, KJ-VC epoch GC compaction,
# injected worker death + redelivery, inline-spawn accounting). The tsan
# preset cannot see heap-use-after-free; this stage exists for exactly that.
# Cancelled and timed-out joins return while their target still runs, so a
# task body that reads the joiner's dead frame is a stack-use-after-return:
# detect_stack_use_after_return turns that into an error instead of a hang.
# The scheduler tests are here for the same reason: a stale deque entry
# whose task outlives the frame it borrows shows up as an error. OwpHistory
# covers the pruning of the OWP obligation history.
if [[ "$ASAN" == "1" ]]; then
  echo "== [asan] configure + build"
  cmake --preset asan
  cmake --build --preset asan -j"$(nproc)"
  echo "== [asan] governor + fault-injection + recovery + cancellation + scheduler tests"
  ASAN_OPTIONS=detect_stack_use_after_return=1 \
  ctest --preset asan \
        -R 'Governor|Ladder|DeadlineJoin|Backpressure|WatchdogDegradation|FaultInjection|Recovery|Cancellation|SchedulerResidency|SchedulerProtocol|SchedulerHandOver|CompensationWorkerDrains|OwpHistory' \
        --output-on-failure -j"$(nproc)"
  echo "== [asan] soak smoke"
  ./build-asan/tools/soak --seconds=6 --fault-seed=7
fi

echo "ci: all presets green ($PRESETS)"
