#!/usr/bin/env bash
# Reproduces every artifact: build, full test suite, all benchmark binaries.
# Mirrors the paper's artifact workflow (Appendix A.5): one script runs the
# registered benchmarks, a results file collects the raw data.
#
# Usage: scripts/reproduce.sh [results-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
OUT="${1:-reproduction-results}"
mkdir -p "$OUT"

echo "== configure & build"
cmake -B build -G Ninja
cmake --build build

echo "== test suite"
ctest --test-dir build -j"$(nproc)" 2>&1 | tee "$OUT/ctest.txt" | tail -3

echo "== fuzzing (differential, 10k traces)"
./build/tools/fuzz_policies --iterations=10000 2>/dev/null \
  | tee "$OUT/fuzz.txt"

echo "== Table 1 (complexity)"
./build/bench/bench_table1_complexity 2>/dev/null \
  > "$OUT/table1_complexity.txt"
./build/bench/bench_table1_space > "$OUT/table1_space.txt"

echo "== Table 2 (overheads; this is the headline run)"
./build/bench/table2_overheads --size=small --reps=5 --csv \
  2>"$OUT/table2.log" | tee "$OUT/table2.txt"

echo "== Figure 2 (exec times with CIs)"
./build/bench/fig2_exec_times --size=small --reps=10 \
  2>/dev/null | tee "$OUT/fig2.txt"

echo "== ablations"
./build/bench/ablation_lca_depth 2>/dev/null > "$OUT/ablation_lca.txt"
./build/bench/ablation_scheduler > "$OUT/ablation_scheduler.txt"
./build/bench/ablation_sync_style > "$OUT/ablation_sync_style.txt"
./build/bench/bench_fallback_cost 2>/dev/null > "$OUT/fallback_cost.txt"
./build/bench/bench_promise_ops 2>/dev/null > "$OUT/promise_ops.txt"

echo "== examples"
for ex in quickstart unordered_descendants map_reduce deadlock_recovery \
          policy_lab finish_scope promise_dataflow; do
  echo "--- $ex" >> "$OUT/examples.txt"
  ./build/examples/$ex >> "$OUT/examples.txt" 2>&1
done
echo "init(0); fork(0,1); fork(1,2); join(0,2)" \
  | ./build/examples/trace_check - >> "$OUT/examples.txt" || true

echo
echo "All results in $OUT/. Compare $OUT/table2.txt against Table 2 and"
echo "EXPERIMENTS.md; overhead *factors* and orderings are the reproduction"
echo "target, not absolute times."
