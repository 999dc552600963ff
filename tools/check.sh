#!/usr/bin/env bash
# Tier-1 gate: configure, build and run the full test suite twice — once
# plain, once instrumented with AddressSanitizer + UndefinedBehaviorSanitizer
# (see the LDV_SANITIZE option in the top-level CMakeLists.txt).
#
# --bench-smoke additionally runs bench_micro, bench_concurrent,
# bench_prepared and bench_repl once and checks their records against the
# one bound table in tools/bench_smoke_check.py: the disabled-instrumentation
# overhead (<2%, DESIGN.md §8), group commit (>= 3x, §9), morsel-parallel
# scaling (>= 2.5x at 8 threads, §10), governance latency (<= 100 ms, §11),
# inter-query read QPS (>= 3x at 8 clients, §12), EXECUTE vs literal SQL
# (>= 2x, §13), failover (<= 2 s) and standby reads (>= 0.8x, §14); the
# scaling bounds relax to no-regression floors below 4 hardware threads. The
# records are left in build/ and mirrored to BENCH_*.json in the repo root.
# It then runs bench_paper at its default scale factor, which asserts every
# claim EXPERIMENTS.md makes; its tables land in build/bench_paper.md.
#
# --tsan additionally builds with ThreadSanitizer (LDV_SANITIZE=thread) and
# runs the concurrency-sensitive suites (thread pool, parallel execution,
# engine-vs-oracle differentials for SELECT and for UPDATE/DELETE, exec
# including DML, net, txn/governance, mvcc including the provenance-stamping
# race, prepared-statement differential fuzzer) under it.
#
# --release additionally configures build-release/ as a Release (-O3)
# build, which compiles with -Werror like every other build type, and runs
# the full suite there.
#
# --torture N runs N seeded kill-at-faultpoint iterations of crash_torture
# (on top of the short smoke pass ctest already includes).
#
# --repl-torture N runs N seeded iterations of the replication chaos
# campaign (crash_torture --repl): kill the streaming primary at WAL/net
# fault points, sever the stream mid-load, promote the hot standby, and
# verify zero committed-data loss plus bit-identical standby restart.
set -euo pipefail
cd "$(dirname "$0")/.."
# Build and test parallelism: one job per core, never unbounded.
JOBS="$(nproc)"

BENCH_SMOKE=0
TSAN=0
RELEASE=0
TORTURE_ITERS=0
REPL_TORTURE_ITERS=0
expect_torture=0
expect_repl_torture=0
for arg in "$@"; do
  if [[ "$expect_torture" == 1 ]]; then
    TORTURE_ITERS="$arg"; expect_torture=0; continue
  fi
  if [[ "$expect_repl_torture" == 1 ]]; then
    REPL_TORTURE_ITERS="$arg"; expect_repl_torture=0; continue
  fi
  case "$arg" in
    --bench-smoke) BENCH_SMOKE=1 ;;
    --tsan) TSAN=1 ;;
    --release) RELEASE=1 ;;
    --torture) expect_torture=1 ;;
    --repl-torture) expect_repl_torture=1 ;;
    *) echo "check.sh: unknown argument: $arg" >&2; exit 2 ;;
  esac
done
if [[ "$expect_torture" == 1 ]]; then
  echo "check.sh: --torture needs an iteration count" >&2; exit 2
fi
if [[ "$expect_repl_torture" == 1 ]]; then
  echo "check.sh: --repl-torture needs an iteration count" >&2; exit 2
fi

echo "== tracked build artifacts =="
# Generated trees must never be committed; fail fast if any tracked path
# lives under a build directory.
if git ls-files | grep -E '^build[^/]*/' | head -5 | grep .; then
  echo "check.sh: tracked files under build*/ — git rm -r --cached them" >&2
  exit 1
fi

echo "== plain build =="
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"
# --timeout: no single test may wedge the gate — a hung cancellation or a
# deadlocked pool shows up as a per-test failure, not a stuck CI job.
(cd build && ctest --output-on-failure --timeout 120 -j"$JOBS")

if [[ "$BENCH_SMOKE" == 1 ]]; then
  echo "== bench smoke =="
  ./build/bench/bench_micro \
    --benchmark_filter='BM_Obs|BM_ScanFilter|BM_WalCommit/sync:2|BM_Parallel' \
    build/bench_micro.json
  ./build/bench/bench_concurrent build/bench_concurrent.json
  ./build/bench/bench_prepared build/bench_prepared.json
  ./build/bench/bench_repl build/bench_repl.json
  python3 tools/bench_smoke_check.py build/bench_micro.json \
    build/bench_concurrent.json build/bench_prepared.json build/bench_repl.json
  # Repo-root records so a gate run leaves an inspectable record.
  for bench in micro concurrent prepared repl; do
    cp "build/bench_$bench.json" "BENCH_${bench^^}.json"
  done
  echo "== bench paper =="
  ./build/bench/bench_paper > build/bench_paper.md
fi

if [[ "$TORTURE_ITERS" -gt 0 ]]; then
  echo "== crash torture ($TORTURE_ITERS iterations) =="
  ./build/tools/crash_torture --iters "$TORTURE_ITERS" --threads 4 \
    --units 30 --seed "${TORTURE_SEED:-42}"
fi

if [[ "$REPL_TORTURE_ITERS" -gt 0 ]]; then
  echo "== replication chaos torture ($REPL_TORTURE_ITERS iterations) =="
  ./build/tools/crash_torture --repl --iters "$REPL_TORTURE_ITERS" \
    --threads 3 --units 25 --seed "${TORTURE_SEED:-42}"
fi

echo "== asan+ubsan build =="
cmake -B build-san -S . -DLDV_SANITIZE=address,undefined >/dev/null
cmake --build build-san -j"$JOBS"
(cd build-san && ctest --output-on-failure --timeout 240 -j"$JOBS")

if [[ "$TSAN" == 1 ]]; then
  echo "== tsan build (concurrency suites) =="
  cmake -B build-tsan -S . -DLDV_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j"$JOBS" --target \
    thread_pool_test parallel_exec_test vectorized_exec_test exec_select_test \
    exec_dml_test dml_oracle_test exec_features_test net_test txn_test \
    governance_test mvcc_test prepared_statement_test prepared_fuzz_test \
    repl_test
  (cd build-tsan && ctest --output-on-failure --timeout 240 -j"$JOBS" \
    -R 'ThreadPool|Parallel|Vectorized|ExecSelect|ExecDml|DmlOracle|ExecFeatures|Net|Txn|Governance|Mvcc|SharedMutex|SnapshotManager|Prepared|Normalize|Repl')
fi

if [[ "$RELEASE" == 1 ]]; then
  echo "== release build =="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-release -j"$JOBS"
  (cd build-release && ctest --output-on-failure --timeout 120 -j"$JOBS")
fi

echo "check.sh: plain and sanitizer suites both passed"
