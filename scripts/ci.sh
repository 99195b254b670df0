#!/usr/bin/env bash
# CI entry point. Lanes (select with TXCONC_CI_LANES, comma-separated;
# default runs all):
#  * tier1 — configure, build (-Wall -Wextra -Wshadow -Werror), ctest
#    (critpath_test's registry round-trip is the observability smoke:
#    every engine traced into a valid Chrome trace file whose profile
#    satisfies the attribution sum invariant), then a compile-only build
#    of the node benchmark (nodebench/), which links src/ from its own
#    CMake package and so breaks first on an API it still uses;
#  * asan  — ASan/UBSan on exec_test + conformance_test + audit_test:
#    memory errors and UB under the thread pool's chunked parallel_for;
#    common_test + chain_test run both SHA-256 kernels (SHA-NI intrinsics
#    where the CPU has them) and the stack-buffer tx/merkle/header hashing;
#    txconc_explain then analyzes a traced parallel_executor run, driving
#    the trace parser and span-DAG analyzer over sanitizer-instrumented
#    code;
#  * tsan  — TSan on the same binaries: data races, with the conformance
#    schedule perturber widening the interleavings each seed explores;
#  * tsa   — Clang Thread Safety Analysis: recompiles every library with
#    -Wthread-safety -Werror=thread-safety-analysis, turning the
#    GUARDED_BY/REQUIRES annotations (common/thread_annotations.h) into
#    compile errors when lock discipline is violated;
#  * tidy  — clang-tidy over src/ with the checks in .clang-tidy;
#  * lint  — txconc-lint (tools/txconc_lint): the repo's own AST-level
#    checker for invariants generic tooling can't see — TXCONC_HOT
#    functions must not allocate, relaxed/acquire/release atomics need an
#    "ordering:" justification and release stores a matching acquire
#    side, the MutexLock acquisition graph must stay acyclic, TSA escapes
#    need a "tsa:" note, and raw Tracer begin/end outside the RAII span
#    helpers is rejected. Unlike tsa/tidy this lane is never skipped: the
#    checker is built by this repo's own CMake with no clang dependency;
#  * bench — benchmark regression gate: a fresh TXCONC_BENCH_FAST run of
#    bench/ablation_engines writes one BENCH.json (a row per executor x
#    threads x block size, with per-cell wall-clock attribution and
#    contention on the explained cells, plus the tracer-overhead ladder),
#    which scripts/bench_gate checks against the committed baseline
#    bench/baselines/BENCH.json (hardware-portable ratios with fixed
#    tolerances) and against absolute invariants. Three negative controls
#    prove the lane has teeth; each must fail the gate with exit 1 AND the
#    failure line of the check it targets: a doctored measured conflict
#    rate ("generator intent"), a deleted contention object ("coverage"),
#    and a re-run with TXCONC_BENCH_INJECT_SLOWDOWN_PCT=20 ("exec
#    aggregate"). After an intentional perf change, refresh the baseline
#    with
#      scripts/bench_gate BENCH.json --refresh
#    and commit bench/baselines/BENCH.json;
#  * bench-large — the same bench with TXCONC_BENCH_LARGE=1: adds the
#    10k-tx concatenated-block cells (reduced reps) and enforces the
#    large-block attainment floor (wall_speedup > 1 at >= 4 threads on
#    multicore hosts; >= 0.9 on < 4-core hosts) via scripts/bench_gate.
# The tsa and tidy lanes need clang++/clang-tidy and are skipped with a
# notice when the tools are absent (the annotations compile to no-ops
# under GCC, so the other lanes still build the same code).
# TXCONC_CONFORMANCE_FAST=1 shrinks the differential sweep (fewer schedule
# seeds) so the ~10x sanitizer slowdown stays within CI budgets.
#
# Examples:
#   ./scripts/ci.sh                          # everything
#   TXCONC_CI_LANES=tier1 ./scripts/ci.sh    # fast local gate
#   TXCONC_CI_LANES=tsa,tidy,lint ./scripts/ci.sh # static analysis only
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"
LANES="${TXCONC_CI_LANES:-tier1,asan,tsan,tsa,tidy,lint,bench,bench-large}"

lane_enabled() {
  case ",${LANES}," in
    *",$1,"*) return 0 ;;
    *) return 1 ;;
  esac
}

# Library targets for compile-only lanes (tsa): everything with annotated
# or annotation-consuming code, which today is the whole src/ tree.
LIB_TARGETS=(txconc_common txconc_core txconc_utxo txconc_account
             txconc_obs txconc_chain txconc_workload
             txconc_exec txconc_audit txconc_analysis txconc_conformance)

# --- tier-1 verify ---------------------------------------------------------
if lane_enabled tier1; then
  echo "== lane: tier1 =="
  cmake -B build -S . -DTXCONC_WERROR=ON -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build build -j"${JOBS}"
  ctest --test-dir build --output-on-failure -j"${JOBS}"
  cmake -S nodebench -B .bench_build/nodebench -DCMAKE_BUILD_TYPE=Release
  cmake --build .bench_build/nodebench --target node_bench -j"${JOBS}"
fi

# --- ASan/UBSan over the execution layer -----------------------------------
if lane_enabled asan; then
  echo "== lane: asan =="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  cmake --build build-asan -j"${JOBS}" \
    --target exec_test --target conformance_test --target audit_test \
    --target obs_test --target trace_propagation_test --target hotpath_test \
    --target block_stm_test --target critpath_test --target contention_test \
    --target common_test --target chain_test \
    --target parallel_executor --target txconc_explain
  # Leak checking needs ptrace, which container CI runners often deny; the
  # races/UB we are after are caught without it.
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/obs_test
  # SHA-256 kernels, golden tx/merkle/header digests.
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/common_test
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/chain_test
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/hotpath_test
  # The contention sketch/sink under ASan: lane merges, eviction churn.
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/contention_test
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/block_stm_test
  # The registry round-trip executes every engine through the global
  # tracer and runs the profiler over the result.
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/critpath_test
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/trace_propagation_test
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/exec_test
  ASAN_OPTIONS=detect_leaks=0 TXCONC_CONFORMANCE_FAST=1 \
    ./build-asan/tests/conformance_test
  ASAN_OPTIONS=detect_leaks=0 TXCONC_CONFORMANCE_FAST=1 \
    ./build-asan/tests/audit_test
  # Drive the trace parser and critpath analyzer over sanitizer-built code:
  # the example's traced multi-engine run feeds txconc_explain's trace
  # mode. Thresholds are fully loosened — the strict attribution contract
  # is gated in the bench lane against warm 2-run traces; here a cold
  # single run per engine would flake on eps. Exit 2 (unanalyzable trace)
  # still fails the lane, so parse/repair regressions are caught.
  ASAN_OPTIONS=detect_leaks=0 \
    ./build-asan/examples/parallel_executor --trace=build-asan/example_trace.json \
    > build-asan/example.log 2>&1
  ASAN_OPTIONS=detect_leaks=0 \
    ./build-asan/tools/txconc_explain/txconc_explain \
    --eps=1.0 --untracked-max=1.0 build-asan/example_trace.json \
    > build-asan/explain.log 2>&1
  echo "asan txconc_explain OK: build-asan/example_trace.json analyzed"
fi

# --- TSan lane: races under perturbed schedules ----------------------------
# TSan is incompatible with ASan, so it gets its own build tree. The
# conformance grid runs every executor family through seeded delay/yield
# perturbation at grain boundaries — exactly the schedules where a missed
# happens-before edge shows up. audit_test rides along: the auditor's
# recorder hooks fire from every pool worker.
if lane_enabled tsan; then
  echo "== lane: tsan =="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build build-tsan -j"${JOBS}" \
    --target exec_test --target conformance_test --target audit_test \
    --target obs_test --target trace_propagation_test --target hotpath_test \
    --target block_stm_test --target critpath_test --target contention_test
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/obs_test
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/hotpath_test
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/contention_test
  # block_stm_test's concurrent rounds drive the MV store, ESTIMATE
  # suspension, and validation sweep from real pool workers.
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/block_stm_test
  # Every engine's span emission + the profiler, under perturbed
  # worker schedules.
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/critpath_test
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/trace_propagation_test
  # exec_test runs with the tracer enabled (TraceEnv in exec_test.cpp):
  # every pool/executor span-emission path executes under TSan.
  TSAN_OPTIONS=halt_on_error=1 TXCONC_TRACE=build-tsan/exec_trace.json \
    ./build-tsan/tests/exec_test
  TSAN_OPTIONS=halt_on_error=1 TXCONC_CONFORMANCE_FAST=1 \
    ./build-tsan/tests/conformance_test
  TSAN_OPTIONS=halt_on_error=1 TXCONC_CONFORMANCE_FAST=1 \
    ./build-tsan/tests/audit_test
fi

# --- TSA lane: compile-time lock discipline --------------------------------
# Thread safety analysis exists only in clang; a removed REQUIRES or an
# unguarded access to a GUARDED_BY member fails this lane (see DESIGN.md
# §10 for the scratch-diff check that proves the lane has teeth).
if lane_enabled tsa; then
  echo "== lane: tsa =="
  if command -v clang++ >/dev/null 2>&1; then
    cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
      -DCMAKE_CXX_FLAGS="-Wthread-safety -Werror=thread-safety-analysis"
    targets=()
    for t in "${LIB_TARGETS[@]}"; do targets+=(--target "$t"); done
    cmake --build build-tsa -j"${JOBS}" "${targets[@]}"
  else
    echo "tsa lane SKIPPED: clang++ not found (thread safety analysis is" \
         "clang-only; the annotations are no-ops under this compiler)"
  fi
fi

# --- clang-tidy lane -------------------------------------------------------
if lane_enabled tidy; then
  echo "== lane: tidy =="
  if command -v clang-tidy >/dev/null 2>&1; then
    if [ ! -f build/compile_commands.json ]; then
      cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    fi
    # xargs -P parallelizes across translation units; clang-tidy reads the
    # checks from .clang-tidy at the repo root.
    find src -name '*.cpp' -print0 |
      xargs -0 -n1 -P"${JOBS}" clang-tidy -p build --quiet
  else
    echo "tidy lane SKIPPED: clang-tidy not found"
  fi
fi

# --- txconc-lint lane: the repo's own invariants, enforced -----------------
# txconc-lint exits non-zero on any finding, so set -e fails the lane on
# a violation. The footer check on top of that proves the whole catalogue
# actually ran (a silently-empty registry would otherwise pass). Fixture
# coverage lives in tests/lint_test.cpp (tier1), which asserts every rule
# both fires on its bad fixture and stays silent on the good one.
if lane_enabled lint; then
  echo "== lane: lint =="
  if [ ! -x build/tools/txconc_lint/txconc_lint ]; then
    cmake -B build -S . -DTXCONC_WERROR=ON
    cmake --build build -j"${JOBS}" --target txconc_lint
  fi
  ./build/tools/txconc_lint/txconc_lint src | tee build/lint.log
  RULES="$(sed -n 's/^txconc-lint: \([0-9][0-9]*\) rules.*/\1/p' build/lint.log)"
  if [ -z "${RULES}" ] || [ "${RULES}" -lt 5 ]; then
    echo "lint lane FAILED: expected >= 5 rules in footer, got '${RULES:-none}'"
    exit 1
  fi
  echo "lint lane OK: ${RULES} rules clean over src/"
fi

# --- bench lane: regression gate + negative controls -----------------------
# Gates hardware-portable ratios (wall_speedup / simulated_speedup) from a
# fresh fast-mode run against the committed baseline plus the absolute
# tracer, attribution, contention and coverage invariants, then proves
# three of the checks can fail (see DESIGN.md §12.2 for the catalogue).
if lane_enabled bench; then
  echo "== lane: bench =="
  if [ ! -x build/bench/ablation_engines ]; then
    cmake -B build -S . -DTXCONC_WERROR=ON
    cmake --build build -j"${JOBS}" --target ablation_engines
  fi
  BENCH_BIN="$(pwd)/build/bench/ablation_engines"
  run_bench() {
    # ablation_engines writes BENCH.json into the CWD; run it from a
    # scratch dir so the gate never clobbers the committed baseline.
    local out="$1"; shift
    mkdir -p "${out}"
    (cd "${out}" && env "$@" TXCONC_BENCH_FAST="${TXCONC_BENCH_FAST:-1}" \
      "${BENCH_BIN}" > bench.log 2>&1)
  }
  # expect_gate_failure LOG PATTERN GATE_ARGS...: the gate must exit 1 (a
  # regression, not a crash or bad input) and log PATTERN, the failure
  # line of the check the control targets.
  expect_gate_failure() {
    local log="$1" pattern="$2" code=0; shift 2
    scripts/bench_gate "$@" > "${log}" 2>&1 || code=$?
    if [ "${code}" -ne 1 ] || ! grep -q "${pattern}" "${log}"; then
      echo "bench lane FAILED: expected exit 1 with '${pattern}'," \
           "got exit ${code}"
      cat "${log}"
      exit 1
    fi
  }
  run_bench build/bench-fresh
  scripts/bench_gate build/bench-fresh/BENCH.json
  echo "bench gate vs committed baseline: OK"
  # Doctored copies of the fresh run, gated against the fresh run itself
  # so every exec ratio is exactly 1 and only the doctored check can fail:
  # one explained cell's measured conflict rate pushed away from the
  # generator's intent, and another explained cell's contention object
  # deleted.
  python3 - <<'PYEOF'
import json
def doctor(name, edit):
    with open("build/bench-fresh/BENCH.json") as f:
        doc = json.load(f)
    edit([r for r in doc["results"] if "contention" in r])
    with open(f"build/bench-fresh/BENCH_doctored_{name}.json", "w") as f:
        json.dump(doc, f)
def drift(explained):
    explained[0]["contention"]["measured_c_address"] += 0.5
doctor("intent", drift)
doctor("coverage", lambda explained: explained[1].pop("contention"))
PYEOF
  expect_gate_failure build/bench-fresh/gate_doctored_intent.log \
    "generator intent" build/bench-fresh/BENCH_doctored_intent.json \
    --baseline build/bench-fresh/BENCH.json
  echo "contend negative control OK: doctored measured_c tripped the gate"
  expect_gate_failure build/bench-fresh/gate_doctored_coverage.log \
    "coverage" build/bench-fresh/BENCH_doctored_coverage.json \
    --baseline build/bench-fresh/BENCH.json
  echo "coverage negative control OK: missing contention tripped the gate"
  # The +20% injection must trip the exec aggregate. Gate the injected run
  # against the same-session fresh run (not the committed baseline) so
  # this check is insulated from host-to-host drift.
  run_bench build/bench-inject TXCONC_BENCH_INJECT_SLOWDOWN_PCT=20
  expect_gate_failure build/bench-inject/gate.log "exec aggregate" \
    build/bench-inject/BENCH.json --baseline build/bench-fresh/BENCH.json
  echo "bench negative control OK: injected slowdown tripped the gate"
fi

# --- bench-large lane: block-size scaling smoke ----------------------------
# Re-runs the bench with TXCONC_BENCH_LARGE=1, which adds the 10k-tx
# concatenated-block cells on top of the fast {124, 1000} grid (reps are
# automatically cut to <=3 for cells of 10k+ txs). A coverage check then
# requires a 10k-tx row for every (engine, threads) pair the base block
# ran, so no registry engine can be silently skipped at the large size.
# The gate then checks the whole file, large cells included, against the
# committed baseline AND the attainment floor: >= 2 parallel engines must
# beat sequential wall clock at >= 4 threads on >= 1000-tx blocks on
# multicore hosts, or hold wall_speedup >= 0.9 on hosts with < 4 cores.
if lane_enabled bench-large; then
  echo "== lane: bench-large =="
  if [ ! -x build/bench/ablation_engines ]; then
    cmake -B build -S . -DTXCONC_WERROR=ON
    cmake --build build -j"${JOBS}" --target ablation_engines
  fi
  BENCH_BIN="$(pwd)/build/bench/ablation_engines"
  mkdir -p build/bench-large
  (cd build/bench-large && env TXCONC_BENCH_LARGE=1 \
    TXCONC_BENCH_FAST="${TXCONC_BENCH_FAST:-1}" \
    "${BENCH_BIN}" > bench.log 2>&1)
  python3 - build/bench-large/BENCH.json <<'PYEOF'
import json, sys
rows = json.load(open(sys.argv[1]))["results"]
def grid(size):
    return {(r["executor"], r["threads"]) for r in rows
            if r["block_txs"] == size}
missing = grid(min(r["block_txs"] for r in rows)) - grid(10000)
if missing:
    sys.exit(f"bench-large FAILED: no 10k-tx row for {sorted(missing)}")
PYEOF
  scripts/bench_gate build/bench-large/BENCH.json
  echo "bench-large gate OK (10k-tx cells within tolerances + attainment)"
fi
