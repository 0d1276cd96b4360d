#!/usr/bin/env bash
# CI entry point: build + test the default preset, re-run everything
# under ASan/UBSan, build the perfbench harness and run its self-test,
# run the fault-injection, cross-engine conformance,
# serving-layer, executor-concurrency, pattern-database,
# overload-protection, sharded-serving, and scoring-conformance
# suites as their own line items (service, database, overload, shard,
# and scoring also under ASan; the simd+conformance labels twice per
# preset — CRISPR_SIMD=scalar and native tier;
# concurrency/service/fault/overload/simd/shard/scoring under
# ThreadSanitizer via the tsan preset, since those are the suites that
# exercise the shared work-stealing pool), prove the
# -DCRISPR_METRICS=OFF configuration
# still builds and passes, smoke-test a cold-start-from-database
# server restart plus the --health readiness probe and an injected
# batch split driven from the environment, and archive a
# metrics + trace artifact from the platform explorer plus a
# serving-throughput row (coalesced vs serial, cold-compile vs
# database-load, and 1x/2x/4x overload goodput) from bench_service
# plus a per-tier SIMD kernel-throughput row from bench_hscan and a
# scored-vs-boolean / ranked-vs-post-hoc row from bench_e16_scoring.
#
# Usage: scripts/ci.sh [-j N]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
while getopts "j:" opt; do
    case "$opt" in
    j) jobs="$OPTARG" ;;
    *) echo "usage: $0 [-j N]" >&2; exit 2 ;;
    esac
done

run() {
    echo "==> $*"
    "$@"
}

for preset in default sanitize; do
    run cmake --preset "$preset"
    run cmake --build --preset "$preset" -j "$jobs"
    run ctest --preset "$preset" -j "$jobs" --timeout 600
done

# The benchmark harness (perfbench/) is its own CMake project over the
# library sources, so no build above compiles it: its self-test builds
# it and checks, at tiny sizes, that every workload emits each metric
# with its unit and that the correctness gate trips on a corrupted hit.
# This is what catches a library API change that breaks the benchmark.
run python3 perfbench/run.py --self-test

# The fault-injection label, by itself: `ctest -L fault` is the suite
# that proves the process survives injected compile/scan/parse faults.
run ctest --test-dir build -L fault --output-on-failure -j "$jobs" --timeout 600

# The conformance label: randomized workloads through every registry
# engine, bit-identical against the reference interpreter.
run ctest --test-dir build -L conformance --output-on-failure -j "$jobs" --timeout 600

# The SIMD matrix, twice per preset: once pinned to the scalar
# reference kernel via the CRISPR_SIMD override and once at the
# host's native tier, so a vector-kernel bug can never hide behind
# dispatch (and the conformance sweep re-rolls its random tier draws
# under both). Sanitizers see the vector kernels too: masked loads
# and lane tails are exactly where they earn their keep.
for tree in build build-sanitize; do
    run env CRISPR_SIMD=scalar ctest --test-dir "$tree" \
        -L "simd|conformance" --output-on-failure -j "$jobs" --timeout 600
    run ctest --test-dir "$tree" -L "simd|conformance" \
        --output-on-failure -j "$jobs" --timeout 600
done

# The serving layer, as its own line item on both presets: request
# coalescing is the most concurrency-heavy code in the library, so the
# service label runs under the sanitizers too.
run ctest --test-dir build -L service --output-on-failure -j "$jobs" --timeout 600
run ctest --test-dir build-sanitize -L service --output-on-failure \
    -j "$jobs" --timeout 600

# The concurrency label: the shared work-stealing Executor under
# skewed loads, backpressure, cancellation, and shutdown.
run ctest --test-dir build -L concurrency --output-on-failure \
    -j "$jobs" --timeout 600

# The pattern-database label on both presets: serialization round
# trips, corrupt-blob rejection, warm starts, and engine=auto
# conformance all touch the filesystem and deserialize attacker-shaped
# bytes, so it runs under ASan/UBSan as well.
run ctest --test-dir build -L database --output-on-failure -j "$jobs" --timeout 600
run ctest --test-dir build-sanitize -L database --output-on-failure \
    -j "$jobs" --timeout 600

# The overload label on both presets: bounded admission (request and
# byte bounds, reject-new and drop-oldest, prompt Error::overloaded),
# failures that stay with the request that caused them, and the
# bounded-queue chaos soak — the suite that proves the serving layer
# sheds at its one bound instead of collapsing.
run ctest --test-dir build -L overload --output-on-failure -j "$jobs" --timeout 600
run ctest --test-dir build-sanitize -L overload --output-on-failure \
    -j "$jobs" --timeout 600

# The sharded-serving label on both presets: bit-identity across
# shard (scan-lane) counts, chunk-seam correctness, the shard-count
# lane default, the packed ".2bit" reader (attacker-shaped file bytes,
# so ASan/UBSan matter), and load-once sharing under concurrent
# requests.
run ctest --test-dir build -L shard --output-on-failure -j "$jobs" --timeout 600
run ctest --test-dir build-sanitize -L shard --output-on-failure \
    -j "$jobs" --timeout 600

# The scoring conformance label on both presets: in-scan penalties
# bit-identical to the post-hoc recomputation on every engine,
# ranked-mode equivalence to filter-after-full-search, shard/geometry
# invariance of the ranked listing, and scored-state database round
# trips (deserialized weight tables are attacker-shaped bytes, so
# ASan/UBSan matter).
run ctest --test-dir build -L scoring --output-on-failure -j "$jobs" --timeout 600
run ctest --test-dir build-sanitize -L scoring --output-on-failure \
    -j "$jobs" --timeout 600

# ThreadSanitizer over every suite that touches the pool: the
# concurrency tier plus the service (coalescing + soak), fault
# (retry/fallback under injected failures), overload (bounded
# admission with drop-oldest shedding under 8-client saturation), and
# shard (pooled scan lanes under multi-group dispatch + concurrent
# packed loads) tiers. TSan
# cannot combine with ASan, so this is its own preset and build tree.
run cmake --preset tsan
run cmake --build --preset tsan -j "$jobs"
run ctest --test-dir build-tsan \
    -L "concurrency|service|fault|overload|simd|shard|scoring" \
    --output-on-failure -j "$jobs" --timeout 600

# The observability layer is compile-time optional; an OFF build must
# still compile and pass the whole tier-1 suite (histogram/trace tests
# skip themselves).
run cmake -B build-nometrics -S . -DCMAKE_BUILD_TYPE=Release \
    -DCRISPR_METRICS=OFF
run cmake --build build-nometrics -j "$jobs"
run ctest --test-dir build-nometrics --output-on-failure -j "$jobs" --timeout 600

# Archive a small observability artifact: per-engine metric maps and a
# chrome://tracing span file from one explorer sweep.
mkdir -p build/artifacts
run ./build/examples/platform_explorer --genome-mb 1 --guides 4 \
    --threads 2 --chunk-kb 128 --skip-slow \
    --metrics-json build/artifacts/engine_metrics.json \
    --trace-json build/artifacts/search_trace.json
test -s build/artifacts/engine_metrics.json
test -s build/artifacts/search_trace.json

# Cold-start-from-database smoke test: run the demo server twice
# against the same database directory. The first run compiles and
# persists; the second must pre-warm from the directory (a non-zero
# service.db_preloaded proves the service found the blobs) and serve
# the same requests.
db_smoke_dir=$(mktemp -d)
trap 'rm -rf "$db_smoke_dir"' EXIT
run ./build/examples/search_server --engine auto \
    --db-dir "$db_smoke_dir" > build/artifacts/db_smoke_cold.txt
run ./build/examples/search_server --engine auto --health \
    --db-dir "$db_smoke_dir" > build/artifacts/db_smoke_warm.txt
grep -q 'service.db_preloaded' build/artifacts/db_smoke_warm.txt
# --health doubles as the readiness probe: an idle post-serve service
# must report ready (exit 0, checked by `run` via set -e) and say so.
grep -q 'ready *| *yes' build/artifacts/db_smoke_warm.txt
! grep -q 'service.db_preloaded *| *0\.00' \
    build/artifacts/db_smoke_warm.txt

# Batch-split smoke, driven from outside the process: a fault armed
# through the environment fails the demo server's merged compile, so
# its one batch must split into serial runs (one split, nothing
# coalesced) and still serve every request (exit 0, checked by `run`).
run env CRISPR_FAULTPOINTS="session.compile=once" \
    ./build/examples/search_server > build/artifacts/batch_split_smoke.txt
grep -q 'service.batch_splits *| *1\.00' \
    build/artifacts/batch_split_smoke.txt
grep -q 'service.coalesced *| *0\.00' \
    build/artifacts/batch_split_smoke.txt

# Serving-layer throughput row (small shape for CI speed): coalesced
# vs serial requests/sec plus the cold-compile vs pattern-database
# startup and overload goodput rows, archived for trend tracking. The
# fresh row is also copied next to the committed BENCH_service.json
# snapshot at the repo root so a reviewer can diff the trajectory.
run ./build/bench/bench_service --genome-mb 2 --requests 64 \
    --db-compare --overload \
    --json build/artifacts/BENCH_service.json
test -s build/artifacts/BENCH_service.json
grep -q '"db_speedup_100"' build/artifacts/BENCH_service.json
grep -q '"overload_4x_goodput_rps"' build/artifacts/BENCH_service.json
run cp build/artifacts/BENCH_service.json BENCH_service.latest.json

# Kernel-level SIMD throughput row: scalar/avx2/avx512 bytes/sec on
# the Shift-Or scan across d=1/3/5 x 10/100/1000 guides (unusable
# tiers are skipped with a note). The binary itself asserts every
# tier reports identical event counts, so this doubles as one more
# cross-tier identity check on a bench-sized workload.
run ./build/bench/bench_hscan --simd-compare \
    --json build/artifacts/BENCH_hscan.json
test -s build/artifacts/BENCH_hscan.json
grep -q '"shiftor_scalar_d3_g100_bps"' build/artifacts/BENCH_hscan.json
grep -q '"best_tier"' build/artifacts/BENCH_hscan.json
run cp build/artifacts/BENCH_hscan.json BENCH_hscan.latest.json

# Scored-automata row (small shape for CI speed): in-scan scoring
# overhead vs the boolean baseline and the integrated ranked path vs
# boolean + post-hoc rescoring, on the hit-dense guide-family
# workload. The binary fatals if the two ranked listings diverge, so
# this doubles as a conformance check at bench scale.
run ./build/bench/bench_e16_scoring --genome-mb 1 --guides 200 \
    --reps 3 --json build/artifacts/BENCH_e16_scoring.json
test -s build/artifacts/BENCH_e16_scoring.json
grep -q '"scored_vs_boolean"' build/artifacts/BENCH_e16_scoring.json
grep -q '"ranked_speedup"' build/artifacts/BENCH_e16_scoring.json
run cp build/artifacts/BENCH_e16_scoring.json \
    BENCH_e16_scoring.latest.json

echo "==> ci: all green"
