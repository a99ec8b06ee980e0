#!/usr/bin/env bash
# Sanitizer gate for the tier-1 suite.
#
#   tools/check_sanitize.sh [asan] [build-dir]   (default mode, default dir
#       build-sanitize): AddressSanitizer + UndefinedBehaviorSanitizer over
#       the full tier-1 test suite.
#   tools/check_sanitize.sh tsan [build-dir]     (default dir build-tsan):
#       ThreadSanitizer over the thread-pool, dataset-collection, and
#       flight-recorder tests — the parts that exercise the parallel
#       execution layer and the lock-free crash ring.
#   tools/check_sanitize.sh resilience [build-dir]  (default dir
#       build-sanitize): ASan+UBSan over just the error-taxonomy and
#       resilience tests — the fast gate for changes to the fallback
#       ladders, cache integrity checks, or Status plumbing. (The default
#       asan mode also covers these as part of the full suite.)
#   tools/check_sanitize.sh chaos [build-dir]     (default dir build-tsan):
#       ThreadSanitizer over the serving layer: the serve unit/integration
#       tests plus the serving_suite chaos harness with every --inject
#       scenario. Gates zero alarm loss AND zero data races across the
#       watchdog failover, overload shed, and checkpoint kill paths, all
#       on the producer-lane (SPSC ring) ingest path — the fleet's only
#       one, and the one the serving throughput numbers measure.
#   tools/check_sanitize.sh sweep [build-dir]     (default dir
#       build-sanitize): ASan+UBSan over the scenario sweep engine: the
#       journal/supervisor unit tests, then the sweep_suite chaos harness's
#       supervisor_kill mode (SIGKILL the supervisor mid-sweep, --resume
#       from the journal, assert the final CSV/JSON byte-identical to an
#       uninterrupted reference run).
#
# Any sanitizer report fails the run (halt_on_error / abort flags).
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="asan"
if [[ $# -ge 1 && ( "$1" == "asan" || "$1" == "tsan" || "$1" == "resilience" || "$1" == "chaos" || "$1" == "sweep" ) ]]; then
  MODE="$1"
  shift
fi

if [[ "$MODE" == "tsan" ]]; then
  BUILD_DIR="${1:-build-tsan}"
  cmake -B "$BUILD_DIR" -S . -DVMAP_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD_DIR" -j"$(nproc)" \
    --target parallel_test dataset_pipeline_test flight_recorder_test
  export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
  # Run with more worker threads than cores so interleavings actually occur.
  export VMAP_THREADS=4
  ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R 'parallel_test|dataset_pipeline_test|flight_recorder_test'
  echo "thread-sanitize check passed (${BUILD_DIR})"
elif [[ "$MODE" == "chaos" ]]; then
  BUILD_DIR="${1:-build-tsan}"
  cmake -B "$BUILD_DIR" -S . -DVMAP_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD_DIR" -j"$(nproc)" \
    --target serve_test serve_fleet_test serving_suite
  export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
  ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R 'serve_test|serve_fleet_test'
  # The chaos harness under TSan: a smaller throughput load (TSan is ~10x),
  # every injection scenario. Exit 1 = an invariant broke (alarm loss,
  # decision divergence); a TSan report aborts via halt_on_error.
  "$BUILD_DIR"/bench/serving_suite --threads-list 2,4 --chips 8 \
    --samples 400 --inject all
  echo "chaos sanitize check passed (${BUILD_DIR})"
elif [[ "$MODE" == "sweep" ]]; then
  BUILD_DIR="${1:-build-sanitize}"
  cmake -B "$BUILD_DIR" -S . -DVMAP_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD_DIR" -j"$(nproc)" \
    --target sweep_journal_test sweep_test telemetry_merge_test \
    sweep_worker sweep_suite
  export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
  export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
  ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R 'sweep_journal_test|sweep_test|telemetry_merge_test'
  # The kill/resume identity gate: a reference sweep of the tiny 3x2
  # matrix, then a supervisor SIGKILLed mid-sweep and resumed from its
  # journal; exit 1 if the final CSV/JSON differ by one byte or any job
  # was lost. Real sweep_worker subprocesses run under ASan too, and
  # --telemetry on additionally gates shard-merge determinism plus the
  # quarantine flight-tail contract.
  rm -rf "$BUILD_DIR"/sweep_smoke
  "$BUILD_DIR"/bench/sweep_suite --inject supervisor_kill \
    --worker "$BUILD_DIR"/tools/sweep_worker \
    --work-dir "$BUILD_DIR"/sweep_smoke --parallel 2 --telemetry on
  echo "sweep sanitize check passed (${BUILD_DIR})"
elif [[ "$MODE" == "resilience" ]]; then
  BUILD_DIR="${1:-build-sanitize}"
  cmake -B "$BUILD_DIR" -S . -DVMAP_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD_DIR" -j"$(nproc)" \
    --target status_test resilience_test
  export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
  export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
  ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R 'status_test|resilience_test'
  echo "resilience sanitize check passed (${BUILD_DIR})"
else
  BUILD_DIR="${1:-build-sanitize}"
  cmake -B "$BUILD_DIR" -S . -DVMAP_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD_DIR" -j"$(nproc)"
  export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
  export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"
  echo "sanitize check passed (${BUILD_DIR})"
fi
