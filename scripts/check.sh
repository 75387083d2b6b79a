#!/usr/bin/env bash
# Full static + dynamic check gate for archis.
#
#   1. Default build (GCC or Clang) with -Werror=unused-result, full ctest.
#   2. If clang++ is available: ARCHIS_ANALYZE=ON build, which turns on
#      Clang thread-safety analysis with -Werror=thread-safety.
#   3. archis-lint over src/ and tools/ (domain-invariant checker).
#   4. recovery_fuzz smoke sweep: randomized WAL crash points, checkpoint
#      crash-phase sweeps, auto-checkpoint + crash combinations, and a
#      concurrent-writer pass (4 threads, fuzzy checkpoints mid-flight,
#      commit-time conflicts on a shared key) must all recover to the
#      durably-committed state exactly.
#   5. metrics smoke: archis-stats on a durable workload must produce the
#      full profile span tree and a well-formed, non-zero exposition.
#   6. flight-recorder trace: archis-stats runs the workload with the
#      always-on recorder, dumps the Chrome trace JSON, and trace_check
#      validates it structurally (snake_case names, phases, timestamps).
#   7. planner-forced equivalence: the translated-vs-native equivalence
#      suite re-runs with the physical planner pinned both ways
#      (ARCHIS_FORCE_PLAN=cost, then =fixed), so cost-based plans and the
#      legacy shape must both match native answers exactly.
#   8. archisd smoke: boots the network daemon on ephemeral ports with a
#      seeded workload, round-trips ping/query/update through
#      archis-client, scrapes GET /metrics and POSTs a query over the
#      HTTP shim, sends Q2-, Q4-, Q5- and Q6-shaped aggregate texts and
#      requires /metrics to report archis_queries_native_total 0, then
#      sends SIGTERM and requires a clean exit 0.
#   9. ThreadSanitizer build + full ctest, with the debug-build lock-rank
#      assertions live: every test doubles as a validation of the lock
#      hierarchy in src/common/lock_rank.h (DESIGN.md §7.4), and TSan
#      catches data races. The flight-recorder seqlock tests run here
#      too, so a data race in the ring protocol fails this step.
#  10. If clang-tidy is available: .clang-tidy checks over src/.
#
# Exits nonzero on the first failing step and prints a per-step timing
# summary on exit (success or failure). Run from the repo root:
#   scripts/check.sh
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"

STEP_NAMES=()
STEP_SECS=()
CURRENT_STEP=""
STEP_START=0

step() {
  step_end
  CURRENT_STEP="$1"
  STEP_START=$SECONDS
  echo "==> $1"
}

step_end() {
  if [[ -n "$CURRENT_STEP" ]]; then
    STEP_NAMES+=("$CURRENT_STEP")
    STEP_SECS+=($((SECONDS - STEP_START)))
    CURRENT_STEP=""
  fi
}

timing_summary() {
  local status=$?
  step_end
  if [[ ${#STEP_NAMES[@]} -gt 0 ]]; then
    echo
    echo "==> timing summary"
    local i
    for i in "${!STEP_NAMES[@]}"; do
      printf '    %4ss  %s\n' "${STEP_SECS[$i]}" "${STEP_NAMES[$i]}"
    done
    printf '    %4ss  total\n' "$SECONDS"
  fi
  if [[ $status -ne 0 ]]; then
    echo "==> FAILED (exit $status)"
  fi
  return "$status"
}
trap timing_summary EXIT

step "[1/10] default build + tests"
cmake -B build-check -S . >/dev/null
cmake --build build-check -j"$JOBS"
ctest --test-dir build-check --output-on-failure -j"$JOBS"

step "[2/10] clang thread-safety analysis (ARCHIS_ANALYZE=ON)"
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-analyze -S . \
    -DCMAKE_CXX_COMPILER=clang++ -DARCHIS_ANALYZE=ON >/dev/null
  cmake --build build-analyze -j"$JOBS"
else
  echo "    clang++ not found; skipping (annotations are no-ops under GCC)"
fi

step "[3/10] archis-lint (domain invariants)"
./build-check/tools/archis-lint src tools

step "[4/10] recovery fuzz (WAL crash points + checkpoint phases + concurrent writers)"
./build-check/tools/recovery_fuzz --runs "${FUZZ_RUNS:-8}"

step "[5/10] metrics smoke (profile spans + exposition)"
BUILD_DIR=build-check scripts/metrics_smoke.sh

step "[6/10] flight-recorder trace (workload -> Chrome trace -> trace_check)"
TRACE_TMP="$(mktemp /tmp/archis_trace.XXXXXX.json)"
./build-check/tools/archis-stats --workload --default-query --trace - \
  > "$TRACE_TMP"
./build-check/tools/trace_check "$TRACE_TMP" --min-events 50
rm -f "$TRACE_TMP"

step "[7/10] planner-forced equivalence (cost-based, then fixed)"
ARCHIS_FORCE_PLAN=cost ./build-check/tests/equivalence_test
ARCHIS_FORCE_PLAN=fixed ./build-check/tests/equivalence_test

step "[8/10] archisd smoke (boot, wire + HTTP round trips, clean SIGTERM)"
ARCHISD_DIR="$(mktemp -d /tmp/archisd_smoke.XXXXXX)"
# `exec` so $! is archisd itself, not a shell wrapper.
( exec ./build-check/tools/archisd --data "$ARCHISD_DIR/data" \
    --port 0 --http-port 0 --port-file "$ARCHISD_DIR/ports" \
    --seed-workload --employees 20 --years 2 ) \
  > "$ARCHISD_DIR/log" 2>&1 &
ARCHISD_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$ARCHISD_DIR/ports" ]] && break
  sleep 0.1
done
[[ -s "$ARCHISD_DIR/ports" ]] || {
  echo "archisd never wrote its port file"; cat "$ARCHISD_DIR/log"; exit 1; }
read -r ARCHISD_PORT ARCHISD_HTTP < "$ARCHISD_DIR/ports"
./build-check/tools/archis-client --port "$ARCHISD_PORT" ping
./build-check/tools/archis-client --port "$ARCHISD_PORT" query \
  'for $e in doc("employees.xml")/employees/employee return $e/name' \
  | grep -q '<results>'
./build-check/tools/archis-client --port "$ARCHISD_PORT" update \
  'insert employees|990001|Smoke Person|50000|Engineer|D1' \
  | grep -q 'committed 1'
if command -v curl >/dev/null 2>&1; then
  curl -sf "http://127.0.0.1:$ARCHISD_HTTP/metrics" \
    | grep -q 'archis_server_requests_total'
  curl -sf -X POST --data-binary \
    'for $e in doc("employees.xml")/employees/employee[id=990001]/name return $e' \
    "http://127.0.0.1:$ARCHISD_HTTP/query" | grep -q 'Smoke Person'
else
  # No curl in the image: a bare /dev/tcp HTTP/1.0 GET still proves the shim.
  exec 3<>"/dev/tcp/127.0.0.1/$ARCHISD_HTTP"
  printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
  grep -q 'archis_server_requests_total' <&3
  exec 3<&- 3>&-
fi
# The Table-3 aggregate shapes (Q2, Q4, Q5, Q6) must all translate: after
# them, /metrics still reports no native fallback.
for q in \
  'avg(doc("employees.xml")/employees/employee/salary[tstart(.) <= xs:date("1985-06-01") and tend(.) >= xs:date("1985-06-01")])' \
  'count(doc("employees.xml")/employees/employee/salary)' \
  'count(for $e in doc("employees.xml")/employees/employee where exists($e/salary[. > 60000 and tstart(.) <= xs:date("1986-01-01") and tend(.) >= xs:date("1985-06-01")]) return $e)' \
  'max(for $e in doc("employees.xml")/employees/employee for $s1 in $e/salary for $s2 in $e/salary where tstart($s1) >= xs:date("1985-01-01") and tstart($s2) > tstart($s1) and tstart($s2) <= tstart($s1) + 730 return number($s2) - number($s1))'
do
  ./build-check/tools/archis-client --port "$ARCHISD_PORT" query "$q" \
    | grep -q '<results'
done
if command -v curl >/dev/null 2>&1; then
  ARCHISD_METRICS="$(curl -sf "http://127.0.0.1:$ARCHISD_HTTP/metrics")"
else
  exec 3<>"/dev/tcp/127.0.0.1/$ARCHISD_HTTP"
  printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
  ARCHISD_METRICS="$(cat <&3)"
  exec 3<&- 3>&-
fi
grep -qx 'archis_queries_native_total 0' <<<"$ARCHISD_METRICS" || {
  echo "archisd answered a query by native fallback:"
  grep 'archis_queries_' <<<"$ARCHISD_METRICS"; exit 1; }
kill -TERM "$ARCHISD_PID"
ARCHISD_EXIT=0
wait "$ARCHISD_PID" || ARCHISD_EXIT=$?
[[ "$ARCHISD_EXIT" -eq 0 ]] || {
  echo "archisd exited $ARCHISD_EXIT on SIGTERM"; cat "$ARCHISD_DIR/log"
  exit 1; }
rm -rf "$ARCHISD_DIR"

step "[9/10] ThreadSanitizer + lock-rank assertions (full ctest)"
cmake -B build-tsan -S . -DARCHIS_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$JOBS"
ctest --test-dir build-tsan --output-on-failure -j"$JOBS"

step "[10/10] clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  cmake -B build-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  # shellcheck disable=SC2046
  clang-tidy -p build-tidy --warnings-as-errors='*' \
    $(find src -name '*.cc')
else
  echo "    clang-tidy not found; skipping"
fi

step_end
echo "==> all checks passed"
