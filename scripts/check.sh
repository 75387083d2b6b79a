#!/usr/bin/env bash
# Full static + dynamic check gate for archis.
#
#   1. Default build (GCC or Clang) with -Werror=unused-result, full ctest,
#      and one pass of BM_GenerateHistory (the write path end to end, at
#      paper scale and at 8x with BlockZIP) as a smoke test.
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
#   7. archisd smoke: boots the network daemon on ephemeral ports with a
#      seeded workload, round-trips ping/query/update through
#      archis-client, scrapes GET /metrics and POSTs a query over the
#      HTTP shim, sends Q2-, Q4-, Q5- and Q6-shaped aggregate texts and
#      requires /metrics to report archis_queries_native_total 0 and
#      per-stage latency (archis_stage_seconds) for the query stages and
#      queue_wait, then sends SIGTERM and requires a clean exit 0. A
#      restart round boots archisd again on the same --data without the
#      seed, requires the row committed over the wire to come back through
#      recovery, and requires a second clean SIGTERM.
#   8. ThreadSanitizer build + full ctest, with the debug-build lock-rank
#      assertions live: every test doubles as a validation of the lock
#      hierarchy in src/common/lock_rank.h (DESIGN.md §7.4), and TSan
#      catches data races. The flight-recorder seqlock tests run here
#      too, so a data race in the ring protocol fails this step.
#   9. If clang-tidy is available: .clang-tidy checks over src/.
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

step "[1/9] default build + tests"
cmake -B build-check -S . >/dev/null
cmake --build build-check -j"$JOBS"
ctest --test-dir build-check --output-on-failure -j"$JOBS"
GEN_OUT="$(./build-check/bench/bench_updates \
  --benchmark_filter=BM_GenerateHistory --benchmark_min_time=0.001)"
echo "$GEN_OUT"
[[ "$(grep -c 'updates_per_s=' <<<"$GEN_OUT")" -eq 2 ]] || {
  echo "BM_GenerateHistory did not complete both scales"; exit 1; }

step "[2/9] clang thread-safety analysis (ARCHIS_ANALYZE=ON)"
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-analyze -S . \
    -DCMAKE_CXX_COMPILER=clang++ -DARCHIS_ANALYZE=ON >/dev/null
  cmake --build build-analyze -j"$JOBS"
else
  echo "    clang++ not found; skipping (annotations are no-ops under GCC)"
fi

step "[3/9] archis-lint (domain invariants)"
./build-check/tools/archis-lint src tools

step "[4/9] recovery fuzz (WAL crash points + checkpoint phases + concurrent writers)"
./build-check/tools/recovery_fuzz --runs "${FUZZ_RUNS:-8}"

step "[5/9] metrics smoke (profile spans + exposition)"
BUILD_DIR=build-check scripts/metrics_smoke.sh

step "[6/9] flight-recorder trace (workload -> Chrome trace -> trace_check)"
TRACE_TMP="$(mktemp /tmp/archis_trace.XXXXXX.json)"
./build-check/tools/archis-stats --workload --default-query --trace - \
  > "$TRACE_TMP"
./build-check/tools/trace_check "$TRACE_TMP" --min-events 50
rm -f "$TRACE_TMP"

step "[7/9] archisd smoke (boot, wire + HTTP round trips, clean SIGTERM, restart)"
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
  # Captured first: `grep -q` exits at the first match, and under pipefail
  # curl's write error on the closed pipe (exit 23) would fail the step.
  grep -q 'archis_server_requests_total' \
    <<<"$(curl -sf "http://127.0.0.1:$ARCHISD_HTTP/metrics")"
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
for stage in parse translate plan segment_scan join native_eval queue_wait; do
  grep -q "^archis_stage_seconds_count{stage=\"$stage\"} " \
    <<<"$ARCHISD_METRICS" || {
    echo "archisd /metrics lacks archis_stage_seconds{stage=\"$stage\"}"
    exit 1; }
done
# Stops archisd with SIGTERM and requires a clean exit 0.
stop_archisd() {
  kill -TERM "$ARCHISD_PID"
  ARCHISD_EXIT=0
  wait "$ARCHISD_PID" || ARCHISD_EXIT=$?
  [[ "$ARCHISD_EXIT" -eq 0 ]] || {
    echo "archisd exited $ARCHISD_EXIT on SIGTERM"; cat "$ARCHISD_DIR/log"
    exit 1; }
}
stop_archisd
# Restart round: boot again on the same --data without --seed-workload, so
# the store comes back only through checkpoint + WAL recovery, and the
# wire-committed row must still be there.
rm -f "$ARCHISD_DIR/ports"
( exec ./build-check/tools/archisd --data "$ARCHISD_DIR/data" \
    --port 0 --http-port 0 --port-file "$ARCHISD_DIR/ports" ) \
  > "$ARCHISD_DIR/log" 2>&1 &
ARCHISD_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$ARCHISD_DIR/ports" ]] && break
  sleep 0.1
done
[[ -s "$ARCHISD_DIR/ports" ]] || {
  echo "restarted archisd never wrote its port file"; cat "$ARCHISD_DIR/log"
  exit 1; }
read -r ARCHISD_PORT ARCHISD_HTTP < "$ARCHISD_DIR/ports"
./build-check/tools/archis-client --port "$ARCHISD_PORT" query \
  'for $e in doc("employees.xml")/employees/employee[id=990001]/name return $e' \
  | grep -q 'Smoke Person' || {
  echo "restarted archisd lost the committed row"; cat "$ARCHISD_DIR/log"
  exit 1; }
stop_archisd
rm -rf "$ARCHISD_DIR"

step "[8/9] ThreadSanitizer + lock-rank assertions (full ctest)"
cmake -B build-tsan -S . -DARCHIS_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$JOBS"
ctest --test-dir build-tsan --output-on-failure -j"$JOBS"

step "[9/9] clang-tidy"
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
