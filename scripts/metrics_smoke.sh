#!/usr/bin/env bash
# Metrics smoke test: drives tools/archis-stats through a durable employee
# workload plus a profiled snapshot query, then asserts that
#   - the trace profile contains the parse/translate/execute/plan/
#     segment_scan/join span tree,
#   - the Prometheus exposition is well-formed and every load-bearing
#     instrument (WAL fsync, block cache, page IO, segment usefulness,
#     the per-stage latency of translation) actually moved.
#
# Usage: BUILD_DIR=build scripts/metrics_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
BIN="$BUILD_DIR/tools/archis-stats"
if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not built" >&2
  exit 1
fi

WAL="$(mktemp -u /tmp/archis-metrics-smoke.XXXXXX.wal)"
trap 'rm -f "$WAL"' EXIT

OUT="$("$BIN" --workload --employees 60 --years 8 --wal "$WAL" \
              --default-query --repeat 2 --profile)"

fail() {
  echo "metrics smoke FAILED: $1" >&2
  echo "---- archis-stats output ----" >&2
  echo "$OUT" >&2
  exit 1
}

# 1. The profile renders the full span tree. (Herestrings, not
#    `echo | grep -q`: under pipefail an early-exiting grep -q can EPIPE
#    the echo and fail the check even though the pattern matched.)
for span in query parse translate execute plan segment_scan join; do
  grep -qE "^ *$span +[0-9.]+ ms" <<<"$OUT" \
    || fail "profile is missing span '$span'"
done

# 2. Load-bearing counters moved: WAL group commit, block cache, page IO,
#    clustering, capture, query accounting.
for metric in \
    archis_wal_fsync_seconds_count \
    archis_wal_syncs_total \
    archis_block_cache_hits_total \
    archis_page_reads_total \
    archis_segment_freezes_total \
    archis_segment_freeze_usefulness_count \
    archis_txn_commits_total \
    archis_changes_captured_total \
    archis_queries_translated_total \
    archis_query_seconds_count; do
  grep -qE "^$metric [1-9][0-9]*$" <<<"$OUT" \
    || fail "metric '$metric' absent or zero"
done
# Per-stage latency is scrapeable: the translate stage was observed.
grep -qE '^archis_stage_seconds_count\{stage="translate"\} [1-9][0-9]*$' \
    <<<"$OUT" \
  || fail "archis_stage_seconds{stage=\"translate\"} absent or zero"

# 3. The sliding-window families render their labeled gauges (rate plus
#    percentiles over the trailing windows — DESIGN.md §14.5).
for line in \
    'archis_query_window_seconds\{window="1s",stat="rate"\}' \
    'archis_query_window_seconds\{window="60s",stat="p99"\}' \
    'archis_fsync_window_seconds\{window="10s",stat="p95"\}'; do
  grep -qE "^$line " <<<"$OUT" \
    || fail "windowed gauge '$line' absent from exposition"
done

# 4. Exposition well-formedness: after '== metrics ==', every line is a
#    comment or `name[{label="...",...}] value` (labels cover `le` buckets,
#    windowed `window`/`stat` pairs and breakdown families like
#    `archis_txn_abort_total{reason=...}`).
BAD=$(echo "$OUT" | sed -n '/^== metrics ==$/,$p' | tail -n +2 | grep -vE \
  '^(# (HELP|TYPE) .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? -?[0-9][0-9eE.+-]*)$' \
  || true)
[[ -z "$BAD" ]] || fail "malformed exposition lines: $BAD"

echo "metrics smoke passed"
