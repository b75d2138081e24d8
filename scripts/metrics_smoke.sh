#!/bin/sh
# End-to-end smoke test for the /metrics telemetry plumbing:
#   1. run a sharded indoor simulation with -http and scrape /metrics
#      mid-run: the PDES series (per-shard events, windows, barriers,
#      barrier-wait histogram) and the radio counters must be present
#      and advancing,
#   2. serve an archive over HTTP with -access-log and scrape /metrics:
#      the per-endpoint HTTP series, the store gauges, and the pipeline
#      histograms must be exposed, and each request must produce one
#      structured JSON log line.
# Exits non-zero on the first failure. Usage: scripts/metrics_smoke.sh
set -e
cd "$(dirname "$0")/.."

tmp="${TMPDIR:-/tmp}/enviromic-metrics-smoke.$$"
mkdir -p "$tmp"
sim_pid=""
server_pid=""
cleanup() {
    [ -n "$sim_pid" ] && kill "$sim_pid" 2> /dev/null || true
    [ -n "$server_pid" ] && kill "$server_pid" 2> /dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/sim" ./cmd/enviromic-sim
go build -o "$tmp/archive" ./cmd/enviromic-archive

# wait_addr <logfile> <sed-pattern> <pid>: poll until the server
# announces its bound address, echo it.
wait_addr() {
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n "$2" "$1")
        [ -n "$addr" ] && break
        kill -0 "$3" 2> /dev/null || {
            echo "FAIL: process exited before announcing its address" >&2
            cat "$1" >&2; exit 1; }
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "FAIL: no address announced" >&2; cat "$1" >&2; exit 1; }
    echo "$addr"
}

echo "== 1. sharded simulation exposes PDES + radio series on /metrics"
# The duration is deliberately enormous: the scrape happens mid-run and
# the process is killed once the series have advanced.
"$tmp/sim" -scenario indoor -duration 2000h -shards 2 -seed 3 \
    -http 127.0.0.1:0 > "$tmp/sim.out" 2>&1 &
sim_pid=$!
base=$(wait_addr "$tmp/sim.out" 's|debug http on \(http://[0-9.:]*\) .*|\1|p' "$sim_pid")

ok=""
for _ in $(seq 1 100); do
    curl -fsS "$base/metrics" > "$tmp/sim.metrics" 2> /dev/null || { sleep 0.1; continue; }
    if grep -Eq '^enviromic_sim_windows_total [1-9]' "$tmp/sim.metrics" &&
        grep -Eq '^enviromic_radio_tx_frames_total [1-9]' "$tmp/sim.metrics"; then
        ok=1
        break
    fi
    sleep 0.1
done
[ -n "$ok" ] || { echo "FAIL: sim series never advanced"; cat "$tmp/sim.metrics"; exit 1; }

for series in \
    'enviromic_sim_shard_events_total\{shard="0"\}' \
    'enviromic_sim_shard_events_total\{shard="1"\}' \
    'enviromic_sim_barriers_total' \
    'enviromic_sim_barrier_wait_seconds_bucket' \
    'enviromic_sim_deposit_lane_depth_bucket' \
    'enviromic_sim_time_seconds' \
    'enviromic_sim_progress' \
    'enviromic_radio_drops_total\{cause="loss"\}'; do
    grep -Eq "^$series" "$tmp/sim.metrics" || {
        echo "FAIL: series $series missing from sim /metrics"; exit 1; }
done
# Every exposed family carries HELP and TYPE headers.
grep -q '^# HELP enviromic_sim_windows_total ' "$tmp/sim.metrics" || {
    echo "FAIL: HELP line missing"; exit 1; }
grep -Eq '^# TYPE enviromic_sim_barrier_wait_seconds histogram$' "$tmp/sim.metrics" || {
    echo "FAIL: TYPE line missing"; exit 1; }
kill "$sim_pid" && wait "$sim_pid" 2> /dev/null || true
sim_pid=""

echo "== 2. archive server exposes HTTP + store series, -access-log logs"
"$tmp/archive" -dir "$tmp/store" -http 127.0.0.1:0 -access-log \
    > "$tmp/server.out" 2> "$tmp/server.log" &
server_pid=$!
base=$(wait_addr "$tmp/server.out" 's|serving on \(http://[0-9.:]*\) .*|\1|p' "$server_pid")

curl -fsS "$base/files" > /dev/null
curl -fsS "$base/stats" > /dev/null
curl -fsS "$base/metrics" > "$tmp/archive.metrics"

for series in \
    'enviromic_http_requests_total\{.*endpoint="/files".*\} [1-9]' \
    'enviromic_http_request_seconds_bucket\{.*endpoint="/stats"' \
    'enviromic_http_in_flight ' \
    'enviromic_archive_files ' \
    'enviromic_archive_cache_hit_ratio ' \
    'enviromic_archive_ingest_chunks_total ' \
    'enviromic_archive_group_commit_batch_size_bucket' \
    'enviromic_archive_fsync_seconds_bucket'; do
    grep -Eq "^$series" "$tmp/archive.metrics" || {
        echo "FAIL: series $series missing from archive /metrics"; exit 1; }
done
grep -q '"msg":"request"' "$tmp/server.log" || {
    echo "FAIL: -access-log produced no structured log lines"
    cat "$tmp/server.log"; exit 1; }
grep -q '"path":"/files"' "$tmp/server.log" || {
    echo "FAIL: access log missing the /files request"; exit 1; }
kill "$server_pid" && wait "$server_pid" 2> /dev/null || true
server_pid=""

echo "metrics smoke: OK"
