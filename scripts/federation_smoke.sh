#!/bin/sh
# End-to-end smoke test for the multi-basestation federation:
#   1. boot three federated archive stations (full-mesh replication, the
#      binary's default intervals) and one unfederated reference station,
#   2. run the fixed-seed city retrieval twice: flushed whole into the
#      reference, then the identical run with its tours split round-robin
#      across the three stations,
#   3. require every station's /stats to match the reference exactly
#      (files, chunks, bytes — the dedup counters of the merged view)
#      within 2 s of the last tour: held pulls, not the 2 s replication
#      interval, decide how soon copies exist,
#   4. diff the federated /files, /query, and /gaps responses against
#      the reference byte for byte, and cmp a /wav export,
#   5. SIGTERM one station while its peers' pulls are held on it: it must
#      exit 0 within 1 s, and a complete file must still come back
#      byte-identical via any survivor,
#   6. ingest fresh data while the station is down, restart it, and
#      require it to open every shard from the snapshot its clean
#      shutdown wrote and its persisted replication cursor to catch it
#      back up within 3 s.
# Exits non-zero on the first failure. Usage: scripts/federation_smoke.sh
set -e
cd "$(dirname "$0")/.."

tmp="${TMPDIR:-/tmp}/enviromic-federation-smoke.$$"
mkdir -p "$tmp"
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2> /dev/null || true; done
    wait # a stopping station still writes its snapshots
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/retrieve" ./cmd/enviromic-retrieve
go build -o "$tmp/archive" ./cmd/enviromic-archive

# Fixed ports derived from the PID keep parallel runs apart; stations
# must know each other's addresses before they start, so :0 won't do.
base_port=$((20000 + $$ % 30000))
p1=$base_port; p2=$((base_port + 1)); p3=$((base_port + 2)); p4=$((base_port + 3))
u1="http://127.0.0.1:$p1"; u2="http://127.0.0.1:$p2"; u3="http://127.0.0.1:$p3"
ref="http://127.0.0.1:$p4"

start_station() { # name port peers logfile
    "$tmp/archive" -dir "$tmp/$1" -http "127.0.0.1:$2" -station "$1" \
        -peers "$3" > "$tmp/$4" 2>&1 &
    pids="$pids $!"
}

wait_ready() { # url
    for _ in $(seq 1 100); do
        curl -fsS "$1/stats" > /dev/null 2>&1 && return 0
        sleep 0.1
    done
    echo "FAIL: $1 never became ready"; exit 1
}

stat_field() { # url field -> first (top-level) value
    curl -fsS "$1/stats" | sed -n "s/.*\"$2\": \([0-9]*\).*/\1/p" | head -1
}

now_ms() { echo $(($(date +%s%N) / 1000000)); }

holdings() { # url -> "files chunks bytes"
    echo "$(stat_field "$1" files) $(stat_field "$1" chunks) $(stat_field "$1" bytes)"
}

wait_holdings() { # url want budget_ms since_ms
    while :; do
        got=$(holdings "$1")
        [ "$got" = "$2" ] && return 0
        [ $(($(now_ms) - $4)) -gt "$3" ] && {
            echo "FAIL: $1 holds ($got), not ($2), $3 ms on"; exit 1; }
        sleep 0.05
    done
}

echo "== 1. boot 3 federated stations + 1 reference"
start_station s1 "$p1" "s2=127.0.0.1:$p2,s3=127.0.0.1:$p3" s1.log
start_station s2 "$p2" "s1=127.0.0.1:$p1,s3=127.0.0.1:$p3" s2.log
start_station s3 "$p3" "s1=127.0.0.1:$p1,s2=127.0.0.1:$p2" s3.log
"$tmp/archive" -dir "$tmp/ref" -http "127.0.0.1:$p4" > "$tmp/ref.log" 2>&1 &
pids="$pids $!"
ref_pid=$!
wait_ready "$u1"; wait_ready "$u2"; wait_ready "$u3"; wait_ready "$ref"

echo "== 2. fixed-seed city tours: whole into reference vs split across stations"
"$tmp/retrieve" -scenario city -duration 30s -seed 7 \
    -archive "$ref," > "$tmp/whole.out"
ref_chunks=$(stat_field "$ref" chunks)
[ -n "$ref_chunks" ] && [ "$ref_chunks" -gt 0 ] || {
    echo "FAIL: reference archived no chunks"; exit 1; }
"$tmp/retrieve" -scenario city -duration 30s -seed 7 \
    -archive "$u1,$u2,$u3" > "$tmp/split.out"
last_tour=$(now_ms)
grep -Eq 'tour 1 -> http://[0-9.:]*:' "$tmp/split.out" || {
    echo "FAIL: split run did not flush to stations"; cat "$tmp/split.out"; exit 1; }

echo "== 3. replication convergence within 2 s: every station -> $ref_chunks chunks"
# Full holdings everywhere: files/chunks/bytes identical to the
# reference on every station (the dedup counters of the merged view).
ref_sum=$(holdings "$ref")
for u in "$u1" "$u2" "$u3"; do
    wait_holdings "$u" "$ref_sum" 2000 "$last_tour"
done
echo "converged $(($(now_ms) - last_tour)) ms after the last tour"

echo "== 4. federated reads == reference, byte for byte"
curl -fsS "$ref/files" > "$tmp/ref-files.json"
fid=$(sed -n 's/.*"id": \([0-9]*\).*/\1/p' "$tmp/ref-files.json" | head -1)
[ -n "$fid" ] || { echo "FAIL: reference lists no files"; exit 1; }
for u in "$u1" "$u2" "$u3"; do
    for path in "/files" "/query?from=0s&to=10m" "/files/$fid" "/files/$fid/gaps"; do
        curl -fsS "$u$path" > "$tmp/fed.json"
        curl -fsS "$ref$path" > "$tmp/ref.json"
        cmp -s "$tmp/fed.json" "$tmp/ref.json" || {
            echo "FAIL: $u$path differs from reference"; exit 1; }
    done
done
curl -fsS "$u1/files/$fid/wav" > "$tmp/fed.wav"
curl -fsS "$ref/files/$fid/wav" > "$tmp/ref.wav"
cmp -s "$tmp/fed.wav" "$tmp/ref.wav" || {
    echo "FAIL: federated WAV differs from reference"; exit 1; }
head -c 4 "$tmp/fed.wav" | grep -q RIFF || {
    echo "FAIL: federated WAV is not a RIFF file"; exit 1; }

echo "== 5. SIGTERM s3 while its peers' pulls are held: exit 0 within 1 s"
s3_pid=$(echo "$pids" | awk '{print $3}')
held=""
for _ in $(seq 1 100); do
    n=$(curl -fsS "$u3/metrics" | sed -n 's/^enviromic_http_in_flight \([0-9]*\).*/\1/p')
    [ "${n:-0}" -ge 1 ] && { held=1; break; }
    sleep 0.02
done
[ -n "$held" ] || { echo "FAIL: no pull held on s3"; exit 1; }
t0=$(now_ms)
kill -TERM "$s3_pid"
rc=0
wait "$s3_pid" || rc=$?
took=$(($(now_ms) - t0))
[ "$rc" -eq 0 ] || { echo "FAIL: s3 exited $rc on SIGTERM"; cat "$tmp/s3.log"; exit 1; }
[ "$took" -lt 1000 ] || { echo "FAIL: s3 took $took ms to stop"; exit 1; }
echo "s3 stopped in $took ms"
for u in "$u1" "$u2"; do
    curl -fsS "$u/files" > "$tmp/fed.json"
    cmp -s "$tmp/fed.json" "$tmp/ref-files.json" || {
        echo "FAIL: $u/files incomplete after losing s3"; exit 1; }
    curl -fsS "$u/files/$fid/wav" > "$tmp/fed.wav"
    cmp -s "$tmp/fed.wav" "$tmp/ref.wav" || {
        echo "FAIL: $u WAV not byte-identical after losing s3"; exit 1; }
done

echo "== 6. rejoin: persisted cursor catches s3 back up"
# New data lands at s1 while s3 is down (the grid scenario uses its own
# file IDs, so this strictly grows the holdings).
"$tmp/retrieve" -duration 1m -seed 11 -archive "$u1," > "$tmp/extra.out"
s1_chunks=$(stat_field "$u1" chunks)
[ "$s1_chunks" -gt "$ref_chunks" ] || {
    echo "FAIL: extra ingest did not grow s1"; exit 1; }
s1_sum=$(holdings "$u1")
restart=$(now_ms)
start_station s3 "$p3" "s1=127.0.0.1:$p1,s2=127.0.0.1:$p2" s3-rejoin.log
wait_ready "$u3"
grep -q 'recovered:' "$tmp/s3-rejoin.log" && {
    echo "FAIL: s3 restart tore its segments"; exit 1; }
shards=$(stat_field "$u3" shards)
loads=$(stat_field "$u3" open.snapshot_loads)
fallbacks=$(stat_field "$u3" open.snapshot_fallbacks)
[ "$loads" = "$shards" ] && [ "$fallbacks" = 0 ] || {
    echo "FAIL: s3 reopened $loads/$shards shards from snapshots ($fallbacks rescans)"; exit 1; }
wait_holdings "$u3" "$s1_sum" 3000 "$restart"
echo "s3 caught up $(($(now_ms) - restart)) ms after its restart"

echo "federation smoke: OK"
