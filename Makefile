GO ?= go

.PHONY: build test check bench bench-city figures profile trace-smoke chaos-smoke archive-smoke shard-smoke metrics-smoke survivability federation-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-merge tier: vet, gofmt, build, and the full test
# suite under the race detector (exercises the parallel experiment
# pool), including the kind-registry guard test at the repo root. The
# extra -run Chaos / -run 'Erasure|Disperse' passes repeat the
# fault-injection and dispersal suites (crash soak, disperse soak,
# determinism regressions, RS property tests) under the race detector
# by name, so a rename that orphans them from the main run still fails
# loudly here. The archive and federation suites run three more times
# under the race detector: held pulls, probes and shutdown are timing
# dependent. The survivability smoke gates the migration-vs-dispersal
# matrix end to end through the figures binary.
check:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -run Chaos -race ./...
	$(GO) test -run 'Erasure|Disperse|Survivability' -race ./internal/erasure/ ./internal/storage/ ./internal/core/ ./internal/retrieval/ ./internal/experiments/
	$(GO) test -run ArchiveSoak -race -count=1 ./internal/archive/
	$(GO) test -race -count=3 ./internal/archive/ ./internal/federation/
	sh scripts/shard_smoke.sh
	sh scripts/metrics_smoke.sh
	sh scripts/survivability.sh
	sh scripts/federation_smoke.sh

# bench regenerates BENCH_erasure.json (erasure encode/decode benches,
# message-plane micro-benchmarks, the full-figure runs, and the
# disabled-path guards) and fails if the serial indoor figure regressed
# >2% beyond machine drift vs the BENCH_obs.json baseline.
bench:
	sh scripts/bench.sh

# survivability runs the migration-vs-dispersal head-to-head matrix
# (also part of `check`): 3 chaos scenarios x 2 storage modes; dispersal
# must keep strictly more data retrievable than migration under crashes.
survivability:
	sh scripts/survivability.sh

# trace-smoke runs a short traced indoor scenario end to end: JSONL
# schema validation, the enviromic-trace summary, and a Perfetto export.
trace-smoke:
	sh scripts/trace_smoke.sh

# chaos-smoke runs fault-injection scenarios end to end through the sim
# binary: leader crash + loss burst + partition with the invariant
# checker on, and a chaos-off determinism check.
chaos-smoke:
	sh scripts/chaos_smoke.sh

# archive-smoke runs the basestation archive end to end: a fixed-seed
# retrieval flushed into a fresh archive, a dedup no-op re-ingest, the
# HTTP query service (files/query/gaps/wav/stats via curl), and a
# torn-tail recovery after truncating a segment file.
archive-smoke:
	sh scripts/archive_smoke.sh

# shard-smoke repeats the serial-vs-sharded byte-identity regressions
# under the race detector (also part of `check`): shard workers, deposit
# lanes, and the barrier merge with every cross-shard handoff watched.
shard-smoke:
	sh scripts/shard_smoke.sh

# metrics-smoke scrapes /metrics end to end (also part of `check`): the
# sharded sim's PDES + radio series mid-run and the archive server's HTTP
# + store series with -access-log on.
metrics-smoke:
	sh scripts/metrics_smoke.sh

# bench-city regenerates BENCH_city.json: the ~10.4k-mote city scenario
# for one simulated hour on the serial and sharded engines, with a
# byte-identity check between the two. The >= 2.5x speedup gate is
# enforced only on hosts with >= 4 CPUs.
bench-city:
	sh scripts/bench_city.sh

# federation-smoke boots a 3-station federated cluster at the default
# intervals (also part of `check`): split city tours vs a single-station
# reference, convergence within 2 s of the last tour, byte-for-byte
# federated read diffs, one station stopped by SIGTERM while pulls are
# held on it (exit 0 within 1 s) and rejoined from its snapshots (cursor
# catch-up within 3 s).
federation-smoke:
	sh scripts/federation_smoke.sh

# profile runs the indoor scenario under the CPU and allocation
# profilers; inspect with `go tool pprof cpu.pprof` / `mem.pprof`.
profile:
	$(GO) run ./cmd/enviromic-sim -scenario indoor -duration 20m \
		-cpuprofile cpu.pprof -memprofile mem.pprof

figures:
	$(GO) run ./cmd/enviromic-figures -quick
