// Command enviromic-archive opens a basestation chunk archive (an
// on-disk directory written by `enviromic-retrieve -archive` or by this
// binary's HTTP ingest endpoint) and either lists its contents or serves
// the concurrent HTTP query API.
//
// Examples:
//
//	enviromic-archive -dir /data/arch -ls
//	enviromic-archive -dir /data/arch -http localhost:8080
//	enviromic-archive -dir /data/a1 -http :8081 -station s1 -peers s2=localhost:8082,s3=localhost:8083
//	curl 'http://localhost:8080/query?from=10s&to=60s&origins=3,4'
//	curl 'http://localhost:8080/files/1/gaps?tolerance=250ms'
//	curl -o file1.wav 'http://localhost:8080/files/1/wav'
//
// The -http listener also exposes the standard pprof and expvar debug
// endpoints (/debug/pprof, /debug/vars), mirroring enviromic-sim's -http
// wiring; archive op counters are published as expvar "archive_stats".
// SIGTERM or SIGINT stops the server cleanly: held replication pulls are
// answered, in-flight requests drain (at most 5 s), and the archive is
// closed with fresh index snapshots, so the next start needs no scan.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"enviromic/internal/archive"
	"enviromic/internal/federation"
	"enviromic/internal/telemetry"
)

func main() {
	var (
		dir      = flag.String("dir", "", "archive directory (required)")
		shards   = flag.Int("shards", 8, "shard count when creating a fresh archive")
		httpAddr = flag.String("http", "", "serve the query API on this address (e.g. localhost:8080; :0 picks a free port)")
		ls       = flag.Bool("ls", false, "list archived files and exit")
		tol      = flag.Duration("gap-tolerance", 500*time.Millisecond, "default gap tolerance for listings and /gaps")
		cacheMB  = flag.Int64("cache-mb", 16, "reassembly cache budget in MiB (negative disables)")
		syncOn   = flag.Bool("sync-ingest", false, "fsync segments after every ingest group commit")
		compact  = flag.Bool("compact", false, "compact segments (reclaim superseded bytes) and exit")
		ckptMB   = flag.Int64("checkpoint-mb", 8, "bytes appended between index snapshot checkpoints, in MiB (negative disables)")
		autoMB   = flag.Int64("auto-compact-mb", 64, "per-shard superseded bytes triggering auto compaction, in MiB (negative disables)")
		accLog   = flag.Bool("access-log", false, "log one structured line per HTTP request (slog, stderr)")

		peersSpec = flag.String("peers", "",
			"federate with these stations: comma-separated [name=]host:port list; requires -http")
		station = flag.String("station", "", "this station's name in the federation (default: the -http listen address)")
		replF   = flag.Int("replication", 0, "replication factor R: each stripe lives on R stations (0 = full mesh)")
		replInt = flag.Duration("repl-interval", 2*time.Second,
			"longest a caught-up anti-entropy pull is held waiting for new frames, and least time between two empty pulls")
		probeI  = flag.Duration("probe-interval", time.Second, "peer health probe interval")
		fanoutT = flag.Duration("fanout-timeout", 2*time.Second, "per-peer timeout for federated fan-out and probes")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "enviromic-archive: -dir is required")
		flag.Usage()
		os.Exit(2)
	}

	mb := func(v int64) int64 {
		if v > 0 {
			return v << 20
		}
		return v
	}
	reg := telemetry.NewRegistry()
	store, err := archive.Open(*dir, archive.Options{
		Shards:           *shards,
		GapTolerance:     *tol,
		CacheBytes:       mb(*cacheMB),
		SyncOnIngest:     *syncOn,
		CheckpointBytes:  mb(*ckptMB),
		AutoCompactBytes: mb(*autoMB),
		Telemetry:        reg,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "enviromic-archive: %v\n", err)
		os.Exit(1)
	}

	st := store.Stats()
	fmt.Printf("archive %s: %d files, %d chunks, %d payload bytes in %d shards",
		*dir, st.Files, st.Chunks, st.Bytes, st.Shards)
	if st.RecoveredBytes > 0 {
		fmt.Printf(" (recovered: dropped %d torn bytes)", st.RecoveredBytes)
	}
	fmt.Println()

	if *ls {
		list(store)
	}
	if *compact {
		rep, err := store.Compact()
		if err != nil {
			fmt.Fprintf(os.Stderr, "enviromic-archive: compact: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("compacted %d shards: kept %d chunks, reclaimed %d bytes (%d segment bytes now)\n",
			rep.Shards, rep.ChunksKept, rep.ReclaimedBytes, rep.SegmentBytesNow)
	}
	if *httpAddr == "" {
		closeStore(store)
		return
	}

	expvar.Publish("archive_stats", expvar.Func(func() any { return store.Stats() }))
	// Flat op counters (ingest.chunks, ingest.duplicates, cache hits,
	// compact.reclaimed_bytes, ...) plus derived ratios, matching the
	// enviromic-sim debug endpoint's flat-counter style.
	expvar.Publish("archive_counters", expvar.Func(func() any { return store.Stats().Counters }))
	expvar.Publish("archive_cache_hit_ratio", expvar.Func(func() any {
		c := store.Stats().Cache
		if c.Hits+c.Misses == 0 {
			return 0.0
		}
		return float64(c.Hits) / float64(c.Hits+c.Misses)
	}))
	// The query API is wrapped in per-endpoint metrics (served at
	// /metrics in Prometheus text format) and, with -access-log, one
	// structured log line per request.
	var logger *slog.Logger
	if *accLog {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "enviromic-archive: %v\n", err)
		os.Exit(1)
	}
	var (
		api http.Handler
		fed *federation.Station
	)
	if *peersSpec != "" {
		// Federated: this station answers reads from the whole
		// federation, replicates from its ring sources, and keeps serving
		// local writes (/ingest) and replication reads (/repl/*).
		peers, err := federation.ParsePeers(*peersSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "enviromic-archive: %v\n", err)
			os.Exit(1)
		}
		self := *station
		if self == "" {
			self = ln.Addr().String()
		}
		fed, err = federation.New(store, federation.Config{
			Self:              self,
			Peers:             peers,
			ReplicationFactor: *replF,
			ReplInterval:      *replInt,
			ProbeInterval:     *probeI,
			FanoutTimeout:     *fanoutT,
			CursorPath:        filepath.Join(*dir, "federation-cursors.json"),
			Telemetry:         reg,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "enviromic-archive: %v\n", err)
			os.Exit(1)
		}
		fed.Start()
		api = fed.Handler()
		fmt.Printf("federation: station %q, %d peers, sources %v\n",
			self, len(peers), fed.ReplicationSources())
	} else {
		api = archive.NewHandler(store, nil)
	}
	api = telemetry.Middleware(reg, archive.EndpointOf, api)
	// stopping ends the requests that hold (a caught-up peer's
	// /repl/delta): Shutdown waits for handlers, it does not cancel them.
	stopping, stop := context.WithCancel(context.Background())
	http.Handle("/", telemetry.AccessLog(logger, endOnStop(stopping, api)))
	http.Handle("/metrics", telemetry.Handler(reg))
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	srv := &http.Server{}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	fmt.Printf("serving on http://%s (endpoints: /files /query /stats /metrics /debug/pprof)\n", ln.Addr())
	select {
	case err := <-served:
		fmt.Fprintf(os.Stderr, "enviromic-archive: %v\n", err)
		os.Exit(1)
	case sig := <-sigs:
		fmt.Printf("%v: draining\n", sig)
	}
	// Wake the held pulls, let in-flight requests finish, stop
	// replicating, then close the store: its final snapshots are what
	// let the next start skip the segment scan.
	stop()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "enviromic-archive: drain: %v\n", err)
	}
	if fed != nil {
		fed.Close()
	}
	closeStore(store)
}

// drainTimeout bounds how long a stopping server waits for in-flight
// requests.
const drainTimeout = 5 * time.Second

// endOnStop cancels a /repl/delta request's context when stopping is
// done, so a held pull is answered at once.
func endOnStop(stopping context.Context, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/repl/delta" {
			ctx, cancel := context.WithCancel(r.Context())
			defer cancel()
			defer context.AfterFunc(stopping, cancel)()
			r = r.WithContext(ctx)
		}
		h.ServeHTTP(w, r)
	})
}

// closeStore closes the archive, writing its snapshots and manifest, and
// exits non-zero if that fails.
func closeStore(store *archive.Store) {
	if err := store.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "enviromic-archive: close: %v\n", err)
		os.Exit(1)
	}
}

// list prints the /files view as a table.
func list(store *archive.Store) {
	files := store.Files()
	if len(files) == 0 {
		fmt.Println("(archive is empty)")
		return
	}
	fmt.Printf("%6s %12s %12s %8s %10s %6s  %s\n",
		"file", "start", "end", "chunks", "bytes", "gaps", "origins")
	for _, fi := range files {
		fmt.Printf("%6d %12v %12v %8d %10d %6d  %v\n",
			fi.ID, fi.Start, fi.End, fi.Chunks, fi.Bytes, fi.Gaps, fi.Origins)
	}
}
