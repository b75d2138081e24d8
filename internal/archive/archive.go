// Package archive is the basestation's durable back end: a persistent,
// sharded on-disk chunk store with indexed reassembly and a concurrent
// query service.
//
// The paper's retrieval story hands chunks to a mule and stops; the
// archive is where those chunks land after the tour. It is organized as
// an append-only segment log per shard (files map to shards by ID), each
// frame CRC-framed and self-validating, so recovery after a torn write
// is a front-to-back scan that keeps everything before the first bad
// frame. All query-facing state — the by-file index, the by-origin index,
// and the interval index answering "files overlapping [t0,t1]" — lives in
// memory; on open it is loaded from a per-shard index snapshot plus a
// replay of the segment tail the snapshot doesn't cover (snapshot.go),
// falling back to a full segment scan when no usable snapshot exists.
// Segments are only read when a reassembly needs payload bytes, and
// reassembled files are held in an LRU cache invalidated (by version) on
// ingest, fronted by a singleflight so concurrent cold reads share one
// reassembly. Dead frames left behind by supersession are reclaimed by
// crash-safe segment compaction (compact.go).
//
// Concurrency: each shard has a writer goroutine that group-commits
// ingest submissions (pipeline.go); queries take shard read locks; the
// HTTP handler in http.go drives both from concurrent request goroutines.
// Everything is safe under `go test -race`.
package archive

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"enviromic/internal/erasure"
	"enviromic/internal/flash"
	"enviromic/internal/retrieval"
	"enviromic/internal/sim"
	"enviromic/internal/telemetry"
)

// ErrNotFound is returned for lookups of unknown file IDs.
var ErrNotFound = errors.New("archive: file not found")

// errClosed is returned by operations on a closed store.
var errClosed = errors.New("archive: store is closed")

// manifestName is the archive directory's manifest file.
const manifestName = "MANIFEST.json"

// manifestVersion is the on-disk format version this package writes.
const manifestVersion = 1

// Options configures Open. The zero value is usable: every field has a
// default.
type Options struct {
	// Shards is the shard (segment file) count for a newly created
	// archive; existing archives always use the manifest's count.
	// Default 8.
	Shards int
	// GapTolerance is the default gap tolerance for listings, ingest
	// deltas, and the HTTP API (per-request override via ?tolerance=).
	// Default 500ms, matching the retrieval demos.
	GapTolerance time.Duration
	// CacheBytes bounds the reassembly cache (approximate payload
	// bytes). Default 16 MiB; negative disables caching.
	CacheBytes int64
	// SyncOnIngest fsyncs the shard segment after every ingest group
	// commit. Off by default: the CRC framing already bounds loss to the
	// tail the kernel never flushed, which is the same guarantee the
	// paper's EEPROM checkpointing gives flash.
	SyncOnIngest bool
	// CheckpointBytes is how many bytes a shard appends between index
	// snapshot checkpoints. Default 8 MiB; negative disables periodic
	// checkpoints (Sync and Close still write one).
	CheckpointBytes int64
	// AutoCompactBytes is the per-shard superseded-byte threshold that
	// triggers background compaction. Default 64 MiB; negative disables
	// auto compaction (Compact can still be called).
	AutoCompactBytes int64
	// NoSnapshots disables index snapshots entirely — neither loaded on
	// open nor written. Open always rebuilds by scanning. For tests and
	// rescan benchmarks.
	NoSnapshots bool
	// Telemetry is the metrics registry the store publishes into
	// (counters, pipeline histograms, store-size gauges). Nil gives the
	// store a private registry, so Stats().Counters and Metrics() always
	// work; pass a shared registry to serve the store's series on a
	// /metrics endpoint alongside other subsystems.
	Telemetry *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.GapTolerance <= 0 {
		o.GapTolerance = 500 * time.Millisecond
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 16 << 20
	}
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 8 << 20
	}
	if o.AutoCompactBytes == 0 {
		o.AutoCompactBytes = 64 << 20
	}
	return o
}

// manifest is the archive directory's geometry record. It is written
// atomically (temp file + rename) at creation, on Sync/Close, and when a
// compaction bumps a shard's generation; the committed sizes are advisory
// — recovery trusts the CRC scan, so a manifest older than the segments
// only means a longer scan, never data loss. Generations are not
// advisory: a snapshot whose generation disagrees with the manifest is
// from before a compaction and is discarded.
type manifest struct {
	Version     int      `json:"version"`
	Shards      int      `json:"shards"`
	Committed   []int64  `json:"committed,omitempty"`
	Generations []uint64 `json:"generations,omitempty"`
}

// FileInfo is one archived file's listing entry.
type FileInfo struct {
	ID      flash.FileID
	Start   sim.Time
	End     sim.Time
	Chunks  int
	Bytes   int64
	Origins []int32
	Gaps    int // at the store's default tolerance
}

// Gap is an uncovered stretch inside an archived file's span.
type Gap struct {
	Start, End sim.Time
}

// FileDelta reports how one ingest batch changed one file — in
// particular whether it closed (or revealed) coverage gaps, which is
// what the next mule tour's re-query is planned from.
type FileDelta struct {
	File              flash.FileID
	Added, Duplicates int
	// Superseded counts chunks whose fuller copy in this batch replaced
	// a shorter archived copy.
	Superseded    int
	GapsBefore    int
	GapsAfter     int
	GapSpanBefore time.Duration
	GapSpanAfter  time.Duration
}

// IngestReport summarizes one ingest batch.
type IngestReport struct {
	Added      int
	Duplicates int
	Superseded int
	Files      []FileDelta // sorted by file ID
}

// Requery returns the gap re-query a mule should flood on its next tour:
// the IDs of every touched file that still has gaps, widened to their
// parity siblings (retrieval.WithParity) so a dispersal-mode network
// also surrenders the fragments that can reconstruct the gap. It
// mirrors Mule.MissingFiles so the in-field and back-end gap paths
// agree.
func (r IngestReport) Requery() retrieval.Query {
	ids := make(map[flash.FileID]bool)
	for _, d := range r.Files {
		if d.GapsAfter > 0 && d.File&erasure.ParityFileBit == 0 {
			ids[d.File] = true
		}
	}
	return retrieval.WithParity(retrieval.Query{Files: ids})
}

// CacheStats snapshots the reassembly cache.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// Stats is the store-wide snapshot served at /stats.
type Stats struct {
	Shards          int              `json:"shards"`
	Files           int              `json:"files"`
	Chunks          int              `json:"chunks"`
	Bytes           int64            `json:"bytes"`            // payload bytes
	SegmentBytes    int64            `json:"segment_bytes"`    // on-disk bytes including framing
	RecoveredBytes  int64            `json:"recovered_bytes"`  // torn tail bytes dropped at open
	SupersededBytes int64            `json:"superseded_bytes"` // dead frame bytes reclaimable by compaction
	Cache           CacheStats       `json:"cache"`
	Counters        map[string]int64 `json:"counters"`
}

// Store is the persistent chunk archive. All methods are safe for
// concurrent use.
type Store struct {
	dir    string
	opts   Options
	boot   string // per-open nonce, the first part of every manifest tag
	shards []*shard
	cache  *fileCache
	flight flightGroup
	env    *shardEnv

	// closeMu serializes Close against in-flight operations: every
	// public mutator holds the read side for its duration, so by the
	// time Close holds the write side no submission or control send can
	// be in flight.
	closeMu sync.RWMutex
	closed  bool

	// manifestMu serializes manifest writes; gens/committed are the last
	// written values.
	manifestMu sync.Mutex
	gens       []uint64
	committed  []int64

	// reg is the telemetry registry every store counter lives in; legacy
	// maps each counter back to its historical dotted name, which is what
	// Stats().Counters (and the expvar shim in cmd/enviromic-archive)
	// still serve.
	reg         *telemetry.Registry
	legacy      []legacyCounter
	cBatches    *telemetry.Counter
	cBodyBytes  *telemetry.Counter
	cRejected   *telemetry.Counter
	cIngested   *telemetry.Counter
	cDups       *telemetry.Counter
	cSuper      *telemetry.Counter
	cQueries    *telemetry.Counter
	cReads      *telemetry.Counter
	cCacheHit   *telemetry.Counter
	cCacheMiss  *telemetry.Counter
	cFlightWin  *telemetry.Counter
	cFlightJoin *telemetry.Counter
}

// legacyCounter pairs a telemetry counter with the dotted name the
// archive's original expvar counter group used.
type legacyCounter struct {
	name string
	c    *telemetry.Counter
}

// Open opens the archive at dir, creating it (and the directory) if
// absent. Opening loads each shard's index snapshot and replays only the
// segment tail appended after it (full scan when no usable snapshot
// exists), truncating torn tails left by a crash mid-append.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m, err := loadOrCreateManifest(dir, opts.Shards)
	if err != nil {
		return nil, err
	}
	reg := opts.Telemetry
	if reg == nil {
		// A private registry keeps Stats().Counters and Metrics() working
		// for embedded stores that never mount /metrics.
		reg = telemetry.NewRegistry()
	}
	var nonce [8]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, fmt.Errorf("archive: boot nonce: %w", err)
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		boot:  hex.EncodeToString(nonce[:]),
		cache: newFileCache(opts.CacheBytes),
		reg:   reg,
	}
	// counter registers one store counter under its Prometheus name while
	// remembering the dotted name the original expvar counter group used —
	// Stats().Counters still serves the legacy names.
	counter := func(legacy, name, help string) *telemetry.Counter {
		c := reg.Counter(name, help)
		s.legacy = append(s.legacy, legacyCounter{name: legacy, c: c})
		return c
	}
	s.cBatches = counter("ingest.batches", "enviromic_archive_ingest_batches_total",
		"Ingest batches submitted to the store.")
	// The write plane's two newest series carry no dotted name: /stats
	// keeps exactly the counters it always had.
	s.cBodyBytes = reg.Counter("enviromic_archive_ingest_body_bytes_total",
		"Bytes of wire bodies handed to ingest, refused ones included.")
	s.cRejected = reg.Counter("enviromic_archive_ingest_rejected_total",
		"Ingest bodies refused whole, for their framing or their size.")
	s.cIngested = counter("ingest.chunks", "enviromic_archive_ingest_chunks_total",
		"Chunks appended by ingest.")
	s.cDups = counter("ingest.duplicates", "enviromic_archive_ingest_duplicates_total",
		"Chunks skipped by ingest as duplicates.")
	s.cSuper = counter("ingest.superseded", "enviromic_archive_ingest_superseded_total",
		"Archived chunks replaced by longer copies.")
	s.cQueries = counter("query.count", "enviromic_archive_queries_total",
		"Interval-index queries served.")
	s.cReads = counter("file.reassemblies", "enviromic_archive_reassemblies_total",
		"File reassemblies performed (cache misses that did the work).")
	s.cCacheHit = counter("cache.hits", "enviromic_archive_cache_hits_total",
		"Reassembly cache hits.")
	s.cCacheMiss = counter("cache.misses", "enviromic_archive_cache_misses_total",
		"Reassembly cache misses.")
	s.cFlightWin = counter("flight.leads", "enviromic_archive_flight_leads_total",
		"Singleflight reassemblies led.")
	s.cFlightJoin = counter("flight.joins", "enviromic_archive_flight_joins_total",
		"Singleflight reassemblies coalesced onto a leader.")
	s.env = &shardEnv{
		gapTolerance:    opts.GapTolerance,
		syncOnIngest:    opts.SyncOnIngest,
		noSnapshots:     opts.NoSnapshots,
		checkpointBytes: opts.CheckpointBytes,
		autoCompact:     opts.AutoCompactBytes,
		cGroups: counter("ingest.groups", "enviromic_archive_group_commits_total",
			"Group commits performed by shard writers."),
		cGroupSyncs: counter("ingest.group_syncs", "enviromic_archive_group_syncs_total",
			"Group commits that fsynced the segment (SyncOnIngest)."),
		cSnapLoads: counter("open.snapshot_loads", "enviromic_archive_snapshot_loads_total",
			"Shards opened from an index snapshot."),
		cSnapFallbacks: counter("open.snapshot_fallbacks", "enviromic_archive_snapshot_fallbacks_total",
			"Shards whose snapshot was unusable, forcing a full scan."),
		cReplayed: counter("open.replayed_chunks", "enviromic_archive_replayed_chunks_total",
			"Chunks replayed from segment tails past their snapshots."),
		cCheckpoints: counter("checkpoint.writes", "enviromic_archive_checkpoint_writes_total",
			"Index snapshot checkpoints written."),
		cCheckpointBytes: counter("checkpoint.bytes", "enviromic_archive_checkpoint_bytes_total",
			"Bytes of index snapshots written."),
		cCompactions: counter("compact.runs", "enviromic_archive_compactions_total",
			"Segment compactions run."),
		cReclaimed: counter("compact.reclaimed_bytes", "enviromic_archive_compact_reclaimed_bytes_total",
			"Dead frame bytes reclaimed by compaction."),
		hGroupBatch: reg.Histogram("enviromic_archive_group_commit_batch_size",
			"Submissions absorbed per group commit.",
			telemetry.ExpBuckets(1, 2, 7)),
		hFsync: reg.Histogram("enviromic_archive_fsync_seconds",
			"Segment fsync latency during group commits.",
			telemetry.DurationBuckets()),
		hSnapLoad: reg.Histogram("enviromic_archive_open_snapshot_load_seconds",
			"Per-shard index snapshot load time at open.",
			telemetry.DurationBuckets()),
		hReplay: reg.Histogram("enviromic_archive_open_replay_seconds",
			"Per-shard segment scan time at open (tail replay or full scan).",
			telemetry.DurationBuckets()),
		bumpGen: s.bumpGen,
	}
	s.gens = make([]uint64, m.Shards)
	copy(s.gens, m.Generations)
	s.committed = make([]int64, m.Shards)
	copy(s.committed, m.Committed)
	for i := 0; i < m.Shards; i++ {
		sh, err := openShard(i, s.shardPath(i), s.gens[i], s.env)
		if err != nil {
			for _, prev := range s.shards {
				prev.closeFiles()
			}
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}
	for _, sh := range s.shards {
		sh.startWriter()
	}
	s.registerGauges(reg)
	return s, nil
}

// registerGauges publishes scrape-time store totals: sizes straight off
// the shard indexes, and the reassembly cache's hit ratio as a proper
// gauge (the old expvar shim served it as a formatted string). When two
// stores share one registry the first store's functions win — mount
// shared registries one store per process.
func (s *Store) registerGauges(reg *telemetry.Registry) {
	total := func(pick func(Stats) float64) func() float64 {
		return func() float64 { return pick(s.totals()) }
	}
	reg.GaugeFunc("enviromic_archive_files", "Archived files.",
		total(func(st Stats) float64 { return float64(st.Files) }))
	reg.GaugeFunc("enviromic_archive_chunks", "Archived chunks.",
		total(func(st Stats) float64 { return float64(st.Chunks) }))
	reg.GaugeFunc("enviromic_archive_payload_bytes", "Archived payload bytes.",
		total(func(st Stats) float64 { return float64(st.Bytes) }))
	reg.GaugeFunc("enviromic_archive_segment_bytes", "On-disk segment bytes including framing.",
		total(func(st Stats) float64 { return float64(st.SegmentBytes) }))
	reg.GaugeFunc("enviromic_archive_superseded_bytes", "Dead frame bytes reclaimable by compaction.",
		total(func(st Stats) float64 { return float64(st.SupersededBytes) }))
	reg.GaugeFunc("enviromic_archive_index_bytes",
		"Estimated in-memory index bytes: chunk records, dedup and origin arrays, per-file overhead.",
		func() float64 {
			var n int64
			for _, sh := range s.shards {
				n += sh.indexBytes()
			}
			return float64(n)
		})
	reg.GaugeFunc("enviromic_archive_cache_bytes", "Reassembly cache payload bytes held.",
		func() float64 { return float64(s.cache.stats().Bytes) })
	reg.GaugeFunc("enviromic_archive_cache_hit_ratio",
		"Reassembly cache hit ratio since open (0 when unused).",
		func() float64 {
			cs := s.cache.stats()
			if lookups := cs.Hits + cs.Misses; lookups > 0 {
				return float64(cs.Hits) / float64(lookups)
			}
			return 0
		})
}

// Metrics returns the store's telemetry registry — the one passed via
// Options.Telemetry, or the store-private default.
func (s *Store) Metrics() *telemetry.Registry { return s.reg }

func (s *Store) shardPath(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("shard-%03d.seg", i))
}

// bumpGen records a new generation for one shard in the manifest,
// serialized against every other manifest write.
func (s *Store) bumpGen(id int, gen uint64) error {
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()
	s.gens[id] = gen
	return writeManifest(s.dir, s.manifestLocked())
}

// manifestLocked builds the current manifest. Caller holds manifestMu.
func (s *Store) manifestLocked() manifest {
	m := manifest{Version: manifestVersion, Shards: len(s.gens)}
	m.Committed = append([]int64(nil), s.committed...)
	m.Generations = append([]uint64(nil), s.gens...)
	return m
}

// loadOrCreateManifest reads the manifest, or writes a fresh one if the
// directory has never held an archive. A directory with segment files
// but no manifest is refused: the shard count is not recoverable.
func loadOrCreateManifest(dir string, shards int) (manifest, error) {
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		var m manifest
		if jerr := json.Unmarshal(data, &m); jerr != nil {
			return manifest{}, fmt.Errorf("archive: corrupt manifest %s: %w", path, jerr)
		}
		if m.Version != manifestVersion {
			return manifest{}, fmt.Errorf("archive: manifest version %d not supported", m.Version)
		}
		if m.Shards <= 0 {
			return manifest{}, fmt.Errorf("archive: manifest declares %d shards", m.Shards)
		}
		return m, nil
	case os.IsNotExist(err):
		if segs, _ := filepath.Glob(filepath.Join(dir, "shard-*.seg")); len(segs) > 0 {
			return manifest{}, fmt.Errorf("archive: %s has segments but no manifest", dir)
		}
		m := manifest{Version: manifestVersion, Shards: shards}
		if werr := writeManifest(dir, m); werr != nil {
			return manifest{}, werr
		}
		return m, nil
	default:
		return manifest{}, err
	}
}

// writeManifest writes the manifest atomically (temp + rename), so a
// crash mid-write leaves either the old or the new manifest, never a
// torn one.
func writeManifest(dir string, m manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// shardIndex maps a file ID to its owning shard's index.
func (s *Store) shardIndex(id flash.FileID) int {
	return int(uint32(id) % uint32(len(s.shards)))
}

// shardFor maps a file ID to its owning shard.
func (s *Store) shardFor(id flash.FileID) *shard {
	return s.shards[s.shardIndex(id)]
}

// IngestFrames appends the chunks of one wire body (the EncodeFrames /
// segment-log format), skipping duplicates (same file/origin/seq —
// migration copies, retransmissions, or a repeated tour) unless the copy
// carries a strictly longer payload, in which case it supersedes the
// archived one. Reports per-file gap deltas. It is the only way bytes
// reach a shard writer. The body is validated once, whole: any framing
// error (wrapping ErrBadFrames) refuses it with nothing ingested.
// Surviving frames are appended to the segments verbatim. The body is
// only read while the call blocks on the shard writers' replies; once it
// returns the caller may reuse it. Concurrent calls are safe: the body's
// frames are submitted to every touched shard's writer at once, and each
// writer group-commits whatever submissions are queued with one write and
// at most one fsync.
func (s *Store) IngestFrames(body []byte) (IngestReport, error) {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return IngestReport{}, errClosed
	}
	s.cBodyBytes.Add(int64(len(body)))
	frames, err := parseFrames(body)
	if err != nil {
		s.cRejected.Inc()
		return IngestReport{}, err
	}
	s.cBatches.Inc()
	// Group the frames by shard, in body order within a shard, in one
	// backing array: next[i] counts shard i's frames, then is where its
	// next frame goes, and ends up where its run ends — which is where
	// shard i+1's begins.
	next := make([]int, len(s.shards))
	for _, fr := range frames {
		next[s.shardIndex(fr.File)]++
	}
	sum := 0
	for i, n := range next {
		next[i], sum = sum, sum+n
	}
	byShard := make([]frameRef, len(frames))
	for _, fr := range frames {
		i := s.shardIndex(fr.File)
		byShard[next[i]] = fr
		next[i]++
	}
	replies := make([]chan subResult, len(s.shards))
	lo := 0
	for i, sh := range s.shards {
		hi := next[i]
		if hi > lo {
			ch := make(chan subResult, 1)
			replies[i] = ch
			sh.subs <- &submission{body: body, frames: byShard[lo:hi], reply: ch}
		}
		lo = hi
	}
	var rep IngestReport
	var firstErr error
	for _, ch := range replies {
		if ch == nil {
			continue
		}
		r := <-ch
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		rep.Added += r.added
		rep.Duplicates += r.dups
		rep.Superseded += r.superseded
		rep.Files = append(rep.Files, r.deltas...)
		for _, d := range r.deltas {
			if d.Added > 0 || d.Superseded > 0 {
				s.cache.invalidate(d.File)
			}
		}
	}
	sort.Slice(rep.Files, func(i, j int) bool { return rep.Files[i].File < rep.Files[j].File })
	s.cIngested.Add(int64(rep.Added))
	s.cDups.Add(int64(rep.Duplicates))
	s.cSuper.Add(int64(rep.Superseded))
	return rep, firstErr
}

// Ingest is IngestFrames for a caller that holds chunks rather than a
// wire body (a local mule flush, the load tools, tests): the chunks —
// nils skipped — are encoded once and ingested as that body. A payload
// over flash.PayloadSize fails the whole batch with
// flash.ErrPayloadTooLarge before anything is ingested. The caller keeps
// ownership of the chunks.
func (s *Store) Ingest(chunks []*flash.Chunk) (IngestReport, error) {
	body, err := EncodeFrames(chunks)
	if err != nil {
		return IngestReport{}, err
	}
	return s.IngestFrames(body)
}

// Files lists every archived file, sorted by ID — a total order, so the
// listing is identical for any shard count.
func (s *Store) Files() []FileInfo {
	var out []FileInfo
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, fm := range sh.files {
			out = append(out, sh.info(fm, s.opts.GapTolerance))
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Info returns one file's listing entry.
func (s *Store) Info(id flash.FileID) (FileInfo, error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	fm := sh.files[id]
	if fm == nil {
		return FileInfo{}, ErrNotFound
	}
	return sh.info(fm, s.opts.GapTolerance), nil
}

// Query returns files overlapping [from,to) recorded (in part) by any of
// the given origins, using the per-shard interval indexes. from and to
// both zero means unbounded; empty origins means any origin. Results are
// sorted by (start, ID) — a total order, so the result is identical for
// any shard count.
func (s *Store) Query(from, to sim.Time, origins map[int32]bool) []FileInfo {
	s.cQueries.Inc()
	var out []FileInfo
	for _, sh := range s.shards {
		out = append(out, sh.query(from, to, origins, s.opts.GapTolerance)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Gaps returns the file's coverage gaps at the given tolerance
// (tolerance <= 0 uses the store default), computed from index metadata
// without touching segments.
func (s *Store) Gaps(id flash.FileID, tolerance time.Duration) ([]Gap, error) {
	if tolerance <= 0 {
		tolerance = s.opts.GapTolerance
	}
	gaps, ok := s.shardFor(id).gaps(id, tolerance)
	if !ok {
		return nil, ErrNotFound
	}
	return gaps, nil
}

// File reassembles one archived file: chunk payloads are read from the
// shard segment, deduplicated and time-sorted via retrieval.Reassemble,
// and the result cached until the next ingest touches the file.
// Concurrent cold requests for the same file and version share one
// reassembly (singleflight). The returned File is shared — callers must
// not mutate it.
func (s *Store) File(id flash.FileID) (*retrieval.File, error) {
	sh := s.shardFor(id)
	for attempt := 0; ; attempt++ {
		// Probe the cache on version alone before copying the chunk-meta
		// slice — the warm path never needs the offsets.
		v0, ok := sh.version(id)
		if !ok {
			return nil, ErrNotFound
		}
		if f, v, hit := s.cache.get(id); hit && v == v0 {
			s.cCacheHit.Inc()
			return f, nil
		}
		metas, version, epoch, ok := sh.fileChunks(id)
		if !ok {
			return nil, ErrNotFound
		}
		s.cCacheMiss.Inc()
		f, err, joined := s.flight.do(flightKey{id: id, version: version}, func() (*retrieval.File, error) {
			s.cReads.Inc()
			return s.reassemble(sh, id, version, metas, epoch)
		})
		if joined {
			s.cFlightJoin.Inc()
		} else {
			s.cFlightWin.Inc()
		}
		if errors.Is(err, errEpochChanged) {
			if attempt < 4 {
				continue // a compaction swapped the segment mid-read; refetch offsets
			}
			// Compactions keep invalidating the optimistic read. Fall back
			// to running it on the shard's writer goroutine: compaction
			// runs there too, so the offsets cannot be swapped between the
			// metadata fetch and the payload read. The result is validated
			// the same way (readChunks re-checks the epoch under the read
			// lock) — errEpochChanged never escapes to callers.
			return s.fileSerialized(sh, id)
		}
		return f, err
	}
}

// fileSerialized reassembles a file on the shard's writer goroutine,
// where no compaction can run concurrently. Slow path for reads racing
// a compaction storm.
func (s *Store) fileSerialized(sh *shard, id flash.FileID) (*retrieval.File, error) {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return nil, errClosed
	}
	var f *retrieval.File
	var err error
	sh.runCtl(func() {
		metas, version, epoch, ok := sh.fileChunks(id)
		if !ok {
			err = ErrNotFound
			return
		}
		if cached, v, hit := s.cache.get(id); hit && v == version {
			s.cCacheHit.Inc()
			f = cached
			return
		}
		s.cReads.Inc()
		f, err = s.reassemble(sh, id, version, metas, epoch)
	})
	return f, err
}

// FileErasure is File plus erasure decoding: when the archive also
// holds parity fragments of the file's dispersal groups (the sibling
// file id|erasure.ParityFileBit, collected by fragment-aware
// re-queries), any data chunk that fewer than n−k fragment losses took
// out is reconstructed and merged in. Without archived parity it
// degrades to exactly File.
func (s *Store) FileErasure(id flash.FileID) (*retrieval.File, retrieval.DecodeReport, error) {
	f, err := s.File(id)
	if err != nil {
		return nil, retrieval.DecodeReport{}, err
	}
	if id&erasure.ParityFileBit != 0 {
		return f, retrieval.DecodeReport{}, nil
	}
	pf, err := s.FileIfHeld(id | erasure.ParityFileBit)
	if err != nil {
		return nil, retrieval.DecodeReport{}, err
	}
	if pf == nil {
		return f, retrieval.DecodeReport{}, nil // no parity archived
	}
	return DecodeErasure(id, map[int][]*flash.Chunk{0: f.Chunks, 1: pf.Chunks})
}

// FileIfHeld is File for a reader that can do without — a parity sibling,
// a file some federation peer may hold instead: (nil, nil) when the store
// does not list it. Only ErrNotFound means that; a listed file that cannot
// be read (CRC, I/O, closed store) is an error, never "no parity archived".
func (s *Store) FileIfHeld(id flash.FileID) (*retrieval.File, error) {
	f, err := s.File(id)
	if errors.Is(err, ErrNotFound) {
		return nil, nil
	}
	return f, err
}

// DecodeErasure is the tail of every erasure-aware read: file id
// reassembled from holdings — its chunks and its parity sibling's, from
// wherever they were read — with what the parity reconstructs merged in.
// ErrNotFound when holdings neither has nor can decode a chunk of the file.
func DecodeErasure(id flash.FileID, holdings map[int][]*flash.Chunk) (*retrieval.File, retrieval.DecodeReport, error) {
	files, rep := retrieval.ReassembleErasure(holdings, retrieval.Query{Files: map[flash.FileID]bool{id: true}})
	if files[id] == nil {
		return nil, rep, ErrNotFound
	}
	return files[id], rep, nil
}

// reassemble reads the file's chunks and rebuilds it, caching the result.
func (s *Store) reassemble(sh *shard, id flash.FileID, version uint64, metas []chunkMeta, epoch uint64) (*retrieval.File, error) {
	chunks, err := sh.readChunks(metas, epoch)
	if err != nil {
		return nil, err
	}
	f := retrieval.Reassemble(map[int][]*flash.Chunk{0: chunks}, retrieval.Query{All: true})[id]
	if f == nil {
		return nil, ErrNotFound
	}
	s.cache.put(id, version, f)
	return f, nil
}

// GapTolerance returns the store's default gap tolerance.
func (s *Store) GapTolerance() time.Duration { return s.opts.GapTolerance }

// Stats snapshots store-wide totals and op counters. Counters keep their
// historical dotted names (the registry serves the same values under
// Prometheus names).
func (s *Store) Stats() Stats {
	st := s.totals()
	st.Counters = make(map[string]int64, len(s.legacy))
	for _, lc := range s.legacy {
		st.Counters[lc.name] = lc.c.Value()
	}
	st.Cache = s.cache.stats()
	return st
}

// totals sums the per-shard index sizes (no counters, no cache).
func (s *Store) totals() Stats {
	st := Stats{Shards: len(s.shards)}
	for _, sh := range s.shards {
		files, chunks, bytes, seg, rec, super := sh.stats()
		st.Files += files
		st.Chunks += chunks
		st.Bytes += bytes
		st.SegmentBytes += seg
		st.RecoveredBytes += rec
		st.SupersededBytes += super
	}
	return st
}

// Sync flushes every shard segment to stable storage, checkpoints every
// shard's index snapshot, and records the committed sizes in the
// manifest.
func (s *Store) Sync() error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return errClosed
	}
	var firstErr error
	for _, sh := range s.shards {
		sh.runCtl(func() {
			if err := sh.syncAndCheckpoint(); err != nil && firstErr == nil {
				firstErr = err
			}
			s.manifestMu.Lock()
			s.committed[sh.id] = sh.size
			s.manifestMu.Unlock()
		})
	}
	if firstErr != nil {
		return firstErr
	}
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()
	return writeManifest(s.dir, s.manifestLocked())
}

// syncAndCheckpoint fsyncs the segment and writes a snapshot. Runs on
// the writer goroutine (or at close, after the writer exited).
func (sh *shard) syncAndCheckpoint() error {
	if err := sh.f.Sync(); err != nil {
		return err
	}
	return sh.writeSnapshot()
}

// Close drains every writer, writes final snapshots, syncs, records the
// manifest, and closes the segments. The store is unusable afterwards.
func (s *Store) Close() error {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return errClosed
	}
	s.closed = true
	s.closeMu.Unlock()
	s.env.signalChange()

	s.stopWriters()
	var firstErr error
	s.manifestMu.Lock()
	for _, sh := range s.shards {
		if err := sh.syncAndCheckpoint(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.committed[sh.id] = sh.size
	}
	err := writeManifest(s.dir, s.manifestLocked())
	s.manifestMu.Unlock()
	if err != nil && firstErr == nil {
		firstErr = err
	}
	for _, sh := range s.shards {
		if cerr := sh.closeFiles(); cerr != nil && firstErr == nil {
			firstErr = cerr
		}
	}
	return firstErr
}

// stopWriters closes every shard's channels and waits for the writer
// goroutines to drain and exit.
func (s *Store) stopWriters() {
	for _, sh := range s.shards {
		close(sh.subs)
		close(sh.ctl)
	}
	for _, sh := range s.shards {
		sh.wg.Wait()
	}
}

// crashClose abandons the store without syncing, snapshotting, or
// writing the manifest — the closest a test can get to SIGKILL while
// sharing the process. Writers are stopped first so no append races the
// fd close.
func (s *Store) crashClose() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	s.closeMu.Unlock()
	s.env.signalChange()
	s.stopWriters()
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.f != nil {
			sh.f.Close()
			sh.f = nil
		}
		sh.mu.Unlock()
	}
}
