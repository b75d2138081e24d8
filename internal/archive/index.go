package archive

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"enviromic/internal/flash"
	"enviromic/internal/sim"
	"enviromic/internal/telemetry"
)

// chunkMeta is the in-memory index entry for one archived chunk: enough
// metadata to answer listings, interval queries, and gap math without
// touching disk, plus the segment location to fetch the payload when a
// reassembly actually needs bytes.
type chunkMeta struct {
	offset int64 // frame payload offset in the shard segment
	start  sim.Time
	end    sim.Time
	origin int32
	length int32 // payload length (compact record size)
	seq    uint32
}

// payloadBytes is the audio bytes inside the record (header excluded).
func (m chunkMeta) payloadBytes() int64 { return int64(m.length) - flash.MinRecordSize }

// frameBytes is the full on-disk footprint of the chunk's frame.
func (m chunkMeta) frameBytes() int64 { return int64(m.length) + frameHeaderSize }

// fileMeta aggregates one distributed file's archived chunks.
type fileMeta struct {
	id      flash.FileID
	start   sim.Time // min chunk start
	end     sim.Time // max chunk end
	bytes   int64    // payload bytes (audio only, headers excluded)
	version uint64   // bumped on every ingest that changes chunks; guards the reassembly cache
	chunks  []chunkMeta
	// seen maps (origin, seq) dedup keys to the chunk's index in chunks.
	// nil after a snapshot load: it is rebuilt lazily by ensureSeen the
	// first time an ingest touches the file, so opening a million-chunk
	// snapshot does no dedup-map inserts for files that never grow again.
	seen    map[uint64]int32
	origins map[int32]struct{}

	// The file's gap count and span at the store's default tolerance, as
	// of the last group commit that changed it. Private to the shard's
	// writer, which reads an ingest delta's "before" from them instead of
	// re-sorting the chunk list; unknown after open (snapshot or scan)
	// until the writer first touches the file. Queries compute their own.
	gapsKnown bool
	gaps      int
	gapSpan   time.Duration
}

// dedupKey packs (origin, seq) into one map key. File identity is implied
// by the enclosing fileMeta.
func dedupKey(origin int32, seq uint32) uint64 {
	return uint64(uint32(origin))<<32 | uint64(seq)
}

// ensureSeen builds the dedup map from the chunk list if it is absent
// (after a snapshot load). Must run on the shard's sole mutator.
func (fm *fileMeta) ensureSeen() {
	if fm.seen != nil {
		return
	}
	fm.seen = make(map[uint64]int32, len(fm.chunks))
	for i, m := range fm.chunks {
		fm.seen[dedupKey(m.origin, m.seq)] = int32(i)
	}
}

// refreshGaps recomputes the writer's gap state from the chunk list. Must
// run on the shard's sole mutator.
func (fm *fileMeta) refreshGaps(tolerance time.Duration) {
	g := gapsIn(fm.chunks, tolerance)
	fm.gapsKnown, fm.gaps, fm.gapSpan = true, len(g), gapSpan(g)
}

// gapsIn computes uncovered stretches longer than tolerance over a set of
// chunk spans, mirroring retrieval.File.Gaps (time-major sort, cursor
// sweep) so the archive and the in-field mule agree on what "a gap" is.
func gapsIn(chunks []chunkMeta, tolerance time.Duration) []Gap {
	if len(chunks) == 0 {
		return nil
	}
	sorted := make([]chunkMeta, len(chunks))
	copy(sorted, chunks)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.start != b.start {
			return a.start < b.start
		}
		if a.origin != b.origin {
			return a.origin < b.origin
		}
		return a.seq < b.seq
	})
	var gaps []Gap
	cursor := sorted[0].end
	for _, c := range sorted[1:] {
		if c.start.Sub(cursor) > tolerance {
			gaps = append(gaps, Gap{Start: cursor, End: c.start})
		}
		if c.end > cursor {
			cursor = c.end
		}
	}
	return gaps
}

// gapSpan sums gap durations.
func gapSpan(gaps []Gap) time.Duration {
	var d time.Duration
	for _, g := range gaps {
		d += g.End.Sub(g.Start)
	}
	return d
}

// shardEnv is the store-wide configuration and counters shared by every
// shard. Hooks are test seams for the crash-safety suites: they run at
// each fsync/rename boundary of the checkpoint and compaction protocols
// and abort the operation (simulating a kill) when they return an error.
type shardEnv struct {
	gapTolerance    time.Duration
	syncOnIngest    bool
	noSnapshots     bool
	checkpointBytes int64 // bytes appended between auto checkpoints; <=0 disables
	autoCompact     int64 // superseded bytes per shard triggering auto compaction; <=0 disables

	cGroups          *telemetry.Counter // ingest.groups
	cGroupSyncs      *telemetry.Counter // ingest.group_syncs
	cSnapLoads       *telemetry.Counter // open.snapshot_loads
	cSnapFallbacks   *telemetry.Counter // open.snapshot_fallbacks
	cReplayed        *telemetry.Counter // open.replayed_chunks
	cCheckpoints     *telemetry.Counter // checkpoint.writes
	cCheckpointBytes *telemetry.Counter // checkpoint.bytes
	cCompactions     *telemetry.Counter // compact.runs
	cReclaimed       *telemetry.Counter // compact.reclaimed_bytes

	// Pipeline and open-path histograms (nil-safe like every metric).
	hGroupBatch *telemetry.Histogram // submissions per group commit
	hFsync      *telemetry.Histogram // group-commit fsync latency
	hSnapLoad   *telemetry.Histogram // per-shard snapshot load time at open
	hReplay     *telemetry.Histogram // per-shard segment scan time at open

	checkpointHook func(shard int, point string) error
	compactHook    func(shard int, point string) error

	// bumpGen asks the store to persist generation gen for shard id in
	// the manifest (serialized store-side).
	bumpGen func(id int, gen uint64) error

	// changed is the channel Store.Changed handed out, closed and cleared
	// by the next change; nil while nobody waits, so a commit with no
	// waiter pays one atomic swap.
	changed atomic.Pointer[chan struct{}]
}

// changes returns the channel the next signalChange closes.
func (e *shardEnv) changes() <-chan struct{} {
	for {
		if p := e.changed.Load(); p != nil {
			return *p
		}
		ch := make(chan struct{})
		if e.changed.CompareAndSwap(nil, &ch) {
			return ch
		}
	}
}

// signalChange wakes whoever waits on changes: the manifest tag moved
// (an appending group commit, a compaction swap) or the store closed.
func (e *shardEnv) signalChange() {
	if p := e.changed.Swap(nil); p != nil {
		close(*p)
	}
}

// shard owns one segment file and the indexes over it. Files map to
// shards by ID (fileID mod shard count), so a shard is authoritative for
// its files and shards never coordinate: ingest batches and queries
// parallelize across shards, serialized only within one.
//
// Mutation discipline: the shard's writer goroutine (pipeline.go) is the
// ONLY mutator of the index structures, the segment file, and the fields
// below the mutex. It reads them lock-free (no other writer exists) and
// takes mu.Lock only to publish mutations; queries take mu.RLock. The
// fields above the mutex are writer-goroutine-private.
type shard struct {
	id      int
	path    string
	idxPath string
	env     *shardEnv

	// Writer-goroutine-private state (plus open/close, which run with no
	// writer live).
	gen               uint64 // segment generation; bumped by compaction, guards snapshots
	lastCheckpoint    int64  // segment size covered by the last written snapshot
	checkpointsBroken bool   // set when a failed compaction leaves disk state unknowable

	subs chan *submission
	ctl  chan func()
	wg   sync.WaitGroup

	mu   sync.RWMutex
	f    *os.File
	size int64
	// epoch is bumped whenever the segment file or chunk offsets are
	// swapped (compaction); readers holding stale chunkMeta copies check
	// it before trusting offsets.
	epoch uint64
	// files is the primary index; byOrigin and the byStart/prefixMaxEnd
	// pair are secondary indexes maintained on ingest.
	files    map[flash.FileID]*fileMeta
	byOrigin map[int32]map[flash.FileID]struct{}
	// byStart holds files sorted by span start; prefixMaxEnd[i] is the
	// max span end over byStart[:i+1]. Together they answer interval
	// stabbing queries ("files overlapping [from,to)") with a binary
	// search plus a walk that stops at the first prefix whose max end
	// falls below the window — no segment scan, no full index scan.
	byStart      []*fileMeta
	prefixMaxEnd []sim.Time

	// unverifiedTo marks the segment prefix indexed without a CRC pass (a
	// snapshot-loaded region; a scan verifies every frame it indexes).
	// readChunk re-verifies frames below it so corruption hiding under a
	// snapshot still surfaces, and skips the check — payload-only reads —
	// everywhere else.
	unverifiedTo int64

	recoveredBytes  int64 // bytes truncated away by open-time recovery
	supersededBytes int64 // dead frame bytes reclaimable by compaction

	// scratch is the writer's reusable group-commit encode buffer.
	scratch []byte
}

// openShard opens (creating if absent) the shard's segment file and
// rebuilds the indexes — from the snapshot plus a tail replay when a
// valid snapshot exists, from a full segment scan otherwise — then
// truncates any torn tail. It does not start the writer goroutine; the
// store does that once every shard opened.
func openShard(id int, path string, gen uint64, env *shardEnv) (*shard, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	sh := &shard{
		id:      id,
		path:    path,
		idxPath: snapshotPath(path),
		env:     env,
		gen:     gen,
		f:       f,
		subs:    make(chan *submission, 128),
		ctl:     make(chan func()),
	}
	// Stray temp files are debris from a crash mid-checkpoint or
	// mid-compaction; both protocols only trust fully-renamed files.
	os.Remove(path + compactSuffix)
	os.Remove(sh.idxPath + ".tmp")

	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	segSize := st.Size()

	scanFrom := int64(0)
	if !env.noSnapshots {
		loadStart := time.Now()
		if covered, lerr := sh.loadSnapshot(gen, segSize); lerr == nil {
			scanFrom = covered
			sh.lastCheckpoint = covered
			sh.unverifiedTo = covered
			env.cSnapLoads.Inc()
			env.hSnapLoad.ObserveDuration(time.Since(loadStart))
		} else {
			if !os.IsNotExist(unwrapSnapshotErr(lerr)) {
				env.cSnapFallbacks.Inc()
			}
			sh.files = nil // discard any partial load
		}
	}
	if sh.files == nil {
		sh.files = make(map[flash.FileID]*fileMeta)
		sh.byOrigin = make(map[int32]map[flash.FileID]struct{})
	}

	replayed := 0
	scanStart := time.Now()
	valid, err := scanSegment(f, scanFrom, func(h flash.RecordHeader, off int64, length int32) {
		sh.applyChunk(h, off, length)
		replayed++
	})
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("archive: scanning %s: %w", path, err)
	}
	env.hReplay.ObserveDuration(time.Since(scanStart))
	if scanFrom > 0 {
		env.cReplayed.Add(int64(replayed))
	}
	if segSize > valid {
		sh.recoveredBytes = segSize - valid
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("archive: truncating torn tail of %s: %w", path, err)
		}
	}
	sh.size = valid
	sh.rebuildInterval()
	return sh, nil
}

// unwrapSnapshotErr digs the underlying cause out of an errSnapshot wrap
// (used only to keep "snapshot simply absent" out of the fallback
// counter).
func unwrapSnapshotErr(err error) error {
	type unwrapper interface{ Unwrap() error }
	for {
		u, ok := err.(unwrapper)
		if !ok {
			return err
		}
		next := u.Unwrap()
		if next == nil {
			return err
		}
		err = next
	}
}

// applyChunk folds one segment frame into the index with full
// duplicate/supersession semantics: an unseen (origin, seq) key is added;
// a seen key with a strictly longer payload supersedes the indexed copy
// (the old frame becomes dead bytes); anything else is a duplicate (the
// new frame is dead bytes, if it is on disk at all). The scan/replay path
// calls this for every frame so reopening a segment that still holds
// superseded frames — a crash beat compaction to them — reproduces
// exactly the index state ingest built. Must run on the shard's sole
// mutator; the ingest commit path applies the same rules via its staged
// variant in pipeline.go.
func (sh *shard) applyChunk(h flash.RecordHeader, off int64, length int32) {
	fm := sh.files[h.File]
	if fm == nil {
		fm = &fileMeta{
			id:      h.File,
			start:   h.Start,
			end:     h.End,
			seen:    make(map[uint64]int32),
			origins: make(map[int32]struct{}),
		}
		sh.files[h.File] = fm
	}
	fm.ensureSeen()
	meta := chunkMeta{
		offset: off, start: h.Start, end: h.End,
		origin: h.Origin, length: length, seq: h.Seq,
	}
	key := dedupKey(h.Origin, h.Seq)
	if i, dup := fm.seen[key]; dup {
		old := fm.chunks[i]
		if meta.length > old.length {
			// Longer copy supersedes: point the index at the new frame,
			// the old frame is dead weight until compaction.
			fm.chunks[i] = meta
			fm.bytes += meta.payloadBytes() - old.payloadBytes()
			sh.supersededBytes += old.frameBytes()
			sh.absorbSpan(fm, meta)
		} else {
			sh.supersededBytes += meta.frameBytes()
		}
		return
	}
	fm.seen[key] = int32(len(fm.chunks))
	fm.chunks = append(fm.chunks, meta)
	fm.bytes += meta.payloadBytes()
	sh.absorbSpan(fm, meta)
}

// absorbSpan widens the file span and origin indexes for one chunk.
func (sh *shard) absorbSpan(fm *fileMeta, m chunkMeta) {
	if m.start < fm.start {
		fm.start = m.start
	}
	if m.end > fm.end {
		fm.end = m.end
	}
	fm.origins[m.origin] = struct{}{}
	byo := sh.byOrigin[m.origin]
	if byo == nil {
		byo = make(map[flash.FileID]struct{})
		sh.byOrigin[m.origin] = byo
	}
	byo[fm.id] = struct{}{}
}

// spanLess is byStart's order: by span start, ties by file ID.
func spanLess(a, b *fileMeta) bool {
	if a.start != b.start {
		return a.start < b.start
	}
	return a.id < b.id
}

// rebuildInterval builds the interval index from scratch: O(files log
// files), for open — and the oracle the tests hold reindex to. Caller
// holds mu (write) or is the open scan.
func (sh *shard) rebuildInterval() {
	sh.byStart = sh.byStart[:0]
	for _, fm := range sh.files {
		sh.byStart = append(sh.byStart, fm)
	}
	sort.Slice(sh.byStart, func(i, j int) bool { return spanLess(sh.byStart[i], sh.byStart[j]) })
	sh.prefixMaxEnd = sh.prefixMaxEnd[:0]
	sh.refreshPrefix(0, len(sh.byStart))
}

// respan collects the files whose span one publish changed, by what the
// interval index must do about each: fresh files are new to the shard,
// moved ones sit in byStart under a start they no longer have (a start
// only moves earlier), grown ones only grew their end.
type respan struct {
	fresh, moved, grown []*fileMeta
}

// reindex brings byStart and prefixMaxEnd up to date with one publish at
// the cost of what it changed: nothing for a group of duplicates, a
// binary search and a short prefix pass per grown end, one merge pass
// over the entries above the lowest (re)seated file however many files
// are seated — plus, in the rare group that moved a start, one sweep to
// pull those files out, since entries out of order cannot be searched
// for. Caller holds mu (write).
func (sh *shard) reindex(rs respan) {
	lo, hi := len(sh.byStart), 0
	seat := rs.fresh
	if len(rs.moved) > 0 {
		out := make(map[*fileMeta]bool, len(rs.moved))
		for _, fm := range rs.moved {
			out[fm] = true
		}
		kept := sh.byStart[:0]
		for _, fm := range sh.byStart {
			if !out[fm] {
				kept = append(kept, fm)
			}
		}
		sh.byStart = kept
		seat = append(seat, rs.moved...)
	}
	if len(seat) > 0 {
		// Merge from the top: both runs are sorted, and nothing below the
		// lowest seat is touched.
		sort.Slice(seat, func(i, j int) bool { return spanLess(seat[i], seat[j]) })
		i := len(sh.byStart) - 1
		sh.byStart = append(sh.byStart, seat...)
		w := len(sh.byStart) - 1
		for j := len(seat) - 1; j >= 0; w-- {
			if i >= 0 && spanLess(seat[j], sh.byStart[i]) {
				sh.byStart[w] = sh.byStart[i]
				i--
			} else {
				sh.byStart[w] = seat[j]
				j--
			}
		}
		lo, hi = w+1, len(sh.byStart)
	}
	for _, fm := range rs.grown {
		at := sort.Search(len(sh.byStart), func(i int) bool { return !spanLess(sh.byStart[i], fm) })
		lo, hi = min(lo, at), max(hi, at+1)
	}
	sh.refreshPrefix(lo, hi)
}

// refreshPrefix recomputes prefixMaxEnd from position lo up: everything
// below lo must already be right. No file at or past position hi changed
// and prefixMaxEnd still lines up with byStart there, so once the pass is
// that far and computes the value already stored, the rest stands.
func (sh *shard) refreshPrefix(lo, hi int) {
	var max sim.Time
	if lo > 0 {
		max = sh.prefixMaxEnd[lo-1]
	}
	for i := lo; i < len(sh.byStart); i++ {
		if end := sh.byStart[i].end; end > max {
			max = end
		}
		switch {
		case i >= len(sh.prefixMaxEnd):
			sh.prefixMaxEnd = append(sh.prefixMaxEnd, max)
		case i >= hi && sh.prefixMaxEnd[i] == max:
			return
		default:
			sh.prefixMaxEnd[i] = max
		}
	}
}

// info builds a FileInfo snapshot. Caller holds mu (read).
func (sh *shard) info(fm *fileMeta, tolerance time.Duration) FileInfo {
	origins := make([]int32, 0, len(fm.origins))
	for o := range fm.origins {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	return FileInfo{
		ID:      fm.id,
		Start:   fm.start,
		End:     fm.end,
		Chunks:  len(fm.chunks),
		Bytes:   fm.bytes,
		Origins: origins,
		Gaps:    len(gapsIn(fm.chunks, tolerance)),
	}
}

// query collects files overlapping [from,to) whose origin set intersects
// origins (nil origins = no filter), using the interval index. from/to
// both zero means unbounded, matching retrieval.Query semantics.
func (sh *shard) query(from, to sim.Time, origins map[int32]bool, tolerance time.Duration) []FileInfo {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var out []FileInfo
	bounded := from != 0 || to != 0
	ub := len(sh.byStart)
	if bounded && to != 0 {
		ub = sort.Search(len(sh.byStart), func(i int) bool { return sh.byStart[i].start >= to })
	}
	for i := ub - 1; i >= 0; i-- {
		if bounded && sh.prefixMaxEnd[i] <= from {
			break // nothing earlier can reach into the window
		}
		fm := sh.byStart[i]
		if bounded && fm.end <= from {
			continue
		}
		if len(origins) > 0 && !intersects(fm.origins, origins) {
			continue
		}
		out = append(out, sh.info(fm, tolerance))
	}
	return out
}

func intersects(have map[int32]struct{}, want map[int32]bool) bool {
	for o := range want {
		if _, ok := have[o]; ok {
			return true
		}
	}
	return false
}

// fileChunks returns a copy of the file's chunk metadata, its cache
// version, and the segment epoch the offsets are valid for; ok is false
// for unknown files.
func (sh *shard) fileChunks(id flash.FileID) (metas []chunkMeta, version, epoch uint64, ok bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	fm := sh.files[id]
	if fm == nil {
		return nil, 0, 0, false
	}
	metas = make([]chunkMeta, len(fm.chunks))
	copy(metas, fm.chunks)
	return metas, fm.version, sh.epoch, true
}

// version returns the file's cache version (ok=false for unknown files).
func (sh *shard) version(id flash.FileID) (uint64, bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	fm := sh.files[id]
	if fm == nil {
		return 0, false
	}
	return fm.version, true
}

// gaps computes the file's gaps at the given tolerance from index
// metadata alone (no disk reads).
func (sh *shard) gaps(id flash.FileID, tolerance time.Duration) ([]Gap, bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	fm := sh.files[id]
	if fm == nil {
		return nil, false
	}
	return gapsIn(fm.chunks, tolerance), true
}

// errEpochChanged reports that a compaction swapped the segment between a
// fileChunks metadata fetch and the payload read; the caller refetches
// and retries.
var errEpochChanged = fmt.Errorf("archive: segment swapped mid-read")

// readChunks fetches every chunk in metas from the segment. The read
// lock pins the file handle and epoch: frames are immutable under
// concurrent appends, and a compaction that replaced the segment since
// the metadata was fetched is detected by the epoch check instead of
// returning bytes from the wrong offsets.
//
// Frames that sit near each other on disk — the common case, since a
// tour's chunks land in a handful of group commits — are coalesced into
// single reads: one syscall for a run of frames beats one per chunk by
// orders of magnitude on a reassembly of hundreds. Runs are bounded so a
// file sparsely scattered through a huge segment degrades to per-frame
// reads, never to reading the whole segment.
//
// Frames below unverifiedTo were indexed from a snapshot and have never
// been CRC-checked; they are verified here, on first touch — read time
// is where corruption under a snapshot surfaces.
func (sh *shard) readChunks(metas []chunkMeta, epoch uint64) ([]*flash.Chunk, error) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.epoch != epoch {
		return nil, errEpochChanged
	}
	// Visit frames in disk order (supersession and compaction can leave a
	// file's chunks out of offset order) without reordering the output.
	order := make([]int, len(metas))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return metas[order[a]].offset < metas[order[b]].offset })

	const (
		maxGap = 16 << 10 // tolerate this much dead/foreign data inside a run
		maxRun = 1 << 20  // cap a single read
	)
	out := make([]*flash.Chunk, len(metas))
	for i := 0; i < len(order); {
		first := metas[order[i]]
		runStart := first.offset - frameHeaderSize
		runEnd := first.offset + int64(first.length)
		j := i + 1
		for j < len(order) {
			next := metas[order[j]]
			if next.offset-frameHeaderSize-runEnd > maxGap ||
				next.offset+int64(next.length)-runStart > maxRun {
				break
			}
			runEnd = next.offset + int64(next.length)
			j++
		}
		buf := make([]byte, runEnd-runStart)
		if _, err := sh.f.ReadAt(buf, runStart); err != nil {
			return nil, fmt.Errorf("archive: reading chunks at %d: %w", runStart, err)
		}
		for k := i; k < j; k++ {
			m := metas[order[k]]
			payload := buf[m.offset-runStart : m.offset-runStart+int64(m.length)]
			if m.offset-frameHeaderSize < sh.unverifiedTo {
				hdr := buf[m.offset-frameHeaderSize-runStart:]
				if int32(binary.BigEndian.Uint32(hdr)) != m.length ||
					crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[4:]) {
					return nil, fmt.Errorf("archive: chunk at %d failed CRC (segment corrupted)", m.offset)
				}
			}
			c, n, err := flash.DecodeRecord(payload)
			if err != nil || n != len(payload) {
				return nil, fmt.Errorf("archive: decoding chunk at %d: %v", m.offset, err)
			}
			out[order[k]] = c
		}
		i = j
	}
	return out, nil
}

// stats snapshots shard-level totals.
func (sh *shard) stats() (files, chunks int, bytes, segBytes, recovered, superseded int64) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, fm := range sh.files {
		files++
		chunks += len(fm.chunks)
		bytes += fm.bytes
	}
	return files, chunks, bytes, sh.size, sh.recoveredBytes, sh.supersededBytes
}

// closeFiles syncs and closes the segment file. Runs after the writer
// goroutine has exited.
func (sh *shard) closeFiles() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.f == nil {
		return nil
	}
	err := sh.f.Sync()
	if cerr := sh.f.Close(); err == nil {
		err = cerr
	}
	sh.f = nil
	return err
}
