package archive

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"enviromic/internal/flash"
	"enviromic/internal/sim"
	"enviromic/internal/telemetry"
)

// chunkMeta is the in-memory index entry for one archived chunk: enough
// metadata to answer listings, interval queries, and gap math without
// touching disk, plus the segment location to fetch the payload when a
// reassembly actually needs bytes. It is 32 bytes: the frame location
// packs into one word (see packPos), and a million-chunk archive holds a
// million of these.
type chunkMeta struct {
	start  sim.Time
	end    sim.Time
	pos    uint64 // frame payload offset << 16 | record length
	origin int32
	seq    uint32
}

// The packed frame location: a 48-bit payload offset (256 TiB of segment)
// over a 16-bit record length (flash.MaxRecordSize is far below 64 KiB).
const (
	posLengthBits = 16
	maxPosOffset  = 1<<(64-posLengthBits) - 1
	maxPosLength  = 1<<posLengthBits - 1
)

// packPos packs a frame payload offset and record length into
// chunkMeta.pos. Callers guarantee both fit: the segment writer and the
// scan produce nothing larger, and the snapshot loader refuses a record
// that does not fit.
func packPos(offset int64, length int32) uint64 {
	return uint64(offset)<<posLengthBits | uint64(length)
}

// offset is the frame payload offset in the shard segment.
func (m chunkMeta) offset() int64 { return int64(m.pos >> posLengthBits) }

// length is the payload length (compact record size).
func (m chunkMeta) length() int32 { return int32(m.pos & maxPosLength) }

// payloadBytes is the audio bytes inside the record (header excluded).
func (m chunkMeta) payloadBytes() int64 { return int64(m.length()) - flash.MinRecordSize }

// frameBytes is the full on-disk footprint of the chunk's frame.
func (m chunkMeta) frameBytes() int64 { return int64(m.length()) + frameHeaderSize }

// fileMeta aggregates one distributed file's archived chunks.
type fileMeta struct {
	id      flash.FileID
	start   sim.Time // min chunk start
	end     sim.Time // max chunk end
	bytes   int64    // payload bytes (audio only, headers excluded)
	version uint64   // bumped on every ingest that changes chunks; guards the reassembly cache
	chunks  []chunkMeta
	// bySeq is the dedup index: the indexes of chunks, sorted by their
	// dedupKey(origin, seq), searched by binary search. When not nil it
	// indexes chunks[:len(bySeq)] — all of them, except while an open-time
	// scan appends (it merges its tail in when it ends). nil after a
	// snapshot load: it is built by ensureBySeq the first time an ingest
	// touches the file, so opening a million-chunk snapshot sorts nothing
	// for files that never grow again. Private to the shard's writer, which
	// once the store is open writes it only under mu (the index-bytes
	// gauge reads its size).
	bySeq []int32
	// origins is the sorted, distinct origin IDs of the file's chunks.
	origins []int32

	// The file's gap count and span at the store's default tolerance, as
	// of the last group commit that changed it. Private to the shard's
	// writer, which reads an ingest delta's "before" from them instead of
	// re-sorting the chunk list; unknown after open (snapshot or scan)
	// until the writer first touches the file. Queries compute their own.
	gapsKnown bool
	gaps      int
	gapSpan   time.Duration
}

// dedupKey packs (origin, seq) into one sortable key. File identity is
// implied by the enclosing fileMeta.
func dedupKey(origin int32, seq uint32) uint64 {
	return uint64(uint32(origin))<<32 | uint64(seq)
}

// keyAt is the dedup key of chunks[i].
func (fm *fileMeta) keyAt(i int32) uint64 {
	m := &fm.chunks[i]
	return dedupKey(m.origin, m.seq)
}

// find returns the index in chunks of the chunk bySeq holds under key.
func (fm *fileMeta) find(key uint64) (int32, bool) {
	lo, hi := 0, len(fm.bySeq)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if fm.keyAt(fm.bySeq[mid]) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(fm.bySeq) && fm.keyAt(fm.bySeq[lo]) == key {
		return fm.bySeq[lo], true
	}
	return 0, false
}

// ensureBySeq builds the dedup index if it is absent (after a snapshot
// load). Must run on the shard's sole mutator, with no reader live (open)
// or under mu.
func (fm *fileMeta) ensureBySeq() {
	if fm.bySeq == nil {
		fm.bySeq = fm.indexTail(nil)
	}
}

// keyRef is one chunk's dedup key and index: what the dedup index sorts.
type keyRef struct {
	key uint64
	i   int32
}

// keyOrder returns chunks[from:] as keyRefs sorted by key, ties — only a
// scan's raw tail has them — by index.
func (fm *fileMeta) keyOrder(from int) []keyRef {
	refs := make([]keyRef, len(fm.chunks)-from)
	for j := range refs {
		m := &fm.chunks[from+j]
		refs[j] = keyRef{dedupKey(m.origin, m.seq), int32(from + j)}
	}
	slices.SortFunc(refs, func(a, b keyRef) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	return refs
}

// indexTail returns bySeq extended by the chunks it does not index yet,
// chunks[len(bySeq):], whose keys must be distinct and new to it.
func (fm *fileMeta) indexTail(bySeq []int32) []int32 {
	return fm.mergeIndex(bySeq, fm.keyOrder(len(bySeq)))
}

// mergeIndex merges add — chunks bySeq does not hold, sorted by key — into
// bySeq from the top in one pass, so entries below the lowest new key are
// not moved. Keys are distinct (dedup guarantees it), so the order is
// strict. It may reuse bySeq's backing array.
func (fm *fileMeta) mergeIndex(bySeq []int32, add []keyRef) []int32 {
	old := len(bySeq)
	bySeq = slices.Grow(bySeq, len(add))[:old+len(add)]
	i, w := old-1, len(bySeq)-1
	for j := len(add) - 1; j >= 0; w-- {
		if i >= 0 && fm.keyAt(bySeq[i]) > add[j].key {
			bySeq[w] = bySeq[i]
			i--
		} else {
			bySeq[w] = add[j].i
			j--
		}
	}
	return bySeq
}

// addOrigin records origin o in the file's sorted origin list.
func (fm *fileMeta) addOrigin(o int32) {
	if i, ok := slices.BinarySearch(fm.origins, o); !ok {
		fm.origins = slices.Insert(fm.origins, i, o)
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
	// files is the primary index; the byStart/prefixMaxEnd pair is a
	// secondary index maintained on ingest.
	files map[flash.FileID]*fileMeta
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
	}

	replayed := 0
	scanStart := time.Now()
	valid, err := scanSegment(f, scanFrom, func(h flash.RecordHeader, off int64, length int32) {
		sh.appendScanned(h, off, length)
		replayed++
	})
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("archive: scanning %s: %w", path, err)
	}
	for _, fm := range sh.files {
		if fm.bySeq != nil && len(fm.bySeq) < len(fm.chunks) {
			sh.foldScanned(fm)
		}
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

// appendScanned appends one frame of an open-time segment scan to its
// file's chunk list as it is, duplicate or not; foldScanned settles the
// file once the scan ends. A file the scan meets first is created with an
// empty dedup index, and a snapshot-loaded file gets its index built
// before its first scanned frame lands, so the index covers exactly the
// chunks from before the scan.
func (sh *shard) appendScanned(h flash.RecordHeader, off int64, length int32) {
	fm := sh.files[h.File]
	if fm == nil {
		fm = &fileMeta{
			id:    h.File,
			start: h.Start,
			end:   h.End,
			bySeq: []int32{},
		}
		sh.files[h.File] = fm
	}
	fm.ensureBySeq()
	fm.chunks = append(fm.chunks, chunkMeta{
		start: h.Start, end: h.End, pos: packPos(off, length),
		origin: h.Origin, seq: h.Seq,
	})
}

// foldScanned folds the frames a scan appended to fm — chunks past what
// bySeq indexes, in segment order — into the index with full
// duplicate/supersession semantics, frame by frame in segment order: an
// unseen (origin, seq) key is added; a seen key with a strictly longer
// payload supersedes the indexed copy (the old frame becomes dead bytes);
// anything else is a duplicate (the new frame is dead bytes). Reopening a
// segment that still holds superseded frames — a crash beat compaction to
// them — so reproduces exactly the index state ingest built, and the
// ingest commit path applies the same rules via its staged variant in
// pipeline.go. One sort of the scanned keys puts every key's copies side
// by side in segment order, so the scan costs O(n log n) per file and no
// per-chunk map or sorted insert. Open-time only.
func (sh *shard) foldScanned(fm *fileMeta) {
	old := len(fm.bySeq)
	refs := fm.keyOrder(old)
	var added []keyRef // first copies of the keys new to the file, in key order
	for r := 0; r < len(refs); {
		e := r + 1
		for e < len(refs) && refs[e].key == refs[r].key {
			e++
		}
		run := refs[r:e]
		r = e
		held, ok := fm.find(run[0].key)
		if !ok {
			held = run[0].i
			added = append(added, run[0])
			fm.bytes += fm.chunks[held].payloadBytes()
			absorbSpan(fm, fm.chunks[held])
			run = run[1:]
		}
		for _, x := range run {
			m, cur := fm.chunks[x.i], &fm.chunks[held]
			if m.length() > cur.length() {
				// Longer copy supersedes: the indexed slot takes it, the
				// old frame is dead weight until compaction.
				fm.bytes += m.payloadBytes() - cur.payloadBytes()
				sh.supersededBytes += cur.frameBytes()
				*cur = m
				absorbSpan(fm, m)
			} else {
				sh.supersededBytes += m.frameBytes()
			}
		}
	}
	// Keep only the first copies, in segment order — where an append per
	// surviving frame would have put them — and index them.
	at := make([]int32, len(fm.chunks)-old) // raw position → new index; -1 dropped
	for j := range at {
		at[j] = -1
	}
	for _, a := range added {
		at[a.i-int32(old)] = 0
	}
	w := old
	for j, a := range at {
		if a >= 0 {
			fm.chunks[w] = fm.chunks[old+j]
			at[j] = int32(w)
			w++
		}
	}
	fm.chunks = fm.chunks[:w]
	for k, a := range added {
		added[k].i = at[a.i-int32(old)]
	}
	fm.bySeq = fm.mergeIndex(fm.bySeq, added)
}

// absorbSpan widens the file's span and origin set for one chunk.
func absorbSpan(fm *fileMeta, m chunkMeta) {
	if m.start < fm.start {
		fm.start = m.start
	}
	if m.end > fm.end {
		fm.end = m.end
	}
	fm.addOrigin(m.origin)
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
	origins := make([]int32, len(fm.origins))
	copy(origins, fm.origins)
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

func intersects(have []int32, want map[int32]bool) bool {
	for _, o := range have {
		if want[o] {
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
	sort.Slice(order, func(a, b int) bool { return metas[order[a]].offset() < metas[order[b]].offset() })

	const (
		maxGap = 16 << 10 // tolerate this much dead/foreign data inside a run
		maxRun = 1 << 20  // cap a single read
	)
	out := make([]*flash.Chunk, len(metas))
	for i := 0; i < len(order); {
		first := metas[order[i]]
		runStart := first.offset() - frameHeaderSize
		runEnd := first.offset() + int64(first.length())
		j := i + 1
		for j < len(order) {
			next := metas[order[j]]
			if next.offset()-frameHeaderSize-runEnd > maxGap ||
				next.offset()+int64(next.length())-runStart > maxRun {
				break
			}
			runEnd = next.offset() + int64(next.length())
			j++
		}
		buf := make([]byte, runEnd-runStart)
		if _, err := sh.f.ReadAt(buf, runStart); err != nil {
			return nil, fmt.Errorf("archive: reading chunks at %d: %w", runStart, err)
		}
		for k := i; k < j; k++ {
			m := metas[order[k]]
			off := m.offset()
			payload := buf[off-runStart : off-runStart+int64(m.length())]
			if off-frameHeaderSize < sh.unverifiedTo {
				hdr := buf[off-frameHeaderSize-runStart:]
				if int32(binary.BigEndian.Uint32(hdr)) != m.length() ||
					crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[4:]) {
					return nil, fmt.Errorf("archive: chunk at %d failed CRC (segment corrupted)", off)
				}
			}
			c, n, err := flash.DecodeRecord(payload)
			if err != nil || n != len(payload) {
				return nil, fmt.Errorf("archive: decoding chunk at %d: %v", off, err)
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

// fileIndexBytes is what one file costs the index beyond its three
// slices: its fileMeta, its slot in the files map (key, pointer and the
// map's per-slot overhead, about 16 bytes), and its byStart and
// prefixMaxEnd entries.
const fileIndexBytes = int64(unsafe.Sizeof(fileMeta{})) + 16 + 8 + 8

// indexBytes estimates the shard's in-memory index size: the capacity of
// every file's chunk, dedup and origin slices, plus fileIndexBytes per
// file. It walks the files under the read lock, so it costs a scrape
// O(files), not O(chunks).
func (sh *shard) indexBytes() int64 {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var n int64
	for _, fm := range sh.files {
		n += fileIndexBytes +
			int64(cap(fm.chunks))*int64(unsafe.Sizeof(chunkMeta{})) +
			int64(cap(fm.bySeq)+cap(fm.origins))*4
	}
	return n
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
