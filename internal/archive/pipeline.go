package archive

import (
	"fmt"
	"sort"
	"time"

	"enviromic/internal/flash"
)

// The ingest pipeline: each shard owns one writer goroutine, the sole
// mutator of its segment and indexes. Store.IngestFrames validates a wire
// body once, splits its frames by shard and submits every shard's share
// concurrently, so a body that spans shards pipelines across disks instead
// of serializing; many concurrent callers hitting one shard are
// group-committed — the writer drains whatever submissions are queued (up
// to groupMax), stages them all, performs ONE segment write and (when
// SyncOnIngest is set) ONE fsync for the group, then publishes the index
// mutations under a single write-lock acquisition. Amortizing the fsync
// across the group is what makes durable ingest scale with client count:
// k clients cost one flush, not k.
//
// A frame enters the segment as the bytes it arrived as. The wire framing
// is the segment framing and has no optional fields, so a frame that
// passed parseFrames is already what the writer would have encoded:
// staging takes the dedup / supersede / duplicate decision on the frame's
// header metadata and copies a surviving frame — length, CRC and record —
// out of the body into the group buffer. Nothing is decoded into a chunk,
// re-encoded or checksummed a second time.
//
// Staging runs lock-free: the writer reads the committed index without
// locking (no other goroutine mutates it) and accumulates all changes in
// a group-private overlay, so queries proceed under read locks for the
// whole stage/write/fsync. Only the final index publish takes the write
// lock, and it does no I/O and costs what the group changed, not what the
// shard holds: the interval index is patched for the files whose span
// moved (shard.reindex), and a file's gap state before the group is read
// from what the writer remembered after the last one (fileMeta.gaps).
//
// Semantics note: a submission's gap deltas are computed against the
// index as of its group's start and end. For a single caller (the mule
// flush loop, every test) a group is one submission and the deltas are
// exact; concurrent same-file submissions in one group see the group's
// combined effect, which is the honest answer to "what did this tour
// change" when tours land simultaneously anyway.

// groupMax bounds how many queued submissions one group commit absorbs.
const groupMax = 64

// submission is one shard's share of an IngestFrames body: the body, and
// the frames in it that belong to this shard. The writer reads body only
// until it replies.
type submission struct {
	body   []byte
	frames []frameRef
	reply  chan subResult
}

// subResult is the writer's answer to one submission.
type subResult struct {
	deltas                  []FileDelta
	added, dups, superseded int
	err                     error
}

// stagedFile is the group-private overlay for one touched file.
type stagedFile struct {
	fm        *fileMeta // nil for a file new in this group
	id        flash.FileID
	newChunks []chunkMeta
	// replace maps committed chunk indexes to superseding metadata.
	replace map[int32]chunkMeta
	// overlaySeen maps dedup keys first seen in this group to indexes
	// into newChunks.
	overlaySeen map[uint64]int32
	deadBytes   int64 // frame bytes superseded by this group

	gapsBefore    int
	gapSpanBefore time.Duration
}

// changed reports whether the group added to or superseded in the file.
func (sf *stagedFile) changed() bool { return len(sf.newChunks) > 0 || len(sf.replace) > 0 }

// perFileCounts tracks one submission's effect on one file.
type perFileCounts struct {
	added, dups, superseded int
}

// startWriter launches the shard's writer goroutine.
func (sh *shard) startWriter() {
	sh.wg.Add(1)
	go sh.runWriter()
}

// runWriter is the shard's writer loop: group-commit submissions, run
// control closures (sync, checkpoint, compaction) between groups, exit
// when the submission channel closes.
func (sh *shard) runWriter() {
	defer sh.wg.Done()
	for {
		select {
		case sub, ok := <-sh.subs:
			if !ok {
				return
			}
			group := []*submission{sub}
			for len(group) < groupMax {
				more, ok := sh.tryRecv()
				if !ok {
					break
				}
				group = append(group, more)
			}
			sh.commitGroup(group)
			sh.maybeCheckpoint()
			sh.maybeAutoCompact()
		case fn, ok := <-sh.ctl:
			if !ok {
				return
			}
			fn()
		}
	}
}

// tryRecv pulls one more queued submission without blocking.
func (sh *shard) tryRecv() (*submission, bool) {
	select {
	case sub, ok := <-sh.subs:
		if !ok {
			return nil, false
		}
		return sub, true
	default:
		return nil, false
	}
}

// runCtl executes fn on the writer goroutine and waits for it — the
// store's way to run compaction, checkpoints, and syncs with the
// guarantee that no append is in flight.
func (sh *shard) runCtl(fn func()) {
	done := make(chan struct{})
	sh.ctl <- func() {
		defer close(done)
		fn()
	}
	<-done
}

// commitGroup stages, writes, fsyncs, and publishes one submission group.
func (sh *shard) commitGroup(group []*submission) {
	sh.env.cGroups.Inc()
	sh.env.hGroupBatch.Observe(float64(len(group)))
	// Presize the group buffer to the worst case (every frame surviving)
	// and reuse the writer's scratch allocation across groups —
	// append-doubling a quarter-megabyte group costs more than the sum.
	need := 0
	for _, sub := range group {
		for _, fr := range sub.frames {
			need += fr.hi - fr.lo
		}
	}
	if cap(sh.scratch) < need {
		sh.scratch = make([]byte, 0, need)
	}
	var (
		buf     = sh.scratch[:0]
		overlay = make(map[flash.FileID]*stagedFile)
		// counts[i] is submission i's per-file tally, keyed by file.
		counts = make([]map[flash.FileID]*perFileCounts, len(group))
	)
	writeBase := sh.size

	// Stage: dedup/supersede decisions against committed index + overlay,
	// surviving frames copied into one buffer. Infallible: parseFrames
	// refused anything malformed before the body was submitted.
	for i, sub := range group {
		counts[i] = make(map[flash.FileID]*perFileCounts)
		for _, fr := range sub.frames {
			sf := overlay[fr.File]
			if sf == nil {
				sf = sh.stageFile(fr.File)
				overlay[fr.File] = sf
			}
			pc := counts[i][fr.File]
			if pc == nil {
				pc = &perFileCounts{}
				counts[i][fr.File] = pc
			}
			buf = stageChunk(sf, pc, fr, sub.body, writeBase, buf)
		}
	}

	if len(buf) > 0 {
		if _, err := sh.f.WriteAt(buf, writeBase); err != nil {
			// The group's frames may be partially on disk past sh.size;
			// the size is not advanced, so the next group overwrites them
			// and a reopen's CRC scan stops at the torn region.
			failGroup(group, fmt.Errorf("archive: appending to %s: %w", sh.path, err))
			return
		}
		if sh.env.syncOnIngest {
			syncStart := time.Now()
			if err := sh.f.Sync(); err != nil {
				failGroup(group, fmt.Errorf("archive: syncing %s: %w", sh.path, err))
				return
			}
			sh.env.cGroupSyncs.Inc()
			sh.env.hFsync.ObserveDuration(time.Since(syncStart))
		}
	}

	// Publish: merge the overlay into the committed index under one write
	// lock. Pure memory — queries are blocked only for the merge itself,
	// and a group of duplicates leaves the interval index alone.
	sh.mu.Lock()
	var rs respan
	for _, sf := range overlay {
		sh.publishFile(sf, &rs)
	}
	sh.size += int64(len(buf))
	sh.reindex(rs)
	sh.mu.Unlock()
	if len(buf) > 0 {
		sh.env.signalChange() // the size, and so the manifest tag, moved
	}

	// Report: gap state after the group for the files it changed, computed
	// lock-free (the writer is the only mutator) and remembered for the
	// next group's "before"; then reply to every submission.
	for _, sf := range overlay {
		if sf.changed() {
			sf.fm.refreshGaps(sh.env.gapTolerance)
		}
	}
	for i, sub := range group {
		var r subResult
		for id, pc := range counts[i] {
			sf := overlay[id]
			r.deltas = append(r.deltas, FileDelta{
				File:          id,
				Added:         pc.added,
				Duplicates:    pc.dups,
				Superseded:    pc.superseded,
				GapsBefore:    sf.gapsBefore,
				GapsAfter:     sf.fm.gaps,
				GapSpanBefore: sf.gapSpanBefore,
				GapSpanAfter:  sf.fm.gapSpan,
			})
			r.added += pc.added
			r.dups += pc.dups
			r.superseded += pc.superseded
		}
		sort.Slice(r.deltas, func(a, b int) bool { return r.deltas[a].File < r.deltas[b].File })
		sub.reply <- r
	}
	sh.scratch = buf[:0]
}

// stageFile opens a file's overlay, capturing its pre-group gap state —
// remembered from the last group that changed the file, or computed now
// if none has since open.
func (sh *shard) stageFile(id flash.FileID) *stagedFile {
	// replace and overlaySeen stay nil until a chunk survives dedup — a
	// duplicate-only group allocates no per-file maps.
	sf := &stagedFile{id: id}
	if fm := sh.files[id]; fm != nil {
		sf.fm = fm
		if fm.bySeq == nil {
			// Built outside the lock, published under it: only this
			// goroutine reads bySeq, but the index-bytes gauge reads its
			// size under RLock.
			bySeq := fm.indexTail(nil)
			sh.mu.Lock()
			fm.bySeq = bySeq
			sh.mu.Unlock()
		}
		if !fm.gapsKnown {
			fm.refreshGaps(sh.env.gapTolerance)
		}
		sf.gapsBefore, sf.gapSpanBefore = fm.gaps, fm.gapSpan
	}
	return sf
}

// stageChunk applies one frame's dedup/supersede decision to the overlay
// and copies the frame out of body into buf when it survives. Mirrors
// shard.foldScanned (the scan path) so an ingest-built index and a rebuilt
// one agree.
func stageChunk(sf *stagedFile, pc *perFileCounts, fr frameRef, body []byte, writeBase int64, buf []byte) []byte {
	key := dedupKey(fr.Origin, fr.Seq)
	newLen := int32(flash.MinRecordSize + fr.PayloadLen)

	// Current holder of the key, looking through the overlay first.
	var cur *chunkMeta
	var curInOverlay bool // points into newChunks (vs committed/replace)
	var overlayIdx int32
	var committedIdx int32
	if j, ok := sf.overlaySeen[key]; ok {
		cur, curInOverlay, overlayIdx = &sf.newChunks[j], true, j
	} else if sf.fm != nil {
		if i, ok := sf.fm.find(key); ok {
			committedIdx = i
			if r, ok := sf.replace[i]; ok {
				cur = &r
			} else {
				cur = &sf.fm.chunks[i]
			}
		}
	}

	if cur != nil && newLen <= cur.length() {
		pc.dups++
		return buf // duplicate: never reaches disk
	}

	meta := chunkMeta{
		start: fr.Start, end: fr.End,
		pos:    packPos(writeBase+int64(len(buf))+frameHeaderSize, newLen),
		origin: fr.Origin, seq: fr.Seq,
	}
	buf = append(buf, body[fr.lo:fr.hi]...)
	switch {
	case cur == nil:
		if sf.overlaySeen == nil {
			sf.overlaySeen = make(map[uint64]int32)
		}
		sf.overlaySeen[key] = int32(len(sf.newChunks))
		sf.newChunks = append(sf.newChunks, meta)
		pc.added++
	case curInOverlay:
		// A longer copy landed in the same group: the staged frame is
		// already in buf and will be dead on arrival.
		sf.deadBytes += cur.frameBytes()
		sf.newChunks[overlayIdx] = meta
		pc.superseded++
	default:
		sf.deadBytes += cur.frameBytes()
		if sf.replace == nil {
			sf.replace = make(map[int32]chunkMeta)
		}
		sf.replace[committedIdx] = meta
		pc.superseded++
	}
	return buf
}

// publishFile merges one file's overlay into the committed index and
// notes in rs what that did to the file's span. Caller holds mu (write).
func (sh *shard) publishFile(sf *stagedFile, rs *respan) {
	sh.supersededBytes += sf.deadBytes // dup-only groups can still strand staged frames
	if !sf.changed() {
		return
	}
	fm := sf.fm
	if fm == nil {
		first := sf.newChunks[0]
		fm = &fileMeta{
			id:    sf.id,
			start: first.start,
			end:   first.end,
		}
		sh.files[sf.id] = fm
	}
	oldStart, oldEnd := fm.start, fm.end
	// A supersession keeps its chunk's index and key: bySeq stands.
	for i, m := range sf.replace {
		old := fm.chunks[i]
		fm.chunks[i] = m
		fm.bytes += m.payloadBytes() - old.payloadBytes()
		absorbSpan(fm, m)
	}
	for _, m := range sf.newChunks {
		fm.chunks = append(fm.chunks, m)
		fm.bytes += m.payloadBytes()
		absorbSpan(fm, m)
	}
	if len(sf.newChunks) > 0 {
		fm.bySeq = fm.indexTail(fm.bySeq)
	}
	fm.version++
	switch {
	case sf.fm == nil:
		sf.fm = fm
		rs.fresh = append(rs.fresh, fm)
	case fm.start != oldStart:
		rs.moved = append(rs.moved, fm)
	case fm.end != oldEnd:
		rs.grown = append(rs.grown, fm)
	}
}

// failGroup replies the same error to every submission in the group.
func failGroup(group []*submission, err error) {
	for _, sub := range group {
		sub.reply <- subResult{err: err}
	}
}

// maybeCheckpoint writes an index snapshot once enough bytes accumulated
// since the last one. Runs on the writer goroutine between groups; errors
// are dropped (the next threshold crossing retries, and open always falls
// back to a scan).
func (sh *shard) maybeCheckpoint() {
	if sh.env.checkpointBytes <= 0 {
		return
	}
	if sh.size-sh.lastCheckpoint >= sh.env.checkpointBytes {
		sh.writeSnapshot()
	}
}

// maybeAutoCompact compacts the shard once enough superseded bytes
// accumulated. Runs on the writer goroutine between groups.
func (sh *shard) maybeAutoCompact() {
	if sh.env.autoCompact <= 0 || sh.supersededBytes < sh.env.autoCompact {
		return
	}
	sh.compact()
}
