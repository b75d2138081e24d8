package archive

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// Segment compaction: supersession (a fuller copy of a chunk arriving
// after a partial one) leaves dead frames in the append-only segment.
// Compaction rewrites the segment keeping only live frames, with a
// protocol that is crash-safe at every step:
//
//  1. stream live frames (verbatim, CRCs included) to shard-NNN.seg.compact
//  2. fsync the temp file                          [hook: temp-written, temp-synced]
//  3. remove the index snapshot + fsync the dir    [hook: idx-removed]
//     — from here on, a reopen rebuilds by scanning, which is always correct
//  4. bump the shard's generation in the manifest  [hook: gen-bumped]
//     — a crash between 4 and 5 leaves the old segment with a gen-mismatched
//     manifest: any future snapshot stamped with the old gen is rejected
//     into a rescan of the old segment, which is still the live data
//  5. atomically rename temp over the segment + fsync the dir [hook: seg-renamed]
//  6. swap in-memory state under the write lock (new fd, new offsets,
//     epoch bump) — pure memory, cannot fail
//  7. write a fresh snapshot stamped with the new generation  [hook: snapshot-written]
//
// Every hook error models a kill at that boundary: the test reopens the
// directory and asserts equivalence. A store whose compaction aborted at
// or after step 3 keeps serving (memory and the segment file still agree)
// but stops writing snapshots (checkpointsBroken) — after step 3 this
// process no longer knows what a reopen will find on disk, so the only
// safe open path is the scan, and a snapshot written now could mask that.
// Compaction runs on the shard's writer goroutine, so no append is in
// flight; queries proceed against the old segment until the step-6 swap.

// compactSuffix names the compaction temp file next to the segment.
const compactSuffix = ".compact"

// CompactReport summarizes one compaction pass.
type CompactReport struct {
	Shards          int   `json:"shards"`            // shards rewritten (nonzero reclaim)
	ChunksKept      int   `json:"chunks_kept"`       // live chunks across rewritten shards
	ReclaimedBytes  int64 `json:"reclaimed_bytes"`   // dead frame bytes dropped
	SegmentBytesNow int64 `json:"segment_bytes_now"` // total segment bytes after the pass
}

// Compact rewrites every shard segment that holds superseded frames,
// reclaiming their bytes. Safe to call concurrently with ingest and
// queries; each shard compacts on its writer goroutine.
func (s *Store) Compact() (CompactReport, error) {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return CompactReport{}, errClosed
	}
	var rep CompactReport
	var firstErr error
	for _, sh := range s.shards {
		sh.runCtl(func() {
			kept, reclaimed, err := sh.compact()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("archive: compacting shard %d: %w", sh.id, err)
			}
			if reclaimed > 0 {
				rep.Shards++
				rep.ChunksKept += kept
				rep.ReclaimedBytes += reclaimed
			}
		})
	}
	for _, sh := range s.shards {
		sh.mu.RLock()
		rep.SegmentBytesNow += sh.size
		sh.mu.RUnlock()
	}
	return rep, firstErr
}

// compact rewrites this shard's segment. Must run on the writer
// goroutine. Returns live chunk count and reclaimed bytes (0,0 when the
// segment has no dead frames).
func (sh *shard) compact() (kept int, reclaimed int64, err error) {
	if sh.supersededBytes == 0 {
		return 0, 0, nil
	}
	hook := sh.env.compactHook
	fire := func(point string) error {
		if hook == nil {
			return nil
		}
		return hook(sh.id, point)
	}

	// Collect live frames in segment order so the rewrite is one
	// sequential pass over the old segment. The pointers stay valid: only
	// this goroutine grows a chunk list, and it is busy here.
	live := 0
	for _, fm := range sh.files {
		live += len(fm.chunks)
	}
	refs := make([]*chunkMeta, 0, live)
	for _, fm := range sh.files {
		for i := range fm.chunks {
			refs = append(refs, &fm.chunks[i])
		}
	}
	slices.SortFunc(refs, func(a, b *chunkMeta) int { return cmp.Compare(a.offset(), b.offset()) })

	tmpPath := sh.path + compactSuffix
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, 0, err
	}
	abortEarly := func(e error) (int, int64, error) {
		tmp.Close()
		os.Remove(tmpPath)
		return 0, 0, e
	}

	// Stream-copy live frames verbatim (header + payload, CRC intact)
	// through both buffers: a frame is peeked in the reader's buffer and
	// copied into the writer's, so the temp file takes 256 KiB writes.
	// (io.CopyN into an empty bufio.Writer would bypass it and issue one
	// write per frame.)
	if _, err := sh.f.Seek(0, io.SeekStart); err != nil {
		return abortEarly(err)
	}
	br := bufio.NewReaderSize(sh.f, 256<<10)
	bw := bufio.NewWriterSize(tmp, 256<<10)
	var readPos, writePos int64
	for _, m := range refs {
		frameStart := m.offset() - frameHeaderSize
		if frameStart < readPos {
			return abortEarly(fmt.Errorf("overlapping frames at %d", m.offset()))
		}
		if skip := frameStart - readPos; skip > 0 {
			if _, err := br.Discard(int(skip)); err != nil {
				return abortEarly(err)
			}
			readPos = frameStart
		}
		n := frameHeaderSize + int(m.length())
		frame, err := br.Peek(n)
		if err != nil {
			return abortEarly(err)
		}
		if _, err := bw.Write(frame); err != nil {
			return abortEarly(err)
		}
		_, _ = br.Discard(n) // cannot fail: Peek just buffered n bytes
		readPos += int64(n)
		writePos += int64(n)
	}
	if err := bw.Flush(); err != nil {
		return abortEarly(err)
	}
	if err := fire("temp-written"); err != nil {
		return abortEarly(err)
	}
	if err := tmp.Sync(); err != nil {
		return abortEarly(err)
	}
	if err := fire("temp-synced"); err != nil {
		return abortEarly(err)
	}

	// Point of commitment: from here any failure leaves disk in a state a
	// reopen recovers from by scanning, but this process must stop
	// trusting snapshots.
	abortLate := func(e error) (int, int64, error) {
		sh.checkpointsBroken = true
		tmp.Close()
		return 0, 0, e
	}
	if err := os.Remove(sh.idxPath); err != nil && !os.IsNotExist(err) {
		return abortEarly(err)
	}
	syncDir(filepath.Dir(sh.path))
	if err := fire("idx-removed"); err != nil {
		return abortLate(err)
	}
	newGen := sh.gen + 1
	if err := sh.env.bumpGen(sh.id, newGen); err != nil {
		return abortLate(err)
	}
	if err := fire("gen-bumped"); err != nil {
		return abortLate(err)
	}
	if err := os.Rename(tmpPath, sh.path); err != nil {
		return abortLate(err)
	}
	syncDir(filepath.Dir(sh.path))
	if err := fire("seg-renamed"); err != nil {
		// The rename landed but the swap below never ran; memory now
		// disagrees with disk. Only hook-injected kills take this path —
		// the caller is expected to abandon the store (crashClose) and
		// reopen, which scans the compacted segment.
		return abortLate(err)
	}

	reclaimed = sh.supersededBytes
	kept = len(refs)

	sh.mu.Lock()
	old := sh.f
	sh.f = tmp
	sh.size = writePos
	sh.gen = newGen
	sh.epoch++
	sh.supersededBytes = 0
	if sh.unverifiedTo > 0 {
		// Live frames were copied verbatim, not re-verified; with offsets
		// shuffled the only safe bound is the whole new segment.
		sh.unverifiedTo = writePos
	}
	// The new offsets are the copy's running position, replayed.
	var at int64
	for _, m := range refs {
		m.pos = packPos(at+frameHeaderSize, m.length())
		at += frameHeaderSize + int64(m.length())
	}
	sh.mu.Unlock()
	sh.env.signalChange()
	old.Close()

	sh.lastCheckpoint = 0
	sh.env.cCompactions.Inc()
	sh.env.cReclaimed.Add(reclaimed)
	sh.writeSnapshot()
	fire("snapshot-written")
	return kept, reclaimed, nil
}
