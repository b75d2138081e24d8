package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"enviromic/internal/flash"
	"enviromic/internal/sim"
)

// Index snapshots make Open O(tail) instead of O(archive): each shard
// periodically checkpoints its in-memory indexes to `shard-NNN.idx`, a
// single-file, CRC-framed dump stamped with the shard's segment
// generation and the segment offset it covers. Open loads the snapshot,
// rebuilds the indexes from metadata alone (no payload reads, no record
// decoding), and replays only the segment bytes appended after the
// covered offset. Any mismatch — bad magic, unsupported version, CRC
// failure, a generation that disagrees with the manifest (the segment
// was compacted after the snapshot), or a covered offset beyond the
// segment — discards the snapshot and falls back to the full scan, so a
// corrupt or stale snapshot can cost time but never correctness.
//
// Layout (all integers big-endian, matching the segment framing):
//
//	header (32 bytes):
//	  u32 magic "EVIX"   u32 version
//	  u64 generation     u64 coveredOffset
//	  u32 payloadLen     u32 CRC-32 (IEEE) of the 28 bytes before it and the payload
//	payload:
//	  u64 supersededBytes
//	  u32 fileCount
//	  per file (sorted by ID):
//	    u32 id  u64 start  u64 end  u64 payloadBytes
//	    u32 originCount  [u32 origin]...
//	    u32 chunkCount   [u64 offset  u64 start  u64 end
//	                      u32 origin  u32 length  u32 seq]...
//
// The per-file dedup index is deliberately absent: it is rebuilt lazily
// from the chunk list the first time an ingest touches the file
// (fileMeta.ensureBySeq), so loading a million-chunk snapshot sorts
// nothing for files that are never written again. A file's origins must
// be strictly increasing, and a chunk record must fit the in-memory
// packed form (chunkMeta.pos) and lie within the covered offset; a
// snapshot that breaks either is discarded like a corrupt one.
//
// The checksum covers the header too: a covered offset that is off by a
// few bytes would otherwise pass every check, start the tail replay
// inside a frame and have open truncate live frames as a torn tail.
// Version 1 checksummed the payload alone; its snapshots are discarded
// (one rescan) and rewritten as version 2 at the next checkpoint.
const (
	snapshotMagic      = 0x45564958 // "EVIX"
	snapshotVersion    = 2
	snapshotHeaderSize = 32
	snapshotSuffix     = ".idx"
)

// errSnapshot tags every load failure so openShard can distinguish "no
// usable snapshot, rescan" from real I/O errors on the segment itself.
var errSnapshot = errors.New("archive: unusable snapshot")

// snapshotPath derives the snapshot file path from the segment path.
func snapshotPath(segPath string) string {
	ext := filepath.Ext(segPath)
	return segPath[:len(segPath)-len(ext)] + snapshotSuffix
}

// encodeSnapshot serializes the shard's indexes. Caller must guarantee a
// quiescent index (the shard's writer goroutine, or open-time code).
func (sh *shard) encodeSnapshot() []byte {
	ids := make([]flash.FileID, 0, len(sh.files))
	var chunkTotal int
	for id, fm := range sh.files {
		ids = append(ids, id)
		chunkTotal += len(fm.chunks)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	size := snapshotHeaderSize + 12 + len(ids)*32 + chunkTotal*36
	for _, id := range ids {
		size += 4 * len(sh.files[id].origins)
	}
	buf := make([]byte, snapshotHeaderSize, size)
	buf = binary.BigEndian.AppendUint64(buf, uint64(sh.supersededBytes))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		fm := sh.files[id]
		buf = binary.BigEndian.AppendUint32(buf, uint32(fm.id))
		buf = binary.BigEndian.AppendUint64(buf, uint64(fm.start))
		buf = binary.BigEndian.AppendUint64(buf, uint64(fm.end))
		buf = binary.BigEndian.AppendUint64(buf, uint64(fm.bytes))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(fm.origins)))
		for _, o := range fm.origins {
			buf = binary.BigEndian.AppendUint32(buf, uint32(o))
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(fm.chunks)))
		for _, m := range fm.chunks {
			buf = binary.BigEndian.AppendUint64(buf, uint64(m.offset()))
			buf = binary.BigEndian.AppendUint64(buf, uint64(m.start))
			buf = binary.BigEndian.AppendUint64(buf, uint64(m.end))
			buf = binary.BigEndian.AppendUint32(buf, uint32(m.origin))
			buf = binary.BigEndian.AppendUint32(buf, uint32(m.length()))
			buf = binary.BigEndian.AppendUint32(buf, m.seq)
		}
	}
	payload := buf[snapshotHeaderSize:]
	binary.BigEndian.PutUint32(buf[0:], snapshotMagic)
	binary.BigEndian.PutUint32(buf[4:], snapshotVersion)
	binary.BigEndian.PutUint64(buf[8:], sh.gen)
	binary.BigEndian.PutUint64(buf[16:], uint64(sh.size))
	binary.BigEndian.PutUint32(buf[24:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[28:], snapshotSum(buf))
	return buf
}

// snapshotSum is the checksum a snapshot image carries at offset 28.
func snapshotSum(image []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(image[:28]), crc32.IEEETable, image[snapshotHeaderSize:])
}

// writeSnapshot checkpoints the shard's indexes: encode, write to a temp
// file, fsync, atomic rename. A crash at any point leaves either the old
// snapshot or the new one, never a torn one (a torn temp is ignored and
// deleted at the next open). Runs on the shard's writer goroutine (or at
// open/close when no writer is live).
func (sh *shard) writeSnapshot() error {
	if sh.env.noSnapshots || sh.checkpointsBroken {
		return nil
	}
	hook := sh.env.checkpointHook
	buf := sh.encodeSnapshot()
	tmp := sh.idxPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if hook != nil {
		if err := hook(sh.id, "checkpoint:temp-written"); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if hook != nil {
		if err := hook(sh.id, "checkpoint:temp-synced"); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, sh.idxPath); err != nil {
		return err
	}
	syncDir(filepath.Dir(sh.idxPath))
	sh.lastCheckpoint = sh.size
	sh.env.cCheckpoints.Inc()
	sh.env.cCheckpointBytes.Add(int64(len(buf)))
	return nil
}

// loadSnapshot reads and validates the shard's snapshot and rebuilds the
// in-memory indexes from it. wantGen is the manifest's generation for
// this shard; segSize the segment's current size. On success the shard's
// files/supersededBytes are populated and the covered offset is
// returned; the caller replays [covered, segSize) and rebuilds the
// interval index. Every failure is wrapped in errSnapshot.
func (sh *shard) loadSnapshot(wantGen uint64, segSize int64) (int64, error) {
	data, err := os.ReadFile(sh.idxPath)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", errSnapshot, err)
	}
	if len(data) < snapshotHeaderSize {
		return 0, fmt.Errorf("%w: short header (%d bytes)", errSnapshot, len(data))
	}
	if binary.BigEndian.Uint32(data[0:]) != snapshotMagic {
		return 0, fmt.Errorf("%w: bad magic", errSnapshot)
	}
	if v := binary.BigEndian.Uint32(data[4:]); v != snapshotVersion {
		return 0, fmt.Errorf("%w: version %d not supported", errSnapshot, v)
	}
	if g := binary.BigEndian.Uint64(data[8:]); g != wantGen {
		return 0, fmt.Errorf("%w: generation %d, manifest says %d", errSnapshot, g, wantGen)
	}
	covered := int64(binary.BigEndian.Uint64(data[16:]))
	if covered < 0 || covered > segSize {
		return 0, fmt.Errorf("%w: covers %d bytes, segment has %d", errSnapshot, covered, segSize)
	}
	payload := data[snapshotHeaderSize:]
	if n := binary.BigEndian.Uint32(data[24:]); int(n) != len(payload) {
		return 0, fmt.Errorf("%w: payload is %d bytes, header says %d", errSnapshot, len(payload), n)
	}
	if snapshotSum(data) != binary.BigEndian.Uint32(data[28:]) {
		return 0, fmt.Errorf("%w: CRC mismatch", errSnapshot)
	}

	// Validated; decode. The reader helpers fail soft (ok=false) on a
	// short payload so a logically-inconsistent but CRC-clean snapshot
	// (impossible unless we wrote it wrong) still degrades to a rescan.
	r := snapReader{buf: payload, ok: true}
	superseded := int64(r.u64())
	fileCount := int(r.u32())
	files := make(map[flash.FileID]*fileMeta, fileCount)
	for i := 0; i < fileCount && r.ok; i++ {
		fm := &fileMeta{
			id:    flash.FileID(r.u32()),
			start: sim.Time(r.u64()),
			end:   sim.Time(r.u64()),
			bytes: int64(r.u64()),
		}
		originCount := int(r.u32())
		if originCount < 0 || !r.has(originCount*4) {
			r.ok = false
			break
		}
		fm.origins = make([]int32, originCount)
		for j := range fm.origins {
			fm.origins[j] = int32(r.u32())
			if j > 0 && fm.origins[j] <= fm.origins[j-1] {
				return 0, fmt.Errorf("%w: file %d origins not strictly increasing", errSnapshot, fm.id)
			}
		}
		chunkCount := int(r.u32())
		if chunkCount < 0 || !r.has(chunkCount*36) {
			r.ok = false
			break
		}
		// Hot loop of a million-chunk open: decode the fixed-width chunk
		// records by direct indexing rather than through the cursor's
		// per-field calls.
		fm.chunks = make([]chunkMeta, chunkCount)
		recs := r.buf[r.pos : r.pos+chunkCount*36]
		r.pos += chunkCount * 36
		for j := range fm.chunks {
			rec := recs[j*36 : j*36+36 : j*36+36]
			off := binary.BigEndian.Uint64(rec[0:])
			length := binary.BigEndian.Uint32(rec[28:])
			if off < frameHeaderSize || off > maxPosOffset || length < flash.MinRecordSize || length > flash.MaxRecordSize ||
				off+uint64(length) > uint64(covered) {
				return 0, fmt.Errorf("%w: file %d chunk %d at %d+%d does not fit the index", errSnapshot, fm.id, j, off, length)
			}
			fm.chunks[j] = chunkMeta{
				start:  sim.Time(binary.BigEndian.Uint64(rec[8:])),
				end:    sim.Time(binary.BigEndian.Uint64(rec[16:])),
				pos:    packPos(int64(off), int32(length)),
				origin: int32(binary.BigEndian.Uint32(rec[24:])),
				seq:    binary.BigEndian.Uint32(rec[32:]),
			}
		}
		files[fm.id] = fm
	}
	if !r.ok || len(r.buf) != r.pos {
		return 0, fmt.Errorf("%w: truncated or oversized payload", errSnapshot)
	}
	sh.files = files
	sh.supersededBytes = superseded
	return covered, nil
}

// snapReader is a bounds-checked big-endian cursor over a snapshot
// payload.
type snapReader struct {
	buf []byte
	pos int
	ok  bool
}

func (r *snapReader) has(n int) bool { return r.pos+n <= len(r.buf) }

func (r *snapReader) u32() uint32 {
	if !r.has(4) {
		r.ok = false
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v
}

func (r *snapReader) u64() uint64 {
	if !r.has(8) {
		r.ok = false
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

// syncDir fsyncs a directory so a just-renamed or just-removed entry is
// durable before the protocol's next step. Best-effort: some filesystems
// refuse directory fsync, and the frame/snapshot CRCs keep a reordered
// metadata journal safe (worst case: a stale view that the validation
// path rejects into a rescan).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
