package archive

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"enviromic/internal/flash"
	"enviromic/internal/sim"
)

// Replication export. A peer station replicates this archive by pulling
// deltas: the segment logs already store chunks in the exact wire
// framing POST /ingest accepts (EncodeFrames), so a delta is raw segment
// bytes copied from a per-shard (generation, offset) cursor, cut at a
// frame boundary. The puller ingests the frames through its normal
// dedup path — (origin, seq) duplicates are dropped, strictly longer
// copies supersede — which makes re-pulling any byte range idempotent
// and lets a cursor reset cheaply: when compaction bumps a shard's
// generation the cursor restarts that shard from zero and the receiver
// absorbs the re-sent frames as duplicates.

// ShardCursor is one shard's replication position: the segment
// generation the offset is valid for, and the byte offset of the next
// frame to ship.
type ShardCursor struct {
	Gen uint64
	Off int64
}

// ReplCursor is a full replication cursor, one entry per shard. A nil
// or short cursor reads missing shards from offset zero.
type ReplCursor []ShardCursor

// String renders the cursor as "gen:off,gen:off,...", the /repl/delta
// query-parameter form.
func (c ReplCursor) String() string {
	parts := make([]string, len(c))
	for i, sc := range c {
		parts[i] = strconv.FormatUint(sc.Gen, 10) + ":" + strconv.FormatInt(sc.Off, 10)
	}
	return strings.Join(parts, ",")
}

// ParseReplCursor parses the String form. An empty string is the zero
// cursor (replicate everything).
func ParseReplCursor(s string) (ReplCursor, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	cur := make(ReplCursor, len(parts))
	for i, p := range parts {
		gen, off, ok := strings.Cut(p, ":")
		if !ok {
			return nil, fmt.Errorf("archive: bad cursor part %q (want gen:off)", p)
		}
		g, err := strconv.ParseUint(gen, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("archive: bad cursor generation %q", gen)
		}
		o, err := strconv.ParseInt(off, 10, 64)
		if err != nil || o < 0 {
			return nil, fmt.Errorf("archive: bad cursor offset %q", off)
		}
		cur[i] = ShardCursor{Gen: g, Off: o}
	}
	return cur, nil
}

// DefaultDeltaBytes is the delta batch budget when the caller passes
// maxBytes <= 0.
const DefaultDeltaBytes = 1 << 20

// Delta returns the next batch of replication frames after cur, cut at
// a frame boundary, along with the advanced cursor and the byte lag
// still unshipped after this batch (lag > 0 means call again). The
// frames are segment-log bytes — exactly what POST /ingest and
// DecodeFrames accept. A shard whose generation no longer matches the
// cursor (compaction ran) restarts from offset zero. Each call makes
// progress: at least one frame per behind shard is returned even when
// maxBytes is smaller than a frame.
func (s *Store) Delta(cur ReplCursor, maxBytes int64) (frames []byte, next ReplCursor, lag int64, err error) {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return nil, nil, 0, errClosed
	}
	if maxBytes <= 0 {
		maxBytes = DefaultDeltaBytes
	}
	// Reading a whole frame's worth always yields at least one frame of
	// progress.
	const minRead = int64(MaxFrameBytes)
	next = make(ReplCursor, len(s.shards))
	budget := maxBytes
	for i, sh := range s.shards {
		sh.mu.RLock()
		gen, size, f := sh.gen, sh.size, sh.f
		from := int64(0)
		if i < len(cur) && cur[i].Gen == gen {
			from = cur[i].Off
			if from > size {
				// A cursor past the end of a same-generation segment can
				// only come from a corrupted cursor store; restart the
				// shard rather than trust it.
				from = 0
			}
		}
		want := size - from
		if want <= 0 || f == nil {
			sh.mu.RUnlock()
			next[i] = ShardCursor{Gen: gen, Off: from}
			continue
		}
		if budget <= 0 {
			sh.mu.RUnlock()
			next[i] = ShardCursor{Gen: gen, Off: from}
			lag += want
			continue
		}
		readLen := want
		if readLen > budget {
			readLen = budget
			if readLen < minRead {
				readLen = minRead
				if readLen > want {
					readLen = want
				}
			}
		}
		buf := make([]byte, readLen)
		n, rerr := f.ReadAt(buf, from)
		sh.mu.RUnlock()
		if rerr != nil && int64(n) < readLen {
			return nil, nil, 0, fmt.Errorf("archive: reading delta of shard %d at %d: %w", i, from, rerr)
		}
		_, valid := framePrefix(buf[:n])
		frames = append(frames, buf[:valid]...)
		next[i] = ShardCursor{Gen: gen, Off: from + int64(valid)}
		budget -= int64(valid)
		lag += want - int64(valid)
	}
	return frames, next, lag, nil
}

// framePrefix walks frame headers from the start of b and returns the
// longest prefix made of whole frames: how many, and their length in
// bytes. b must begin at a frame boundary (cursors only ever advance by
// whole frames). CRC validation is left to the receiver's parseFrames.
func framePrefix(b []byte) (frames, size int) {
	for size+frameHeaderSize <= len(b) {
		n := int(binary.BigEndian.Uint32(b[size:]))
		if n < flash.MinRecordSize || n > flash.MaxRecordSize {
			break // torn or corrupt header: stop at the last good frame
		}
		if size+frameHeaderSize+n > len(b) {
			break
		}
		size += frameHeaderSize + n
		frames++
	}
	return frames, size
}

// ReplShardStatus is one shard's replication source state.
type ReplShardStatus struct {
	Gen  uint64 `json:"gen"`
	Size int64  `json:"size"`
}

// ReplStatus is the /repl/status snapshot a puller uses to size its lag
// against this station.
type ReplStatus struct {
	Shards []ReplShardStatus `json:"shards"`
	Files  int               `json:"files"`
	Chunks int               `json:"chunks"`
}

// ReplStatus reports each shard's current generation and segment size —
// the end-of-log cursor — plus index totals.
func (s *Store) ReplStatus() ReplStatus {
	st := ReplStatus{Shards: make([]ReplShardStatus, len(s.shards))}
	for i, sh := range s.shards {
		sh.mu.RLock()
		st.Shards[i] = ReplShardStatus{Gen: sh.gen, Size: sh.size}
		for _, fm := range sh.files {
			st.Files++
			st.Chunks += len(fm.chunks)
		}
		sh.mu.RUnlock()
	}
	return st
}

// Lag returns how many segment bytes cur still has to pull to catch up
// with status: the sum over shards of size − offset, counting the whole
// shard when the generations disagree.
func (st ReplStatus) Lag(cur ReplCursor) int64 {
	var lag int64
	for i, ss := range st.Shards {
		off := int64(0)
		if i < len(cur) && cur[i].Gen == ss.Gen {
			off = cur[i].Off
		}
		if ss.Size > off {
			lag += ss.Size - off
		}
	}
	return lag
}

// ChunkKey is one archived chunk's identity and span — the metadata a
// federated coordinator needs to merge holdings across stations without
// moving payload bytes. Bytes is the chunk's audio payload length, the
// supersession tiebreak (longer copy wins).
type ChunkKey struct {
	Origin int32
	Seq    uint32
	Start  int64
	End    int64
	Bytes  int64
}

// FileManifest is one file's chunk-key listing.
type FileManifest struct {
	ID     flash.FileID
	Chunks []ChunkKey
}

// Manifest lists every file's chunk keys from index metadata alone (no
// segment reads) — files sorted by ID, chunks by (origin, seq) — together
// with the tag that identifies exactly this listing: the store's
// per-open boot nonce plus each shard's (generation, size). Every index
// change appends a frame or bumps a generation, and group commit and
// compaction publish index and size under one write lock, so reading a
// shard's component under the same read lock that lists its rows makes
// equal tags mean equal rows. The nonce keeps a reopened directory —
// whose torn tail may have been truncated back to a size it had before —
// from ever repeating a tag.
func (s *Store) Manifest() ([]FileManifest, string) { return s.manifest(true) }

// ManifestTag is the tag Manifest would return now, without listing a
// row: what answers a conditional /repl/manifest request.
func (s *Store) ManifestTag() string {
	_, tag := s.manifest(false)
	return tag
}

// Changed returns a channel closed the next time ManifestTag would move
// — a group commit that appends, a compaction swap — or the store closes;
// a group of duplicates only leaves it open. Take it before reading
// whatever the wait is for, so a change between the read and the wait
// is not missed. On a closed store it is already closed.
func (s *Store) Changed() <-chan struct{} {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	return s.env.changes()
}

func (s *Store) manifest(rows bool) ([]FileManifest, string) {
	var out []FileManifest
	cur := make(ReplCursor, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.RLock()
		cur[i] = ShardCursor{Gen: sh.gen, Off: sh.size}
		if rows {
			for id, fm := range sh.files {
				m := FileManifest{ID: id, Chunks: make([]ChunkKey, 0, len(fm.chunks))}
				for _, c := range fm.chunks {
					m.Chunks = append(m.Chunks, ChunkKey{
						Origin: c.origin, Seq: c.seq,
						Start: int64(c.start), End: int64(c.end),
						Bytes: c.payloadBytes(),
					})
				}
				out = append(out, m)
			}
		}
		sh.mu.RUnlock()
	}
	for _, m := range out {
		sort.Slice(m.Chunks, func(i, j int) bool { return m.Chunks[i].Less(m.Chunks[j]) })
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, s.boot + "-" + cur.String()
}

// Less orders chunk keys by (origin, seq), the manifest order.
func (c ChunkKey) Less(o ChunkKey) bool {
	if c.Origin != o.Origin {
		return c.Origin < o.Origin
	}
	return c.Seq < o.Seq
}

// The /repl/manifest body: per file `id u32, n u32`, then n records of
// `origin i32, seq u32, start i64, end i64, bytes u32`, little-endian,
// nothing between files and nothing after the last.
const (
	manifestFileHeader = 8
	manifestChunkSize  = 28
)

// EncodeManifest renders a Manifest listing in the /repl/manifest wire
// form.
func EncodeManifest(ms []FileManifest) []byte {
	n := 0
	for _, m := range ms {
		n += manifestFileHeader + manifestChunkSize*len(m.Chunks)
	}
	b := make([]byte, 0, n)
	le := binary.LittleEndian
	for _, m := range ms {
		b = le.AppendUint32(b, uint32(m.ID))
		b = le.AppendUint32(b, uint32(len(m.Chunks)))
		for _, c := range m.Chunks {
			b = le.AppendUint32(b, uint32(c.Origin))
			b = le.AppendUint32(b, c.Seq)
			b = le.AppendUint64(b, uint64(c.Start))
			b = le.AppendUint64(b, uint64(c.End))
			b = le.AppendUint32(b, uint32(c.Bytes))
		}
	}
	return b
}

// DecodeManifest parses a /repl/manifest body. The body comes from
// another station, so every length is checked against what is left, and
// the shape Manifest promises — no file without chunks, file IDs
// strictly ascending, chunks strictly ascending by (origin, seq) within
// a file — is enforced, since the coordinator's merge walks the listings
// in step. All chunk keys share one backing array.
func DecodeManifest(b []byte) ([]FileManifest, error) {
	var ms []FileManifest
	keys := make([]ChunkKey, 0, len(b)/manifestChunkSize)
	le := binary.LittleEndian
	for off := 0; off < len(b); {
		if len(b)-off < manifestFileHeader {
			return nil, fmt.Errorf("archive: manifest: %d stray bytes at %d", len(b)-off, off)
		}
		id, n := flash.FileID(le.Uint32(b[off:])), int(le.Uint32(b[off+4:]))
		off += manifestFileHeader
		if n == 0 || n > (len(b)-off)/manifestChunkSize {
			return nil, fmt.Errorf("archive: manifest: file %d declares %d chunks, %d bytes left", id, n, len(b)-off)
		}
		if len(ms) > 0 && id <= ms[len(ms)-1].ID {
			return nil, fmt.Errorf("archive: manifest: file %d out of order", id)
		}
		first := len(keys)
		for i := 0; i < n; i++ {
			c := ChunkKey{
				Origin: int32(le.Uint32(b[off:])),
				Seq:    le.Uint32(b[off+4:]),
				Start:  int64(le.Uint64(b[off+8:])),
				End:    int64(le.Uint64(b[off+16:])),
				Bytes:  int64(le.Uint32(b[off+24:])),
			}
			off += manifestChunkSize
			if i > 0 && !keys[len(keys)-1].Less(c) {
				return nil, fmt.Errorf("archive: manifest: file %d chunk (%d, %d) out of order", id, c.Origin, c.Seq)
			}
			keys = append(keys, c)
		}
		ms = append(ms, FileManifest{ID: id, Chunks: keys[first:len(keys):len(keys)]})
	}
	return ms, nil
}

// GapsInSpans computes coverage gaps over a merged set of chunk keys at
// the given tolerance, with exactly the semantics of a single station's
// gap listing (time-major sort with (start, origin, seq) tiebreak,
// cursor sweep). The federation coordinator uses it so a merged view
// reports the same gaps a fully-replicated station would.
func GapsInSpans(spans []ChunkKey, tolerance time.Duration) []Gap {
	metas := make([]chunkMeta, len(spans))
	for i, s := range spans {
		metas[i] = chunkMeta{
			start: sim.Time(s.Start), end: sim.Time(s.End),
			origin: s.Origin, seq: s.Seq,
		}
	}
	return gapsIn(metas, tolerance)
}

// FileFrames re-encodes one archived file's chunks (parity siblings
// included if id has the parity bit) in wire framing — what
// GET /repl/file/{id} serves a federated /wav merge.
func (s *Store) FileFrames(id flash.FileID) ([]byte, error) {
	f, err := s.File(id)
	if err != nil {
		return nil, err
	}
	return EncodeFrames(f.Chunks)
}
