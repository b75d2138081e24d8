package archive

import (
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"enviromic/internal/flash"
)

// pullAll replicates src into dst by pulling deltas of at most maxBytes
// until the lag reaches zero, returning how many pulls it took.
func pullAll(t *testing.T, src, dst *Store, cur ReplCursor, maxBytes int64) (ReplCursor, int) {
	t.Helper()
	pulls := 0
	for {
		frames, next, lag, err := src.Delta(cur, maxBytes)
		if err != nil {
			t.Fatalf("Delta: %v", err)
		}
		pulls++
		if len(frames) > 0 {
			// As the federation puller does: the delta goes in as it came.
			if _, err := dst.IngestFrames(frames); err != nil {
				t.Fatalf("IngestFrames: %v", err)
			}
		}
		cur = next
		if lag == 0 {
			return cur, pulls
		}
		if pulls > 10_000 {
			t.Fatalf("replication did not converge: lag %d after %d pulls", lag, pulls)
		}
	}
}

// assertSameHoldings fails unless both stores list identical files and
// chunk manifests.
func assertSameHoldings(t *testing.T, a, b *Store) {
	t.Helper()
	am, _ := a.Manifest()
	bm, _ := b.Manifest()
	if !reflect.DeepEqual(am, bm) {
		t.Fatalf("holdings differ:\n a=%+v\n b=%+v", am, bm)
	}
}

func TestDeltaReplicatesEverything(t *testing.T) {
	src := openTest(t, t.TempDir(), Options{Shards: 4})
	defer src.Close()
	dst := openTest(t, t.TempDir(), Options{Shards: 2}) // shard counts need not match
	defer dst.Close()

	var batch []*flash.Chunk
	for f := flash.FileID(1); f <= 5; f++ {
		for seq := uint32(0); seq < 20; seq++ {
			batch = append(batch, mkChunk(f, int32(f*10), seq, float64(seq), float64(seq+1)))
		}
	}
	mustIngest(t, src, batch)

	cur, _ := pullAll(t, src, dst, nil, 0)
	assertSameHoldings(t, src, dst)

	// Caught-up cursor matches the source's end-of-log status.
	if lag := src.ReplStatus().Lag(cur); lag != 0 {
		t.Fatalf("lag after catch-up = %d, want 0", lag)
	}

	// New ingest at the source: the delta resumes from the cursor and
	// ships only the new frames.
	mustIngest(t, src, []*flash.Chunk{mkChunk(9, 9, 0, 100, 101)})
	frames, next, lag, err := src.Delta(cur, 0)
	if err != nil {
		t.Fatalf("Delta: %v", err)
	}
	if lag != 0 {
		t.Fatalf("lag = %d, want 0", lag)
	}
	chunks, err := DecodeFrames(frames)
	if err != nil {
		t.Fatalf("DecodeFrames: %v", err)
	}
	if len(chunks) != 1 || chunks[0].File != 9 {
		t.Fatalf("incremental delta = %v chunks, want the one new chunk", len(chunks))
	}
	mustIngest(t, dst, chunks)
	assertSameHoldings(t, src, dst)
	_ = next
}

func TestDeltaSmallBudgetStillProgresses(t *testing.T) {
	src := openTest(t, t.TempDir(), Options{Shards: 3})
	defer src.Close()
	dst := openTest(t, t.TempDir(), Options{Shards: 3})
	defer dst.Close()

	var batch []*flash.Chunk
	for seq := uint32(0); seq < 64; seq++ {
		batch = append(batch, mkChunk(flash.FileID(seq%7+1), 3, seq, float64(seq), float64(seq)+1))
	}
	mustIngest(t, src, batch)

	// A 1-byte budget is smaller than any frame; every pull must still
	// ship at least one frame per behind shard.
	_, pulls := pullAll(t, src, dst, nil, 1)
	if pulls < 2 {
		t.Fatalf("expected multiple pulls under a tiny budget, got %d", pulls)
	}
	assertSameHoldings(t, src, dst)
}

func TestDeltaCursorResetsAfterCompaction(t *testing.T) {
	src := openTest(t, t.TempDir(), Options{Shards: 1})
	defer src.Close()
	dst := openTest(t, t.TempDir(), Options{Shards: 1})
	defer dst.Close()

	short := mkChunk(1, 2, 7, 0, 1)
	mustIngest(t, src, []*flash.Chunk{short, mkChunk(1, 2, 8, 1, 2)})
	cur, _ := pullAll(t, src, dst, nil, 0)

	// Supersede one chunk with a longer copy, then compact: the shard's
	// generation bumps and the old cursor's offsets are meaningless.
	long := mkChunk(1, 2, 7, 0, 1)
	long.Data = append(long.Data, make([]byte, 64)...)
	mustIngest(t, src, []*flash.Chunk{long})
	if _, err := src.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := src.ReplStatus()
	if st.Shards[0].Gen == 0 {
		t.Fatalf("compaction did not bump the generation")
	}
	if lag := st.Lag(cur); lag != st.Shards[0].Size {
		t.Fatalf("stale-generation lag = %d, want the whole shard (%d)", lag, st.Shards[0].Size)
	}

	// Pulling from the stale cursor restarts the shard from zero; the
	// receiver's dedup absorbs the re-sent frames.
	cur, _ = pullAll(t, src, dst, cur, 0)
	assertSameHoldings(t, src, dst)
	f, err := dst.File(1)
	if err != nil {
		t.Fatalf("File: %v", err)
	}
	for _, c := range f.Chunks {
		if c.Seq == 7 && len(c.Data) != len(long.Data) {
			t.Fatalf("superseding copy did not replicate: seq 7 has %d bytes, want %d", len(c.Data), len(long.Data))
		}
	}
	if lag := src.ReplStatus().Lag(cur); lag != 0 {
		t.Fatalf("lag after re-pull = %d, want 0", lag)
	}
}

func TestReplCursorStringRoundtrip(t *testing.T) {
	cur := ReplCursor{{Gen: 0, Off: 0}, {Gen: 3, Off: 4096}, {Gen: 1, Off: 7}}
	parsed, err := ParseReplCursor(cur.String())
	if err != nil {
		t.Fatalf("ParseReplCursor(%q): %v", cur.String(), err)
	}
	if !reflect.DeepEqual(parsed, cur) {
		t.Fatalf("roundtrip = %v, want %v", parsed, cur)
	}
	if c, err := ParseReplCursor(""); err != nil || c != nil {
		t.Fatalf("empty cursor = %v, %v; want nil, nil", c, err)
	}
	for _, bad := range []string{"x", "1:", ":2", "1:2:3", "1:-5", "a:b"} {
		if _, err := ParseReplCursor(bad); err == nil {
			t.Fatalf("ParseReplCursor(%q) accepted garbage", bad)
		}
	}
}

// TestManifestTag pins the property the federated read plane rests on:
// the tag moves exactly when the listing does, and never repeats across
// opens of one directory.
func TestManifestTag(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Shards: 2})
	batch := []*flash.Chunk{
		mkChunk(1, 10, 1, 1, 2),
		mkChunk(1, 10, 0, 0, 1),
		mkChunk(2, 20, 0, 5, 6),
		mkChunk(3, 30, 0, 50, 51),
	}
	mustIngest(t, s, batch)

	rows, tag := s.Manifest()
	if len(rows) != 3 || rows[0].ID != 1 || len(rows[0].Chunks) != 2 || rows[0].Chunks[0].Seq != 0 || rows[2].ID != 3 {
		t.Fatalf("manifest not sorted by (file, origin, seq): %+v", rows)
	}
	if got := s.ManifestTag(); got != tag {
		t.Fatalf("ManifestTag = %q, Manifest's = %q", got, tag)
	}

	// A duplicate tour changes nothing, tag included.
	mustIngest(t, s, batch)
	if got := s.ManifestTag(); got != tag {
		t.Fatalf("duplicate ingest moved the tag: %q -> %q", tag, got)
	}

	// A new chunk, a superseding copy and a compaction each move it.
	seen := map[string]bool{tag: true}
	step := func(what string) {
		t.Helper()
		rows, tag := s.Manifest()
		if seen[tag] {
			t.Fatalf("%s: tag %q repeats", what, tag)
		}
		seen[tag] = true
		if got, err := DecodeManifest(EncodeManifest(rows)); err != nil || !reflect.DeepEqual(got, rows) {
			t.Fatalf("%s: manifest does not survive the wire: %v", what, err)
		}
	}
	mustIngest(t, s, []*flash.Chunk{mkChunk(2, 20, 1, 6, 7)})
	step("new chunk")
	long := mkChunk(1, 10, 0, 0, 1)
	long.Data = append(long.Data, make([]byte, 32)...)
	mustIngest(t, s, []*flash.Chunk{long})
	step("superseding copy")
	if _, err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	step("compaction")

	// The same directory reopened holds the same rows under a new tag.
	before, _ := s.Manifest()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s = openTest(t, dir, Options{})
	defer s.Close()
	after, _ := s.Manifest()
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("rows changed across reopen")
	}
	step("reopen")
}

// TestDecodeManifestRejects feeds DecodeManifest the malformed bodies a
// broken or hostile peer could send.
func TestDecodeManifestRejects(t *testing.T) {
	good := EncodeManifest([]FileManifest{
		{ID: 1, Chunks: []ChunkKey{{Origin: 1, Seq: 0, Start: 0, End: 1, Bytes: 4}, {Origin: 1, Seq: 1, Start: 1, End: 2, Bytes: 4}}},
		{ID: 2, Chunks: []ChunkKey{{Origin: -3, Seq: 9, Start: 5, End: 6, Bytes: 200}}},
	})
	if ms, err := DecodeManifest(good); err != nil || len(ms) != 2 || ms[1].Chunks[0].Origin != -3 {
		t.Fatalf("good manifest refused: %+v, %v", ms, err)
	}
	if ms, err := DecodeManifest(nil); err != nil || len(ms) != 0 {
		t.Fatalf("empty manifest = %+v, %v", ms, err)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	for name, bad := range map[string][]byte{
		"truncated chunk":  good[:len(good)-1],
		"truncated header": good[:len(good)-manifestChunkSize-3],
		"stray tail":       append(append([]byte(nil), good...), 0),
		"empty file": mutate(func(b []byte) []byte {
			return append(b, 9, 0, 0, 0, 0, 0, 0, 0)
		}),
		"huge count": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 0xffffffff)
			return b
		}),
		"files out of order": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[0:], 2)
			return b
		}),
		"chunks out of order": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[manifestFileHeader+manifestChunkSize+4:], 0) // second seq = first
			return b
		}),
	} {
		if ms, err := DecodeManifest(bad); err == nil {
			t.Errorf("%s accepted: %+v", name, ms)
		}
	}
}

func TestGapsInSpansMatchesStoreGaps(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 1})
	defer s.Close()
	mustIngest(t, s, []*flash.Chunk{
		mkChunk(1, 2, 0, 0, 1),
		mkChunk(1, 2, 1, 1, 2),
		mkChunk(1, 3, 5, 4, 5), // gap (2,4)
		mkChunk(1, 3, 6, 5, 6),
	})
	tol := 500 * time.Millisecond
	want, err := s.Gaps(1, tol)
	if err != nil {
		t.Fatalf("Gaps: %v", err)
	}
	m, _ := s.Manifest()
	got := GapsInSpans(m[0].Chunks, tol)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GapsInSpans = %v, want %v", got, want)
	}
}

func TestFileFrames(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 1})
	defer s.Close()
	mustIngest(t, s, []*flash.Chunk{mkChunk(4, 2, 0, 0, 1), mkChunk(4, 2, 1, 1, 2)})
	frames, err := s.FileFrames(4)
	if err != nil {
		t.Fatalf("FileFrames: %v", err)
	}
	chunks, err := DecodeFrames(frames)
	if err != nil {
		t.Fatalf("DecodeFrames: %v", err)
	}
	if len(chunks) != 2 || chunks[0].File != 4 {
		t.Fatalf("frames decode to %d chunks, want 2", len(chunks))
	}
	if _, err := s.FileFrames(99); err != ErrNotFound {
		t.Fatalf("FileFrames(unknown) err = %v, want ErrNotFound", err)
	}
}
