package archive

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"enviromic/internal/erasure"
	"enviromic/internal/flash"
	"enviromic/internal/sim"
)

// mkChunk builds a chunk spanning [startSec, endSec) with a payload whose
// bytes encode its identity (so reassembly mix-ups corrupt data
// detectably).
func mkChunk(file flash.FileID, origin int32, seq uint32, startSec, endSec float64) *flash.Chunk {
	return &flash.Chunk{
		File: file, Origin: origin, Seq: seq,
		Start: sim.Time(startSec * float64(time.Second)),
		End:   sim.Time(endSec * float64(time.Second)),
		Data:  []byte{byte(file), byte(origin), byte(seq), 0xEE},
	}
}

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func mustIngest(t *testing.T, s *Store, chunks []*flash.Chunk) IngestReport {
	t.Helper()
	rep, err := s.Ingest(chunks)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	return rep
}

func TestIngestListQueryRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 4})
	defer s.Close()

	chunks := []*flash.Chunk{
		mkChunk(1, 3, 0, 0, 1),
		mkChunk(1, 3, 1, 1, 2),
		mkChunk(2, 4, 0, 10, 11),
		mkChunk(7, 5, 0, 20, 21),
	}
	rep := mustIngest(t, s, chunks)
	if rep.Added != 4 || rep.Duplicates != 0 {
		t.Fatalf("report = %+v, want 4 added 0 dup", rep)
	}

	files := s.Files()
	if len(files) != 3 {
		t.Fatalf("Files() = %d entries, want 3", len(files))
	}
	if files[0].ID != 1 || files[1].ID != 2 || files[2].ID != 7 {
		t.Fatalf("Files() not sorted by ID: %v", files)
	}
	fi, err := s.Info(1)
	if err != nil || fi.Chunks != 2 || fi.Bytes != 8 {
		t.Fatalf("Info(1) = %+v, %v", fi, err)
	}
	if !reflect.DeepEqual(fi.Origins, []int32{3}) {
		t.Fatalf("Info(1).Origins = %v", fi.Origins)
	}
	if _, err := s.Info(99); err != ErrNotFound {
		t.Fatalf("Info(99) err = %v, want ErrNotFound", err)
	}

	// Interval query: [10.5s, 25s) overlaps files 2 and 7 only.
	got := s.Query(sim.At(10500*time.Millisecond), sim.At(25*time.Second), nil)
	if len(got) != 2 || got[0].ID != 2 || got[1].ID != 7 {
		t.Fatalf("Query = %v, want files 2,7", got)
	}
	// Origin filter: only origin 5 -> file 7.
	got = s.Query(0, 0, map[int32]bool{5: true})
	if len(got) != 1 || got[0].ID != 7 {
		t.Fatalf("origin query = %v, want file 7", got)
	}
	// Unbounded: all three.
	if got = s.Query(0, 0, nil); len(got) != 3 {
		t.Fatalf("unbounded query = %d files, want 3", len(got))
	}

	f, err := s.File(1)
	if err != nil {
		t.Fatalf("File(1): %v", err)
	}
	if len(f.Chunks) != 2 || f.Bytes() != 8 {
		t.Fatalf("File(1) = %d chunks %d bytes", len(f.Chunks), f.Bytes())
	}
	if f.Chunks[0].Data[2] != 0 || f.Chunks[1].Data[2] != 1 {
		t.Fatalf("payload bytes scrambled: %v %v", f.Chunks[0].Data, f.Chunks[1].Data)
	}
	if _, err := s.File(99); err != ErrNotFound {
		t.Fatalf("File(99) err = %v", err)
	}
}

func TestIngestDedupsAcrossToursAndBatches(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 2})
	defer s.Close()

	tour := []*flash.Chunk{
		mkChunk(1, 3, 0, 0, 1),
		mkChunk(1, 3, 1, 1, 2),
		// Migration copy inside one batch: same (file, origin, seq) held
		// by two nodes.
		mkChunk(1, 3, 1, 1, 2),
	}
	rep := mustIngest(t, s, tour)
	if rep.Added != 2 || rep.Duplicates != 1 {
		t.Fatalf("first tour: %+v, want 2 added 1 dup", rep)
	}

	// A repeated tour is a no-op.
	rep = mustIngest(t, s, tour)
	if rep.Added != 0 || rep.Duplicates != 3 {
		t.Fatalf("repeat tour: %+v, want 0 added 3 dup", rep)
	}
	if fi, _ := s.Info(1); fi.Chunks != 2 {
		t.Fatalf("chunks after repeat = %d, want 2", fi.Chunks)
	}
	st := s.Stats()
	if st.Counters["ingest.duplicates"] != 4 || st.Counters["ingest.chunks"] != 2 {
		t.Fatalf("counters = %v", st.Counters)
	}
}

func TestIngestGapDeltasAndRequery(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	defer s.Close()

	// First tour leaves a hole at [2s, 3s).
	rep := mustIngest(t, s, []*flash.Chunk{
		mkChunk(1, 3, 0, 0, 1),
		mkChunk(1, 3, 1, 1, 2),
		mkChunk(1, 3, 3, 3, 4),
	})
	if len(rep.Files) != 1 {
		t.Fatalf("deltas = %v", rep.Files)
	}
	d := rep.Files[0]
	if d.GapsBefore != 0 || d.GapsAfter != 1 {
		t.Fatalf("delta = %+v, want gaps 0 -> 1", d)
	}
	if d.GapSpanAfter != time.Second {
		t.Fatalf("gap span = %v, want 1s", d.GapSpanAfter)
	}
	rq := rep.Requery()
	if !rq.Files[1] || !rq.Files[1|erasure.ParityFileBit] || len(rq.Files) != 2 {
		t.Fatalf("requery = %v, want file 1 plus its parity sibling", rq.Files)
	}

	gaps, err := s.Gaps(1, 0)
	if err != nil || len(gaps) != 1 {
		t.Fatalf("Gaps = %v, %v", gaps, err)
	}
	if gaps[0].Start != sim.At(2*time.Second) || gaps[0].End != sim.At(3*time.Second) {
		t.Fatalf("gap = %+v", gaps[0])
	}

	// Second tour (the re-query's haul) fills the hole.
	rep = mustIngest(t, s, []*flash.Chunk{mkChunk(1, 3, 2, 2, 3)})
	d = rep.Files[0]
	if d.GapsBefore != 1 || d.GapsAfter != 0 || d.GapSpanAfter != 0 {
		t.Fatalf("fill delta = %+v, want gaps 1 -> 0", d)
	}
	if rq := rep.Requery(); len(rq.Files) != 0 {
		t.Fatalf("requery after fill = %v, want empty", rq.Files)
	}
}

func TestReopenPreservesEverything(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Shards: 3})
	chunks := []*flash.Chunk{
		mkChunk(1, 3, 0, 0, 1), mkChunk(1, 4, 1, 1, 2),
		mkChunk(2, 5, 0, 5, 6), mkChunk(3, 6, 0, 9, 10),
	}
	mustIngest(t, s, chunks)
	before := s.Files()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen with a different Shards option: the manifest must win —
	// also in the indented form stores wrote before it went compact.
	path := filepath.Join(dir, manifestName)
	var indented bytes.Buffer
	if raw, err := os.ReadFile(path); err != nil || json.Indent(&indented, raw, "", "  ") != nil {
		t.Fatalf("re-indenting %s: %v", path, err)
	}
	if err := os.WriteFile(path, indented.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Options{Shards: 16})
	defer s2.Close()
	if st := s2.Stats(); st.Shards != 3 {
		t.Fatalf("reopened shards = %d, want manifest's 3", st.Shards)
	}
	after := s2.Files()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("listing changed across reopen:\nbefore %v\nafter  %v", before, after)
	}
	// Dedup state also survives: re-ingesting the same tour is a no-op.
	rep := mustIngest(t, s2, chunks)
	if rep.Added != 0 || rep.Duplicates != 4 {
		t.Fatalf("re-ingest after reopen: %+v", rep)
	}
	f, err := s2.File(1)
	if err != nil || len(f.Chunks) != 2 {
		t.Fatalf("File(1) after reopen: %v, %v", f, err)
	}
}

// TestTruncationRecovery simulates a torn append: the segment loses its
// tail mid-record and open must keep everything before the tear.
func TestTruncationRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Shards: 1})
	var chunks []*flash.Chunk
	for i := 0; i < 10; i++ {
		chunks = append(chunks, mkChunk(1, 3, uint32(i), float64(i), float64(i+1)))
	}
	mustIngest(t, s, chunks)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	seg := filepath.Join(dir, "shard-000.seg")
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	// Cut into the last record (5 bytes off the end).
	if err := os.Truncate(seg, st.Size()-5); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	s2 := openTest(t, dir, Options{})
	defer s2.Close()
	stats := s2.Stats()
	if stats.Chunks != 9 {
		t.Fatalf("chunks after torn-tail recovery = %d, want 9", stats.Chunks)
	}
	if stats.RecoveredBytes == 0 {
		t.Fatalf("recovery did not report dropped bytes")
	}
	// The nine surviving chunks are intact.
	f, err := s2.File(1)
	if err != nil || len(f.Chunks) != 9 {
		t.Fatalf("File(1) after recovery: %d chunks, %v", len(f.Chunks), err)
	}
	for i, c := range f.Chunks {
		if c.Seq != uint32(i) || c.Data[2] != byte(i) {
			t.Fatalf("chunk %d corrupted: seq=%d data=%v", i, c.Seq, c.Data)
		}
	}
	// And the lost chunk can be re-ingested (its dedup key was rolled
	// back along with the data).
	rep := mustIngest(t, s2, []*flash.Chunk{mkChunk(1, 3, 9, 9, 10)})
	if rep.Added != 1 {
		t.Fatalf("re-ingest of lost chunk: %+v", rep)
	}
}

// TestCorruptionMidFileDropsTail flips a byte inside an early frame; the
// CRC scan must stop there, keeping only the prefix. A snapshot-backed
// open does not rescan covered bytes, so the scan path is exercised by
// removing the snapshot (the same state a crash-before-first-checkpoint
// leaves), and the snapshot path is checked separately: the corruption
// must surface as a read error, never as corrupt audio.
func TestCorruptionMidFileDropsTail(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Shards: 1})
	var chunks []*flash.Chunk
	for i := 0; i < 6; i++ {
		chunks = append(chunks, mkChunk(1, 3, uint32(i), float64(i), float64(i+1)))
	}
	mustIngest(t, s, chunks)
	s.Close()

	seg := filepath.Join(dir, "shard-000.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	frameLen := frameHeaderSize + chunks[0].RecordSize()
	// Corrupt a payload byte of the third frame.
	data[2*frameLen+frameHeaderSize+3] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	// With the close-time snapshot still in place the indexes load as
	// written, but fetching the corrupted chunk must fail its frame CRC.
	s2 := openTest(t, dir, Options{})
	if st := s2.Stats(); st.Chunks != 6 {
		t.Fatalf("chunks under snapshot = %d, want 6", st.Chunks)
	}
	if _, err := s2.File(1); err == nil {
		t.Fatalf("File over corrupted frame succeeded, want CRC error")
	}
	s2.Close()

	// Without a snapshot the rebuild scan stops at the corrupt frame.
	if err := os.Remove(filepath.Join(dir, "shard-000.idx")); err != nil {
		t.Fatalf("remove snapshot: %v", err)
	}
	s3 := openTest(t, dir, Options{})
	defer s3.Close()
	if st := s3.Stats(); st.Chunks != 2 {
		t.Fatalf("chunks after mid-file corruption = %d, want 2 (prefix)", st.Chunks)
	}
}

func TestSegmentsWithoutManifestRefused(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Shards: 1})
	mustIngest(t, s, []*flash.Chunk{mkChunk(1, 3, 0, 0, 1)})
	s.Close()
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("remove manifest: %v", err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatalf("Open with orphaned segments succeeded, want error")
	}
}

func TestReassemblyCacheInvalidatedOnIngest(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	defer s.Close()
	mustIngest(t, s, []*flash.Chunk{mkChunk(1, 3, 0, 0, 1)})

	f1, err := s.File(1)
	if err != nil || len(f1.Chunks) != 1 {
		t.Fatalf("File: %v %v", f1, err)
	}
	f2, _ := s.File(1)
	if f2 != f1 {
		t.Fatalf("second read missed the cache")
	}
	st := s.Stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("cache stats = %+v", st.Cache)
	}

	// Ingest into the file: the cached reassembly must not be served.
	mustIngest(t, s, []*flash.Chunk{mkChunk(1, 3, 1, 1, 2)})
	f3, err := s.File(1)
	if err != nil || len(f3.Chunks) != 2 {
		t.Fatalf("File after ingest = %d chunks, %v", len(f3.Chunks), err)
	}
}

func TestCacheEviction(t *testing.T) {
	// Budget fits roughly one file (payload 4 bytes + 64 overhead each).
	s := openTest(t, t.TempDir(), Options{CacheBytes: 100})
	defer s.Close()
	mustIngest(t, s, []*flash.Chunk{mkChunk(1, 3, 0, 0, 1), mkChunk(2, 3, 0, 5, 6)})
	s.File(1)
	s.File(2) // evicts file 1
	st := s.Stats()
	if st.Cache.Entries != 1 || st.Cache.Evictions != 1 {
		t.Fatalf("cache = %+v, want 1 entry 1 eviction", st.Cache)
	}
}

func TestCacheDisabled(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{CacheBytes: -1})
	defer s.Close()
	mustIngest(t, s, []*flash.Chunk{mkChunk(1, 3, 0, 0, 1)})
	a, _ := s.File(1)
	b, _ := s.File(1)
	if a == b {
		t.Fatalf("disabled cache still returned a shared reassembly")
	}
}

// TestQueryMatchesBruteForce cross-checks the interval index against a
// linear scan over randomized file spans and windows.
func TestQueryMatchesBruteForce(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 5})
	defer s.Close()
	rng := rand.New(rand.NewSource(42))
	var chunks []*flash.Chunk
	for id := flash.FileID(1); id <= 40; id++ {
		start := rng.Float64() * 100
		length := 0.5 + rng.Float64()*20
		origin := int32(rng.Intn(6))
		chunks = append(chunks,
			mkChunk(id, origin, 0, start, start+length/2),
			mkChunk(id, origin+1, 1, start+length/2, start+length))
	}
	mustIngest(t, s, chunks)
	all := s.Files()

	for trial := 0; trial < 200; trial++ {
		a := rng.Float64() * 120
		b := a + rng.Float64()*30
		from, to := sim.Time(a*float64(time.Second)), sim.Time(b*float64(time.Second))
		var origins map[int32]bool
		if trial%3 == 0 {
			origins = map[int32]bool{int32(rng.Intn(7)): true}
		}
		got := s.Query(from, to, origins)
		var want []flash.FileID
		for _, fi := range all {
			if fi.Start >= to || fi.End <= from {
				continue
			}
			if origins != nil {
				hit := false
				for _, o := range fi.Origins {
					if origins[o] {
						hit = true
						break
					}
				}
				if !hit {
					continue
				}
			}
			want = append(want, fi.ID)
		}
		gotIDs := make(map[flash.FileID]bool, len(got))
		for _, fi := range got {
			gotIDs[fi.ID] = true
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d [%v,%v) origins=%v: got %d files, want %d", trial, from, to, origins, len(got), len(want))
		}
		for _, id := range want {
			if !gotIDs[id] {
				t.Fatalf("trial %d: missing file %d", trial, id)
			}
		}
	}
}

func TestQueryResultsSorted(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 4})
	defer s.Close()
	mustIngest(t, s, []*flash.Chunk{
		mkChunk(9, 1, 0, 5, 6),
		mkChunk(2, 1, 0, 1, 2),
		mkChunk(5, 1, 0, 3, 4),
	})
	got := s.Query(0, 0, nil)
	if len(got) != 3 || got[0].ID != 2 || got[1].ID != 5 || got[2].ID != 9 {
		t.Fatalf("query order = %v, want by start time", got)
	}
}

func TestSyncWritesCommittedSizes(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Shards: 2})
	defer s.Close()
	mustIngest(t, s, []*flash.Chunk{mkChunk(1, 3, 0, 0, 1)})
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatalf("read manifest: %v", err)
	}
	m := manifest{}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if len(m.Committed) != 2 || m.Committed[0]+m.Committed[1] == 0 {
		t.Fatalf("committed = %v", m.Committed)
	}
}

// TestFileErasureDecodesGaps archives a dispersal group minus one data
// chunk, plus the group's parity carriers, and verifies FileErasure
// reconstructs the hole while plain File still shows it.
func TestFileErasureDecodesGaps(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 2})
	defer s.Close()

	g := erasure.Group{File: 5, Origin: 9, FirstSeq: 0, Count: 4,
		Start: sim.At(0), End: sim.At(4 * time.Second), N: 4, K: 2}
	var group []*flash.Chunk
	for i := 0; i < 4; i++ {
		group = append(group, mkChunk(5, 9, uint32(i), float64(i), float64(i+1)))
	}
	code, err := erasure.Cached(g.N, g.K)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := erasure.EncodeParity(code, g, group)
	if err != nil {
		t.Fatalf("EncodeParity: %v", err)
	}
	var carriers []*flash.Chunk
	for j, blob := range blobs {
		carriers = append(carriers, erasure.Carriers(g, g.K+j, blob)...)
	}

	// Tour 1: data minus seq 1 (a crashed holder), plus all parity.
	mustIngest(t, s, append([]*flash.Chunk{group[0], group[2], group[3]}, carriers...))

	f, err := s.File(5)
	if err != nil || len(f.Chunks) != 3 {
		t.Fatalf("File(5) = %v chunks, %v; want 3 (hole present)", f, err)
	}
	df, rep, err := s.FileErasure(5)
	if err != nil {
		t.Fatalf("FileErasure: %v", err)
	}
	if rep.Groups != 1 || rep.RecoveredChunks != 1 || rep.MissingChunks != 0 {
		t.Fatalf("decode report = %+v, want 1 group 1 recovered", rep)
	}
	if len(df.Chunks) != 4 {
		t.Fatalf("decoded file has %d chunks, want 4", len(df.Chunks))
	}
	rec := df.Chunks[1]
	want := group[1]
	if rec.Seq != want.Seq || rec.Start != want.Start || rec.End != want.End ||
		string(rec.Data) != string(want.Data) {
		t.Fatalf("reconstructed chunk %+v differs from original %+v", rec, want)
	}
	if len(df.Gaps(0)) != 0 {
		t.Fatalf("decoded file still has gaps: %v", df.Gaps(0))
	}
	// A file with no archived parity degrades to File.
	mustIngest(t, s, []*flash.Chunk{mkChunk(8, 1, 0, 50, 51)})
	pf, rep2, err := s.FileErasure(8)
	if err != nil || rep2.Groups != 0 || len(pf.Chunks) != 1 {
		t.Fatalf("no-parity FileErasure = %v, %+v, %v", pf, rep2, err)
	}
}
