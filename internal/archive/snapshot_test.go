package archive

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"enviromic/internal/flash"
)

// mkChunkN is mkChunk with an explicit payload size (identity bytes
// followed by padding), for supersession and compaction workloads.
func mkChunkN(file flash.FileID, origin int32, seq uint32, startSec, endSec float64, payload int) *flash.Chunk {
	c := mkChunk(file, origin, seq, startSec, endSec)
	data := make([]byte, payload)
	copy(data, c.Data)
	for i := len(c.Data); i < payload; i++ {
		data[i] = byte(i)
	}
	c.Data = data
	return c
}

// seedChunks builds a deterministic multi-file, multi-origin workload.
func seedChunks(files, perFile int) []*flash.Chunk {
	var out []*flash.Chunk
	for f := 1; f <= files; f++ {
		for i := 0; i < perFile; i++ {
			out = append(out, mkChunkN(flash.FileID(f), int32(f%5+1), uint32(i),
				float64(i), float64(i+1), 8+(f+i)%32))
		}
	}
	return out
}

// storeFingerprint captures everything query-visible about a store:
// listings, per-file gap sets, and every reassembled payload byte.
func storeFingerprint(t *testing.T, s *Store) string {
	t.Helper()
	var b []byte
	for _, fi := range s.Files() {
		b = append(b, []byte(fmt.Sprintf("%+v\n", fi))...)
		gaps, err := s.Gaps(fi.ID, 0)
		if err != nil {
			t.Fatalf("Gaps(%d): %v", fi.ID, err)
		}
		b = append(b, []byte(fmt.Sprintf("gaps=%v\n", gaps))...)
		f, err := s.File(fi.ID)
		if err != nil {
			t.Fatalf("File(%d): %v", fi.ID, err)
		}
		for _, c := range f.Chunks {
			b = append(b, []byte(fmt.Sprintf("%d/%d/%d %d %d %x\n",
				c.File, c.Origin, c.Seq, c.Start, c.End, c.Data))...)
		}
	}
	return string(b)
}

// TestSnapshotRoundTrip: a close-time snapshot must load on reopen and
// produce exactly the state a full rescan builds.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Shards: 4})
	mustIngest(t, s, seedChunks(13, 17))
	want := storeFingerprint(t, s)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	snap := openTest(t, dir, Options{})
	got := storeFingerprint(t, snap)
	loads := snap.Stats().Counters["open.snapshot_loads"]
	snap.Close()
	if loads != 4 {
		t.Fatalf("snapshot_loads = %d, want 4", loads)
	}
	if got != want {
		t.Fatalf("snapshot-loaded store differs from original:\n--- want\n%s\n--- got\n%s", want, got)
	}

	rescan := openTest(t, dir, Options{NoSnapshots: true})
	defer rescan.Close()
	if got := storeFingerprint(t, rescan); got != want {
		t.Fatalf("rescan store differs from snapshot store")
	}
	if n := rescan.Stats().Counters["open.snapshot_loads"]; n != 0 {
		t.Fatalf("NoSnapshots open loaded a snapshot (%d)", n)
	}
}

// TestSnapshotTailReplay: chunks ingested after the last checkpoint are
// recovered by replaying the segment tail, not lost.
func TestSnapshotTailReplay(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Shards: 2})
	mustIngest(t, s, seedChunks(6, 10))
	if err := s.Sync(); err != nil { // writes snapshots covering the first 60 chunks
		t.Fatalf("Sync: %v", err)
	}
	mustIngest(t, s, []*flash.Chunk{
		mkChunk(1, 9, 100, 100, 101),
		mkChunk(2, 9, 100, 100, 101),
	})
	want := storeFingerprint(t, s)
	s.crashClose() // no close-time snapshot: the tail exists only in the segments

	s2 := openTest(t, dir, Options{})
	defer s2.Close()
	st := s2.Stats()
	if st.Counters["open.snapshot_loads"] != 2 {
		t.Fatalf("snapshot_loads = %d, want 2", st.Counters["open.snapshot_loads"])
	}
	if st.Counters["open.replayed_chunks"] != 2 {
		t.Fatalf("replayed_chunks = %d, want 2", st.Counters["open.replayed_chunks"])
	}
	if got := storeFingerprint(t, s2); got != want {
		t.Fatalf("replayed store differs from pre-crash store")
	}
}

// TestSnapshotCorruptionFallsBack: any byte flip in a snapshot must be
// detected and answered with a full rescan, never wrong indexes.
func TestSnapshotCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Shards: 1})
	mustIngest(t, s, seedChunks(5, 8))
	want := storeFingerprint(t, s)
	s.Close()

	idx := filepath.Join(dir, "shard-000.idx")
	data, err := os.ReadFile(idx)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	// Flip a byte in every region: header magic, covered offset, payload.
	for _, off := range []int{0, 16, snapshotHeaderSize + 9, len(data) - 1} {
		corrupted := append([]byte(nil), data...)
		corrupted[off] ^= 0xFF
		if err := os.WriteFile(idx, corrupted, 0o644); err != nil {
			t.Fatalf("write snapshot: %v", err)
		}
		s2 := openTest(t, dir, Options{})
		if n := s2.Stats().Counters["open.snapshot_fallbacks"]; n != 1 {
			t.Fatalf("offset %d: snapshot_fallbacks = %d, want 1", off, n)
		}
		if got := storeFingerprint(t, s2); got != want {
			t.Fatalf("offset %d: fallback store differs from original", off)
		}
		s2.crashClose() // don't rewrite the snapshot between iterations
	}
}

// TestPeriodicCheckpoint: crossing CheckpointBytes must write a snapshot
// without any Sync/Close, and a crash afterwards recovers from it.
func TestPeriodicCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Shards: 1, CheckpointBytes: 4 << 10})
	mustIngest(t, s, seedChunks(4, 40)) // ~160 chunks ≫ 4 KiB of frames
	// Ingest replies before the writer's checkpoint check runs; a ctl
	// round-trip waits out the writer's current loop iteration.
	s.shards[0].runCtl(func() {})
	if n := s.Stats().Counters["checkpoint.writes"]; n == 0 {
		t.Fatalf("no periodic checkpoint after %d bytes", s.Stats().SegmentBytes)
	}
	want := storeFingerprint(t, s)
	s.crashClose()

	s2 := openTest(t, dir, Options{})
	defer s2.Close()
	if n := s2.Stats().Counters["open.snapshot_loads"]; n != 1 {
		t.Fatalf("snapshot_loads = %d, want 1", n)
	}
	if got := storeFingerprint(t, s2); got != want {
		t.Fatalf("store recovered from periodic checkpoint differs")
	}
}

// TestCrashMidCheckpoint kills the checkpoint at each fsync/rename
// boundary; the reopened store must match a never-checkpointed reference
// exactly (the old snapshot or a scan covers for the torn one).
func TestCrashMidCheckpoint(t *testing.T) {
	for _, point := range []string{"checkpoint:temp-written", "checkpoint:temp-synced"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			s := openTest(t, dir, Options{Shards: 2})
			mustIngest(t, s, seedChunks(8, 12))
			want := storeFingerprint(t, s)

			killed := fmt.Errorf("killed at %s", point)
			s.env.checkpointHook = func(shard int, p string) error {
				if p == point {
					return killed
				}
				return nil
			}
			if err := s.Sync(); err == nil {
				t.Fatalf("Sync survived the injected kill")
			}
			s.crashClose()

			s2 := openTest(t, dir, Options{})
			defer s2.Close()
			if got := storeFingerprint(t, s2); got != want {
				t.Fatalf("store after crash at %s differs from reference", point)
			}
		})
	}
}

// TestSnapshotEquivalentIndexes compares the full in-memory index state
// (not just query output) between a snapshot load and a rescan.
func TestSnapshotEquivalentIndexes(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Shards: 3})
	mustIngest(t, s, seedChunks(9, 11))
	// Supersede a few chunks so dead bytes and replacements are covered.
	mustIngest(t, s, []*flash.Chunk{
		mkChunkN(1, 1%5+1, 0, 0, 1, 64),
		mkChunkN(2, 2%5+1, 3, 3, 4, 64),
	})
	s.Close()

	snap := openTest(t, dir, Options{})
	defer snap.Close()
	scan := openTest(t, dir, Options{NoSnapshots: true})
	defer scan.Close()
	for i := range snap.shards {
		a, b := snap.shards[i], scan.shards[i]
		if a.supersededBytes != b.supersededBytes {
			t.Fatalf("shard %d supersededBytes: snapshot %d, scan %d", i, a.supersededBytes, b.supersededBytes)
		}
		if len(a.files) != len(b.files) {
			t.Fatalf("shard %d file count: snapshot %d, scan %d", i, len(a.files), len(b.files))
		}
		for id, fa := range a.files {
			fb := b.files[id]
			if fb == nil {
				t.Fatalf("shard %d: file %d only in snapshot index", i, id)
			}
			if fa.start != fb.start || fa.end != fb.end || fa.bytes != fb.bytes {
				t.Fatalf("file %d summary differs: %+v vs %+v", id, fa, fb)
			}
			if !reflect.DeepEqual(fa.chunks, fb.chunks) {
				t.Fatalf("file %d chunk metadata differs", id)
			}
			if !reflect.DeepEqual(fa.origins, fb.origins) {
				t.Fatalf("file %d origins differ", id)
			}
			// The snapshot path leaves bySeq nil until first ingest; after
			// ensureBySeq both must agree.
			fa.ensureBySeq()
			fb.ensureBySeq()
			if !reflect.DeepEqual(fa.bySeq, fb.bySeq) {
				t.Fatalf("file %d dedup indexes differ", id)
			}
		}
	}
}
