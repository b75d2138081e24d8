package archive

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"enviromic/internal/flash"
	"enviromic/internal/retrieval"
	"enviromic/internal/sim"
)

// supersedeWorkload ingests a dup-heavy stream: every chunk arrives
// first as a short partial copy, then again with the full payload (a
// later tour reaching the mote with better coverage). Returns the store's
// expected live chunk count.
func supersedeWorkload(t *testing.T, s *Store, files, perFile int) int {
	t.Helper()
	var partial, full []*flash.Chunk
	for f := 1; f <= files; f++ {
		for i := 0; i < perFile; i++ {
			partial = append(partial, mkChunkN(flash.FileID(f), 3, uint32(i), float64(i), float64(i+1), 10))
			full = append(full, mkChunkN(flash.FileID(f), 3, uint32(i), float64(i), float64(i+1), 100))
		}
	}
	rep := mustIngest(t, s, partial)
	if rep.Added != files*perFile {
		t.Fatalf("partial pass: %+v", rep)
	}
	rep = mustIngest(t, s, full)
	if rep.Added != 0 || rep.Superseded != files*perFile {
		t.Fatalf("full pass: %+v, want %d superseded", rep, files*perFile)
	}
	// A third pass of the short copies must be pure duplicates.
	rep = mustIngest(t, s, partial)
	if rep.Added != 0 || rep.Superseded != 0 || rep.Duplicates != files*perFile {
		t.Fatalf("re-ingest of partials: %+v, want all duplicates", rep)
	}
	return files * perFile
}

// TestSupersedeReplacesPartialChunk: the archive must keep the fullest
// copy of a chunk, whichever order the copies arrive in.
func TestSupersedeReplacesPartialChunk(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 1})
	defer s.Close()
	mustIngest(t, s, []*flash.Chunk{mkChunkN(1, 3, 0, 0, 1, 10)})
	mustIngest(t, s, []*flash.Chunk{mkChunkN(1, 3, 0, 0, 1, 100)}) // fuller copy
	mustIngest(t, s, []*flash.Chunk{mkChunkN(1, 3, 0, 0, 1, 50)})  // late partial: dropped

	f, err := s.File(1)
	if err != nil {
		t.Fatalf("File: %v", err)
	}
	if len(f.Chunks) != 1 || len(f.Chunks[0].Data) != 100 {
		t.Fatalf("kept %d chunks, payload %d bytes; want 1 chunk of 100",
			len(f.Chunks), len(f.Chunks[0].Data))
	}
	want := mkChunkN(1, 3, 0, 0, 1, 100).Data
	if !bytes.Equal(f.Chunks[0].Data, want) {
		t.Fatalf("payload mismatch after supersession")
	}
	st := s.Stats()
	if st.Chunks != 1 || st.SupersededBytes == 0 {
		t.Fatalf("stats = %+v, want 1 chunk with superseded bytes", st)
	}
}

// TestCompactReclaimsAllSupersededBytes: compaction must reclaim exactly
// the tracked dead bytes and change nothing query-visible.
func TestCompactReclaimsAllSupersededBytes(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Shards: 2})
	defer s.Close()
	live := supersedeWorkload(t, s, 6, 20)

	before := s.Stats()
	if before.SupersededBytes == 0 {
		t.Fatalf("workload left no superseded bytes")
	}
	want := storeFingerprint(t, s)

	rep, err := s.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if rep.ReclaimedBytes != before.SupersededBytes {
		t.Fatalf("reclaimed %d bytes, want %d (100%%)", rep.ReclaimedBytes, before.SupersededBytes)
	}
	if rep.ChunksKept != live {
		t.Fatalf("kept %d chunks, want %d", rep.ChunksKept, live)
	}
	after := s.Stats()
	if after.SupersededBytes != 0 {
		t.Fatalf("superseded bytes after compaction = %d, want 0", after.SupersededBytes)
	}
	if after.SegmentBytes != before.SegmentBytes-rep.ReclaimedBytes {
		t.Fatalf("segment bytes %d, want %d - %d", after.SegmentBytes, before.SegmentBytes, rep.ReclaimedBytes)
	}
	if got := storeFingerprint(t, s); got != want {
		t.Fatalf("compaction changed query-visible state")
	}
	// A second pass must be a no-op.
	rep2, err := s.Compact()
	if err != nil || rep2.ReclaimedBytes != 0 || rep2.Shards != 0 {
		t.Fatalf("second compaction: %+v, %v; want no-op", rep2, err)
	}
}

// TestCompactSurvivesReopen: the compacted segment plus its fresh
// snapshot must reopen to the same state, and so must a scan rebuild.
func TestCompactSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Shards: 2})
	supersedeWorkload(t, s, 4, 15)
	if _, err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	want := storeFingerprint(t, s)
	s.Close()

	for _, opts := range []Options{{}, {NoSnapshots: true}} {
		s2 := openTest(t, dir, opts)
		if got := storeFingerprint(t, s2); got != want {
			t.Fatalf("reopen (opts %+v) differs from pre-close state", opts)
		}
		if st := s2.Stats(); st.SupersededBytes != 0 {
			t.Fatalf("reopen sees %d superseded bytes in a compacted segment", st.SupersededBytes)
		}
		s2.crashClose()
	}
}

// TestCrashMidCompaction kills the compactor at every protocol boundary;
// the reopened store must be byte-identical to a never-compacted
// reference store fed the same workload.
func TestCrashMidCompaction(t *testing.T) {
	refDir := t.TempDir()
	ref := openTest(t, refDir, Options{Shards: 2})
	defer ref.Close()
	supersedeWorkload(t, ref, 5, 12)
	want := storeFingerprint(t, ref)

	points := []string{"temp-written", "temp-synced", "idx-removed", "gen-bumped", "seg-renamed"}
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			s := openTest(t, dir, Options{Shards: 2})
			supersedeWorkload(t, s, 5, 12)
			killed := fmt.Errorf("killed at %s", point)
			s.env.compactHook = func(shard int, p string) error {
				if p == point {
					return killed
				}
				return nil
			}
			if _, err := s.Compact(); err == nil {
				t.Fatalf("Compact survived the injected kill at %s", point)
			}
			s.crashClose()

			s2 := openTest(t, dir, Options{})
			defer s2.Close()
			if got := storeFingerprint(t, s2); got != want {
				t.Fatalf("store after crash at %s differs from never-compacted reference", point)
			}
		})
	}
}

// TestCompactionBreaksCheckpointsAfterLateFailure: once a compaction
// fails past the point of commitment the process must stop writing
// snapshots — it no longer knows what a reopen will find.
func TestCompactionBreaksCheckpointsAfterLateFailure(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Shards: 1})
	defer s.Close()
	supersedeWorkload(t, s, 2, 6)
	s.env.compactHook = func(shard int, p string) error {
		if p == "gen-bumped" {
			return fmt.Errorf("killed")
		}
		return nil
	}
	if _, err := s.Compact(); err == nil {
		t.Fatalf("Compact survived the injected kill")
	}
	if !s.shards[0].checkpointsBroken {
		t.Fatalf("late compaction failure did not break checkpoints")
	}
	before := s.Stats().Counters["checkpoint.writes"]
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if after := s.Stats().Counters["checkpoint.writes"]; after != before {
		t.Fatalf("broken shard still wrote a checkpoint")
	}
}

// TestAutoCompaction: crossing AutoCompactBytes triggers compaction from
// the writer goroutine without any explicit call.
func TestAutoCompaction(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 1, AutoCompactBytes: 1 << 10})
	defer s.Close()
	supersedeWorkload(t, s, 2, 20) // ~40 dead frames ≫ 1 KiB
	st := s.Stats()
	if st.Counters["compact.runs"] == 0 {
		t.Fatalf("no auto compaction ran; superseded=%d", st.SupersededBytes)
	}
	if st.SupersededBytes != 0 {
		t.Fatalf("superseded bytes after auto compaction = %d", st.SupersededBytes)
	}
}

// TestFilesAndQueryDeterministicAcrossShardCounts: listings and query
// results must not depend on the shard layout.
func TestFilesAndQueryDeterministicAcrossShardCounts(t *testing.T) {
	chunks := seedChunks(23, 7)
	var refFiles []FileInfo
	var refQuery []FileInfo
	for i, shards := range []int{1, 2, 3, 8, 16} {
		s := openTest(t, t.TempDir(), Options{Shards: shards})
		mustIngest(t, s, chunks)
		files := s.Files()
		query := s.Query(sim.Time(2500*int64(time.Millisecond)), sim.Time(5500*int64(time.Millisecond)), nil)
		s.Close()
		if i == 0 {
			refFiles, refQuery = files, query
			continue
		}
		if !reflect.DeepEqual(files, refFiles) {
			t.Fatalf("Files() with %d shards differs from 1 shard", shards)
		}
		if !reflect.DeepEqual(query, refQuery) {
			t.Fatalf("Query() with %d shards differs from 1 shard", shards)
		}
	}
}

// TestCompactHTTPEndpoint: POST /compact reclaims and reports.
func TestCompactHTTPEndpoint(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 1})
	defer s.Close()
	supersedeWorkload(t, s, 2, 5)
	srv := httptest.NewServer(NewHandler(s, nil))
	defer srv.Close()

	resp, err := srv.Client().Post(srv.URL+"/compact", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /compact: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("POST /compact status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "reclaimed_bytes") {
		t.Fatalf("compact response missing reclaimed_bytes: %s", buf.String())
	}
	if s.Stats().SupersededBytes != 0 {
		t.Fatalf("HTTP compact left superseded bytes")
	}
}

// TestFlightSharesConcurrentReassembly: concurrent cold File() calls for
// one (file, version) must share a single reassembly.
func TestFlightSharesConcurrentReassembly(t *testing.T) {
	var g flightGroup
	key := flightKey{id: 7, version: 3}
	release := make(chan struct{})
	started := make(chan struct{})
	leader := make(chan *retrieval.File)
	go func() {
		f, _, joined := g.do(key, func() (*retrieval.File, error) {
			close(started)
			<-release
			return &retrieval.File{ID: 7}, nil
		})
		if joined {
			t.Error("leader reported joined")
		}
		leader <- f
	}()
	<-started // the flight is now in the map and stays until release

	const n = 15
	results := make([]*retrieval.File, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err, joined := g.do(key, func() (*retrieval.File, error) {
				t.Error("a waiter ran the function itself")
				return nil, nil
			})
			if err != nil || !joined {
				t.Errorf("waiter %d: err=%v joined=%v", i, err, joined)
			}
			results[i] = f
		}(i)
	}
	// Let the waiters park on the in-flight call before releasing it; a
	// straggler arriving after release would run fn and trip the Error.
	time.Sleep(50 * time.Millisecond)
	close(release)
	lf := <-leader
	wg.Wait()
	for i := 0; i < n; i++ {
		if results[i] != lf {
			t.Fatalf("waiter %d got a different file pointer", i)
		}
	}
}

// TestFlightHerdOnStore: a herd of goroutines hitting the same cold file
// does the segment reads once (plus at most one per late-arriving wave).
func TestFlightHerdOnStore(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 1, CacheBytes: -1})
	defer s.Close()
	mustIngest(t, s, seedChunks(1, 50))

	const n = 64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := s.File(1); err != nil {
				t.Errorf("File: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	c := s.Stats().Counters
	if c["flight.leads"]+c["flight.joins"] != n {
		t.Fatalf("leads %d + joins %d != %d", c["flight.leads"], c["flight.joins"], n)
	}
	if c["file.reassemblies"] != c["flight.leads"] {
		t.Fatalf("reassemblies %d != flight leads %d", c["file.reassemblies"], c["flight.leads"])
	}
	if c["flight.leads"] == n {
		t.Logf("herd fully serialized (no joins); timing-dependent, not failing")
	}
}
