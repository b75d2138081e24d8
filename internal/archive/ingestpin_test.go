package archive

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"enviromic/internal/flash"
	"enviromic/internal/sim"
)

// pinnedShards is the shard count of the pinned stream's archive.
const pinnedShards = 3

// pinnedStream is the seeded stream whose segment bytes and reports were
// pinned on the commit before ingest went verbatim: four batches over
// three shards' worth of files with payloads of every length, an exact
// duplicate and a nil inside a batch, a longer copy superseding inside
// one batch and across batches, a shorter copy arriving late, a replayed
// tour, and a file whose start moves earlier.
func pinnedStream() [][]*flash.Chunk {
	rng := rand.New(rand.NewSource(22))
	mk := func(file flash.FileID, origin int32, seq uint32, startMs, n int) *flash.Chunk {
		data := make([]byte, n)
		rng.Read(data)
		return &flash.Chunk{
			File: file, Origin: origin, Seq: seq,
			Start: sim.At(time.Duration(startMs) * time.Millisecond),
			End:   sim.At(time.Duration(startMs+83) * time.Millisecond),
			Data:  data,
		}
	}
	var first []*flash.Chunk
	for file := flash.FileID(1); file <= 9; file++ {
		spacing := 83
		if file%3 == 0 {
			spacing = 700 // leaves gaps at the default tolerance
		}
		for seq := uint32(0); seq < 4; seq++ {
			origin := int32(file)%5 + int32(seq%2)
			first = append(first, mk(file, origin, seq, 1000*int(file)+spacing*int(seq), 1+rng.Intn(100)))
		}
	}
	first = append(first[:7:7], append([]*flash.Chunk{nil, first[3].Clone()}, first[7:]...)...)

	longer := func(c *flash.Chunk, n int) *flash.Chunk {
		cp := mk(c.File, c.Origin, c.Seq, 0, n)
		cp.Start, cp.End = c.Start, c.End
		return cp
	}
	second := []*flash.Chunk{
		mk(2, 7, 9, 2500, 40), longer(mk(2, 7, 9, 2500, 0), 180), // superseded inside the batch
		longer(first[0], 200),                                      // supersedes across batches
		longer(first[12], 1),                                       // shorter copy: a duplicate
		mk(10, 1, 0, 400, flash.PayloadSize), mk(11, 2, 0, 300, 0), // a full and an empty payload
		mk(12, 3, 0, 200, 17),
	}
	third := append(append([]*flash.Chunk(nil), first...),
		mk(5, 1, 8, 100, 60),  // file 5 now starts first of all
		mk(9, 4, 8, 9900, 33)) // closes one of file 9's gaps
	fourth := []*flash.Chunk{longer(second[1], flash.PayloadSize), mk(13, 0, 0, 50, 5)}
	return [][]*flash.Chunk{first, second, third, fourth}
}

// The pinned stream's segments and reports as the commit before ingest
// went verbatim wrote them (testdata/parent-archive is that commit's
// directory after Close).
var (
	pinnedSegments = [pinnedShards]string{
		"94a767aacbd014f97b0e101c6fa943fa2559dec77dce85fdd8536ac376742e70",
		"84b5d5b88fb8848ea5135ba79e8adad76993dff4202fc9f6a2b2985feed37b35",
		"7416b546be25a95482f999af12d1f908e76f997f051b4eb29832625509e5e0de",
	}
	pinnedReports = "c95c2c94333472708f1b48c748d8b18ee5b4d162ec4e2ab4bf6fcfdfbcd50e80"
)

// segmentSums hashes every shard segment of the archive at dir.
func segmentSums(t *testing.T, dir string) (sums [pinnedShards]string) {
	t.Helper()
	for i := range sums {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("shard-%03d.seg", i)))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		sums[i] = hex.EncodeToString(sum[:])
	}
	return sums
}

// TestIngestReproducesPinnedBytesAndReports: same bytes, same reports as
// the chunk-typed pipeline this one replaced, whether the stream comes in
// as chunks or as wire bodies.
func TestIngestReproducesPinnedBytesAndReports(t *testing.T) {
	modes := map[string]func(*Store, []*flash.Chunk) (IngestReport, error){
		"Ingest": (*Store).Ingest,
		"IngestFrames": func(s *Store, batch []*flash.Chunk) (IngestReport, error) {
			body, err := EncodeFrames(batch)
			if err != nil {
				return IngestReport{}, err
			}
			return s.IngestFrames(body)
		},
	}
	for name, ingest := range modes {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTest(t, dir, Options{Shards: pinnedShards})
			defer s.Close()
			h := sha256.New()
			for i, batch := range pinnedStream() {
				rep, err := ingest(s, batch)
				if err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
				fmt.Fprintf(h, "%+v\n", rep)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pinnedReports {
				t.Errorf("reports hash to %s, pinned %s", got, pinnedReports)
			}
			if got := segmentSums(t, dir); got != pinnedSegments {
				t.Errorf("segments hash to\n%v, pinned\n%v", got, pinnedSegments)
			}
		})
	}
}

// TestParentWrittenArchiveReopens opens a directory the previous pipeline
// wrote, from its snapshots and by scanning: same listing as ingesting
// the stream here, and replaying the stream into it changes nothing.
func TestParentWrittenArchiveReopens(t *testing.T) {
	fresh := openTest(t, t.TempDir(), Options{Shards: pinnedShards})
	defer fresh.Close()
	for _, batch := range pinnedStream() {
		mustIngest(t, fresh, batch)
	}
	want := fresh.Files()

	for _, opts := range []Options{{}, {NoSnapshots: true}} {
		dir := t.TempDir()
		names, err := filepath.Glob("testdata/parent-archive/*")
		if err != nil || len(names) != 1+2*pinnedShards {
			t.Fatalf("fixture: %v, %v", names, err)
		}
		for _, name := range names {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s := openTest(t, dir, opts)
		if got := s.Files(); !reflect.DeepEqual(got, want) {
			t.Errorf("NoSnapshots=%v: listing\n%v, want\n%v", opts.NoSnapshots, got, want)
		}
		if st := s.Stats(); st.RecoveredBytes != 0 {
			t.Errorf("NoSnapshots=%v: open dropped %d bytes", opts.NoSnapshots, st.RecoveredBytes)
		}
		for i, batch := range pinnedStream() {
			if rep := mustIngest(t, s, batch); rep.Added != 0 || rep.Superseded != 0 {
				t.Errorf("NoSnapshots=%v: replayed batch %d: %+v", opts.NoSnapshots, i, rep)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := segmentSums(t, dir); got != pinnedSegments {
			t.Errorf("NoSnapshots=%v: segments changed: %v", opts.NoSnapshots, got)
		}
	}
}
