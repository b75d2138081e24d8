package archive

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"enviromic/internal/flash"
	"enviromic/internal/sim"
)

// TestConcurrentIngestAndQuery is the -race stress test: several ingest
// goroutines (with overlapping chunk streams, so dedup contends) racing
// listings, interval queries, gap math, reassembly (cache churn), and
// stats. Correctness check at the end: every unique chunk landed exactly
// once.
func TestConcurrentIngestAndQuery(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 4, CacheBytes: 1 << 20})
	defer s.Close()

	const (
		writers       = 4
		files         = 12
		seqsPerWriter = 40
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers hammer every query surface until writers finish.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Files()
				s.Query(sim.At(time.Duration(i%30)*time.Second), sim.At(time.Duration(i%30+5)*time.Second), map[int32]bool{int32(i % writers): true})
				s.Gaps(flash.FileID(i%files+1), 0)
				s.File(flash.FileID(i%files + 1))
				s.Stats()
			}
		}(r)
	}

	// Writers ingest interleaved batches; adjacent writers overlap on
	// origin (w and w-1 emit some identical (file, origin, seq) keys).
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; seq < seqsPerWriter; seq++ {
				var batch []*flash.Chunk
				for f := 1; f <= files; f++ {
					batch = append(batch, mkChunk(flash.FileID(f), int32(w), uint32(seq), float64(seq), float64(seq+1)))
					if w > 0 {
						// Duplicate of the previous writer's chunk.
						batch = append(batch, mkChunk(flash.FileID(f), int32(w-1), uint32(seq), float64(seq), float64(seq+1)))
					}
				}
				if _, err := s.Ingest(batch); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	st := s.Stats()
	wantChunks := files * writers * seqsPerWriter // unique (file, origin, seq) triples
	if st.Chunks != wantChunks {
		t.Fatalf("chunks = %d, want %d", st.Chunks, wantChunks)
	}
	for f := 1; f <= files; f++ {
		file, err := s.File(flash.FileID(f))
		if err != nil {
			t.Fatalf("File(%d): %v", f, err)
		}
		if len(file.Chunks) != writers*seqsPerWriter {
			t.Fatalf("file %d has %d chunks, want %d", f, len(file.Chunks), writers*seqsPerWriter)
		}
	}
}

// TestConcurrentHTTP drives the handler from parallel clients while
// ingest runs underneath — the service-level companion to the store
// stress test.
func TestConcurrentHTTP(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 4})
	defer s.Close()
	mustIngest(t, s, []*flash.Chunk{mkChunk(1, 0, 0, 0, 1)})
	srv := httptest.NewServer(NewHandler(s, nil))
	defer srv.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	paths := []string{"/files", "/files/1", "/files/1/gaps", "/files/1/wav", "/query?from=0s&to=100s", "/stats"}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + paths[(c+i)%len(paths)])
				if err != nil {
					t.Errorf("GET: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(c)
	}
	for seq := 1; seq <= 50; seq++ {
		mustIngest(t, s, []*flash.Chunk{
			mkChunk(1, 0, uint32(seq), float64(seq), float64(seq+1)),
			mkChunk(flash.FileID(seq%5+2), 1, uint32(seq), float64(seq), float64(seq+1)),
		})
	}
	close(stop)
	wg.Wait()

	if st := s.Stats(); st.Chunks != 1+100 {
		t.Fatalf("chunks = %d, want 101", st.Chunks)
	}
}

// TestConcurrentIngestSameKeys has every writer ingest the *same* chunk
// stream; exactly one copy of each key may land regardless of interleaving.
func TestConcurrentIngestSameKeys(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 2})
	defer s.Close()
	mkBatch := func() []*flash.Chunk {
		var b []*flash.Chunk
		for f := 1; f <= 6; f++ {
			for q := 0; q < 25; q++ {
				b = append(b, mkChunk(flash.FileID(f), 7, uint32(q), float64(q), float64(q+1)))
			}
		}
		return b
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Ingest(mkBatch()); err != nil {
				t.Errorf("ingest: %v", err)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Chunks != 6*25 {
		t.Fatalf("chunks = %d, want %d (dedup must hold under races)", st.Chunks, 6*25)
	}
	if got := st.Counters["ingest.chunks"] + st.Counters["ingest.duplicates"]; got != 6*6*25 {
		t.Fatalf("accounting: added+dups = %d, want %d", got, 6*6*25)
	}
}

// TestConcurrentIngestFramesReadsCompact races wire-body ingest against
// every read surface and back-to-back compactions. Each writer sends a
// key's short copy and then its longer one — so supersession keeps the
// compactor in work — and reuses one buffer for every body, overwriting
// it the moment IngestFrames returns: a shard writer still reading a body
// after its reply would be a reported race. At the end every key must
// hold its longer copy, compaction must have reclaimed every dead frame,
// and a reopen by scan must list what the live index listed.
func TestConcurrentIngestFramesReadsCompact(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Shards: 3, CacheBytes: 1 << 20})
	const (
		writers = 3
		files   = 9
		rounds  = 30
	)
	var readers, compactor sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := flash.FileID(i%files + 1)
				s.Query(sim.At(time.Duration(i%rounds)*time.Second), sim.At(time.Duration(i%rounds+3)*time.Second), nil)
				s.Gaps(id, 0)
				if f, err := s.File(id); err == nil {
					for _, c := range f.Chunks {
						if len(c.Data) < 4 || c.Data[0] != byte(c.File) || c.Data[2] != byte(c.Seq) {
							t.Errorf("file %d served chunk %+v", id, c)
							return
						}
					}
				}
				s.Manifest()
			}
		}()
	}
	compactor.Add(1)
	go func() {
		defer compactor.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Compact(); err != nil {
				t.Errorf("Compact: %v", err)
				return
			}
		}
	}()

	var ingest sync.WaitGroup
	for w := 0; w < writers; w++ {
		ingest.Add(1)
		go func(w int) {
			defer ingest.Done()
			var body []byte
			for seq := 0; seq < rounds; seq++ {
				for _, extra := range []int{0, 16} {
					body = body[:0]
					for f := 1; f <= files; f++ {
						c := mkChunk(flash.FileID(f), int32(w), uint32(seq), float64(seq), float64(seq+1))
						c.Data = append(c.Data, make([]byte, extra)...)
						var err error
						if body, err = appendFrame(body, c); err != nil {
							t.Error(err)
							return
						}
					}
					if _, err := s.IngestFrames(body); err != nil {
						t.Errorf("IngestFrames: %v", err)
						return
					}
					clear(body)
				}
			}
		}(w)
	}
	ingest.Wait()
	close(stop)
	readers.Wait()
	compactor.Wait()

	if _, err := s.Compact(); err != nil {
		t.Fatalf("final Compact: %v", err)
	}
	st := s.Stats()
	if want := files * writers * rounds; st.Chunks != want || st.SupersededBytes != 0 ||
		st.Bytes != int64(want*(4+16)) || st.Counters["ingest.superseded"] != int64(want) {
		t.Fatalf("after the storm: %+v, want %d chunks of 20 bytes, each superseded once, no dead bytes", st, want)
	}
	want := s.Files()
	s.crashClose()
	s2 := openTest(t, dir, Options{NoSnapshots: true})
	defer s2.Close()
	if got := s2.Files(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen by scan lists %d files that differ from the live index's %d", len(got), len(want))
	}
}
