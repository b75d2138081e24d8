package archive

import (
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"enviromic/internal/flash"
	"enviromic/internal/telemetry"
)

// dedupModel is what the dedup index must agree with: per file, the
// payload length held under each (origin, seq) key.
type dedupModel map[flash.FileID]map[uint64]int

// apply folds one Ingest batch into the model the way a single caller's
// group commit does — in order, keep the longest copy — and returns the
// report that batch must produce (gap fields aside).
func (md dedupModel) apply(batch []*flash.Chunk) IngestReport {
	var rep IngestReport
	deltas := map[flash.FileID]*FileDelta{}
	for _, c := range batch {
		d := deltas[c.File]
		if d == nil {
			d = &FileDelta{File: c.File}
			deltas[c.File] = d
		}
		keys := md[c.File]
		if keys == nil {
			keys = map[uint64]int{}
			md[c.File] = keys
		}
		key := dedupKey(c.Origin, c.Seq)
		held, ok := keys[key]
		switch {
		case !ok:
			keys[key] = len(c.Data)
			d.Added++
			rep.Added++
		case len(c.Data) > held:
			keys[key] = len(c.Data)
			d.Superseded++
			rep.Superseded++
		default:
			d.Duplicates++
			rep.Duplicates++
		}
	}
	for _, d := range deltas {
		rep.Files = append(rep.Files, *d)
	}
	sort.Slice(rep.Files, func(i, j int) bool { return rep.Files[i].File < rep.Files[j].File })
	return rep
}

// checkDedupIndex holds every file's dedup index to the model: a
// permutation of the chunk indexes, strictly sorted by key, finding each
// model key at a chunk of that key and length, and nothing else. A file
// whose index is still unbuilt (snapshot-loaded, untouched) is checked
// on the index its first touch would build, without building it.
func checkDedupIndex(t *testing.T, s *Store, md dedupModel, rng *rand.Rand) {
	t.Helper()
	files := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		for id, fm := range sh.files {
			files++
			probe := *fm
			probe.ensureBySeq()
			n := len(probe.chunks)
			if len(probe.bySeq) != n {
				t.Fatalf("file %d: dedup index holds %d of %d chunks", id, len(probe.bySeq), n)
			}
			seen := make([]bool, n)
			for j, i := range probe.bySeq {
				if i < 0 || int(i) >= n || seen[i] {
					t.Fatalf("file %d: dedup index %v is not a permutation of [0,%d)", id, probe.bySeq, n)
				}
				seen[i] = true
				if j > 0 && probe.keyAt(probe.bySeq[j-1]) >= probe.keyAt(i) {
					t.Fatalf("file %d: dedup index not strictly sorted at %d", id, j)
				}
			}
			keys := md[id]
			if len(keys) != n {
				t.Fatalf("file %d: %d chunks indexed, model holds %d", id, n, len(keys))
			}
			for key, payload := range keys {
				i, ok := probe.find(key)
				if !ok || probe.keyAt(i) != key || int(probe.chunks[i].payloadBytes()) != payload {
					t.Fatalf("file %d key %#x: found=%v, want a %d-byte chunk", id, key, ok, payload)
				}
			}
			for k := 0; k < 8; k++ {
				key := dedupKey(int32(rng.Intn(5)), uint32(rng.Intn(50)))
				if _, held := keys[key]; !held {
					if _, ok := probe.find(key); ok {
						t.Fatalf("file %d: found key %#x the model does not hold", id, key)
					}
				}
			}
		}
		sh.mu.RUnlock()
	}
	if files != len(md) {
		t.Fatalf("store indexes %d files, model %d", files, len(md))
	}
}

// chunkLists copies every file's chunk list, sorted by key: a rescan of a
// compacted segment lists a file's chunks in offset order, not in the
// order they first arrived.
func chunkLists(s *Store) map[flash.FileID][]chunkMeta {
	out := map[flash.FileID][]chunkMeta{}
	for _, sh := range s.shards {
		sh.mu.RLock()
		for id, fm := range sh.files {
			list := append([]chunkMeta(nil), fm.chunks...)
			sort.Slice(list, func(i, j int) bool {
				return dedupKey(list[i].origin, list[i].seq) < dedupKey(list[j].origin, list[j].seq)
			})
			out[id] = list
		}
		sh.mu.RUnlock()
	}
	return out
}

// TestDedupMatchesMapModel runs random group scripts — duplicates within
// and across groups, longer and shorter copies in the same group and in
// later ones, duplicate-only groups, compactions, and reopens from the
// snapshot and by scan between groups — and after every group holds the
// sorted dedup index and the ingest report to a map model's. A reopen
// must also give back the live chunk records exactly, offsets included.
func TestDedupMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	chunk := func(file flash.FileID, origin int32, seq uint32, payload int) *flash.Chunk {
		return mkChunkN(file, origin, seq, float64(seq), float64(seq+1), payload)
	}
	for script := 0; script < 12; script++ {
		dir := t.TempDir()
		opts := Options{Shards: 1 + rng.Intn(3)}
		s := openTest(t, dir, opts)
		md := dedupModel{}
		nFiles := 1 + rng.Intn(5)
		for g := 0; g < 40; g++ {
			switch rng.Intn(12) {
			case 0, 1: // reopen: from the snapshot, or by scan
				live := chunkLists(s)
				s.Close()
				reopen := opts
				reopen.NoSnapshots = rng.Intn(2) == 0
				s = openTest(t, dir, reopen)
				if !reflect.DeepEqual(chunkLists(s), live) {
					t.Fatalf("script %d group %d: reopened chunk lists (NoSnapshots=%v) differ from the live ones", script, g, reopen.NoSnapshots)
				}
				checkDedupIndex(t, s, md, rng)
			case 2:
				if _, err := s.Compact(); err != nil {
					t.Fatal(err)
				}
				checkDedupIndex(t, s, md, rng)
			}
			var batch []*flash.Chunk
			if rng.Intn(5) == 0 && len(md) > 0 {
				// Duplicate-only: copies no longer than what is held.
				for id, keys := range md {
					for key, payload := range keys {
						if rng.Intn(3) == 0 {
							batch = append(batch, chunk(id, int32(key>>32), uint32(key), rng.Intn(payload+1)))
						}
					}
				}
			} else {
				for k := 1 + rng.Intn(40); k > 0; k-- {
					c := chunk(flash.FileID(1+rng.Intn(nFiles)), int32(rng.Intn(4)), uint32(rng.Intn(40)), rng.Intn(24))
					batch = append(batch, c)
					if rng.Intn(4) == 0 { // another copy in the same group
						batch = append(batch, chunk(c.File, c.Origin, c.Seq, rng.Intn(32)))
					}
				}
			}
			rng.Shuffle(len(batch), func(i, j int) {
				if rng.Intn(2) == 0 {
					batch[i], batch[j] = batch[j], batch[i]
				}
			})
			want := md.apply(batch)
			got := mustIngest(t, s, batch)
			if got.Added != want.Added || got.Duplicates != want.Duplicates || got.Superseded != want.Superseded ||
				len(got.Files) != len(want.Files) {
				t.Fatalf("script %d group %d: report %+v, model %+v", script, g, got, want)
			}
			for i, d := range got.Files {
				w := want.Files[i]
				if d.File != w.File || d.Added != w.Added || d.Duplicates != w.Duplicates || d.Superseded != w.Superseded {
					t.Fatalf("script %d group %d file %d: delta %+v, model %+v", script, g, d.File, d, w)
				}
			}
			checkDedupIndex(t, s, md, rng)
		}
		s.Close()
	}
}

// indexStream is a fixed, seeded tour stream for the index-size guard:
// files with log-uniform lengths (1 to 4 096 chunks) over one to three
// origins, interleaved in runs of up to 32 chunks as tours deliver them,
// with 4% of chunks first heard short and later superseded and 4% sent
// again as duplicates. It calls batch for every ~2 000 chunks sent.
func indexStream(minChunks int, batch func([]*flash.Chunk)) {
	rng := rand.New(rand.NewSource(9))
	type file struct {
		id      flash.FileID
		origins int
		next    int
		n       int
	}
	var files []*file
	for total := 0; total < minChunks; {
		n := int(math.Exp(rng.Float64() * math.Log(4096)))
		files = append(files, &file{id: flash.FileID(len(files) + 1), origins: 1 + rng.Intn(3), n: n})
		total += n
	}
	var out, later []*flash.Chunk
	mk := func(f *file, i, payload int) *flash.Chunk {
		origin := int32(f.id)%40 + int32(i%f.origins)
		return mkChunkN(f.id, origin, uint32(i/f.origins), float64(i), float64(i+1), payload)
	}
	for live := files; len(live) > 0; {
		f := live[rng.Intn(len(live))]
		for run := 1 + rng.Intn(32); run > 0 && f.next < f.n; run-- {
			i := f.next
			f.next++
			switch r := rng.Intn(100); {
			case r < 4:
				out = append(out, mk(f, i, 4))
				later = append(later, mk(f, i, 16))
			case r < 8:
				out = append(out, mk(f, i, 16))
				later = append(later, mk(f, i, 16))
			default:
				out = append(out, mk(f, i, 16))
			}
		}
		if f.next == f.n {
			for k, g := range live {
				if g == f {
					live = append(live[:k], live[k+1:]...)
					break
				}
			}
		}
		if len(out) >= 2000 || len(live) == 0 {
			batch(append(out, later...))
			out, later = nil, nil
		}
	}
}

// TestIndexBytesPerChunk guards what the index costs per chunk held: the
// live heap a store adds while it ingests a fixed ≥100 k-chunk stream,
// read after a GC. The chunk records are 32 bytes and the dedup index 4,
// both with append headroom; the bound leaves about 13% over what this
// layout reads (≈46 B) for per-file overhead and runtime variance, and
// the layout it replaced — 40-byte records, per-file dedup maps — reads
// ≈81 B on the same stream.
func TestIndexBytesPerChunk(t *testing.T) {
	if got := unsafe.Sizeof(chunkMeta{}); got != 32 {
		t.Errorf("chunkMeta is %d bytes, want 32", got)
	}
	dir := t.TempDir()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := openTest(t, dir, Options{Shards: 4, CheckpointBytes: -1})
	defer s.Close()
	indexStream(100_000, func(batch []*flash.Chunk) { mustIngest(t, s, batch) })
	runtime.GC()
	runtime.ReadMemStats(&after)
	chunks := s.Stats().Chunks
	if chunks < 100_000 {
		t.Fatalf("stream left %d chunks, want at least 100 000", chunks)
	}
	perChunk := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(chunks)
	t.Logf("%d chunks in %d files: %.1f B/chunk of live heap", chunks, s.Stats().Files, perChunk)
	const bound = 52
	if perChunk > bound {
		t.Errorf("index costs %.1f B/chunk, bound %d", perChunk, bound)
	}
}

// TestIndexBytesGauge checks that enviromic_archive_index_bytes is served
// and counts at least every chunk record and dedup entry held.
func TestIndexBytesGauge(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := openTest(t, t.TempDir(), Options{Shards: 2, Telemetry: reg})
	defer s.Close()
	mustIngest(t, s, seedChunks(6, 40))
	rec := httptest.NewRecorder()
	telemetry.Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	samples, err := telemetry.ParseText(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	for _, smp := range samples {
		if smp.Name == "enviromic_archive_index_bytes" {
			got = smp.Value
		}
	}
	chunks := s.Stats().Chunks
	if min := float64(chunks * (32 + 4)); got < min {
		t.Fatalf("enviromic_archive_index_bytes = %v, want at least %v for %d chunks", got, min, chunks)
	}
}
