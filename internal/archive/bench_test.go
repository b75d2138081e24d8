package archive

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"enviromic/internal/flash"
	"enviromic/internal/sim"
)

// benchChunks builds n full-payload chunks spread over files files.
func benchChunks(n, files int) []*flash.Chunk {
	payload := make([]byte, flash.PayloadSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	out := make([]*flash.Chunk, n)
	for i := 0; i < n; i++ {
		start := time.Duration(i) * 83 * time.Millisecond
		out[i] = &flash.Chunk{
			File:   flash.FileID(i%files + 1),
			Origin: int32(i % 20),
			Seq:    uint32(i),
			Start:  sim.At(start),
			End:    sim.At(start + 83*time.Millisecond),
			Data:   payload,
		}
	}
	return out
}

// BenchmarkArchiveIngest measures cold ingest throughput: 1000 fresh
// full-payload chunks per op into a per-iteration archive.
func BenchmarkArchiveIngest(b *testing.B) {
	chunks := benchChunks(1000, 16)
	b.SetBytes(int64(len(chunks)) * flash.PayloadSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := Open(b.TempDir(), Options{Shards: 8})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := s.Ingest(chunks); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// BenchmarkArchiveIngestDup measures the dedup fast path: re-ingesting
// an already-archived tour (every chunk a duplicate, no disk writes).
func BenchmarkArchiveIngestDup(b *testing.B) {
	s, err := Open(b.TempDir(), Options{Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	chunks := benchChunks(1000, 16)
	if _, err := s.Ingest(chunks); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Ingest(chunks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArchiveIngestFrames measures what POST /ingest runs: one
// 256-chunk wire body of fresh full-payload chunks per op, each chunk
// following its file's last as a tour's do, into a single shard that
// already indexes 500 or 50 000 files — the second size is there to show
// what a write costs as the archive grows.
func BenchmarkArchiveIngestFrames(b *testing.B) {
	for _, files := range []int{500, 50000} {
		b.Run(fmt.Sprintf("files=%d", files), func(b *testing.B) {
			s, err := Open(b.TempDir(), Options{Shards: 1, CheckpointBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			const chunkLen = 83 * time.Millisecond
			seed := make([]*flash.Chunk, files)
			for i := range seed {
				start := sim.At(time.Duration(i) * 10 * time.Second)
				seed[i] = &flash.Chunk{
					File: flash.FileID(i + 1), Origin: int32(i % 20),
					Start: start, End: start.Add(chunkLen), Data: []byte{1},
				}
			}
			if _, err := s.Ingest(seed); err != nil {
				b.Fatal(err)
			}
			const perBody, perFile = 256, 32
			chunks := benchChunks(perBody, 1)
			b.SetBytes(perBody * flash.PayloadSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j, c := range chunks {
					// Eight files per body, the next eight each op, so a
					// file's chunk list grows with b.N/files, not b.N.
					turn := i*perBody/perFile + j/perFile
					file := seed[turn%files]
					c.File = file.File
					c.Seq = uint32(1 + turn/files*perFile + j%perFile)
					c.Start = file.Start.Add(time.Duration(c.Seq) * chunkLen)
					c.End = c.Start.Add(chunkLen)
				}
				body, err := EncodeFrames(chunks)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := s.IngestFrames(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkArchiveQuery measures an interval + origin query against a
// populated store (no disk reads: index only).
func BenchmarkArchiveQuery(b *testing.B) {
	s, err := Open(b.TempDir(), Options{Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Ingest(benchChunks(5000, 200)); err != nil {
		b.Fatal(err)
	}
	origins := map[int32]bool{3: true, 7: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := sim.At(time.Duration(i%60) * time.Second)
		if got := s.Query(from, from.Add(30*time.Second), origins); len(got) == 0 && i == 0 {
			b.Fatal("query returned nothing")
		}
	}
}

// BenchmarkArchiveFile measures reassembly with a warm cache (the
// steady-state /files/{id}/wav path) vs cold (first touch after ingest).
func BenchmarkArchiveFile(b *testing.B) {
	for _, mode := range []string{"cold", "warm"} {
		b.Run(mode, func(b *testing.B) {
			cache := int64(0) // default 16 MiB
			if mode == "cold" {
				cache = -1
			}
			s, err := Open(b.TempDir(), Options{Shards: 8, CacheBytes: cache})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Ingest(benchChunks(2000, 4)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.File(flash.FileID(i%4 + 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkArchiveIngestParallel measures concurrent durable ingest: many
// goroutines submitting batches at once, group-committed per shard with
// one fsync per group (the ≥1k-client HTTP load path in miniature).
func BenchmarkArchiveIngestParallel(b *testing.B) {
	s, err := Open(b.TempDir(), Options{Shards: 8, SyncOnIngest: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	payload := make([]byte, flash.PayloadSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	const perBatch = 100
	var ctr atomic.Uint32
	b.SetBytes(perBatch * flash.PayloadSize)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		chunks := make([]*flash.Chunk, perBatch)
		for pb.Next() {
			base := ctr.Add(1) * perBatch
			for i := range chunks {
				seq := base + uint32(i)
				start := time.Duration(seq) * 83 * time.Millisecond
				chunks[i] = &flash.Chunk{
					File:   flash.FileID(seq%16 + 1),
					Origin: int32(seq % 20),
					Seq:    seq,
					Start:  sim.At(start),
					End:    sim.At(start + 83*time.Millisecond),
					Data:   payload,
				}
			}
			if _, err := s.Ingest(chunks); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkArchiveOpen measures open over a 5000-chunk archive with a
// warm index snapshot (the steady-state restart path; the close before
// the timed region checkpoints the indexes).
func BenchmarkArchiveOpen(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Ingest(benchChunks(5000, 50)); err != nil {
		b.Fatal(err)
	}
	s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if st := s.Stats(); st.Chunks != 5000 {
			b.Fatalf("chunks = %d", st.Chunks)
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// BenchmarkArchiveOpenRescan measures the same open forced down the full
// segment-scan rebuild (the no-snapshot fallback) for comparison with
// BenchmarkArchiveOpen.
func BenchmarkArchiveOpenRescan(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Ingest(benchChunks(5000, 50)); err != nil {
		b.Fatal(err)
	}
	s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{NoSnapshots: true})
		if err != nil {
			b.Fatal(err)
		}
		if st := s.Stats(); st.Chunks != 5000 {
			b.Fatalf("chunks = %d", st.Chunks)
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// BenchmarkArchiveCompact measures one Compact of a 50 000-chunk,
// two-shard archive in which every seventh chunk was first archived short
// and then superseded by its full copy, so each shard has dead frames to
// drop and every live frame to copy. Each op compacts a fresh copy of the
// same directory; the copy and the open are not timed.
func BenchmarkArchiveCompact(b *testing.B) {
	root := b.TempDir()
	tmpl := filepath.Join(root, "template")
	s, err := Open(tmpl, Options{Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	chunks := benchChunks(50000, 200)
	var short []*flash.Chunk
	for i := 0; i < len(chunks); i += 7 {
		c := *chunks[i]
		c.Data = c.Data[:16]
		short = append(short, &c)
	}
	for _, batch := range [][]*flash.Chunk{short, chunks} {
		if _, err := s.Ingest(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	work := filepath.Join(root, "work")
	b.SetBytes(int64(len(chunks)) * (frameHeaderSize + flash.MaxRecordSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := copyDir(work, tmpl); err != nil {
			b.Fatal(err)
		}
		s, err := Open(work, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rep, err := s.Compact()
		if err != nil || rep.ChunksKept != len(chunks) || rep.ReclaimedBytes == 0 {
			b.Fatalf("Compact = %+v, %v", rep, err)
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// copyDir replaces dst with a copy of the flat directory src.
func copyDir(dst, src string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
