package archive

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"enviromic/internal/flash"
	"enviromic/internal/sim"
)

// referenceDecodeFrames is the streaming, copying decoder POST /ingest ran
// before parseFrames took over the network: the oracle FuzzParseFrames
// holds the zero-copy walker to.
func referenceDecodeFrames(r io.Reader) ([]*flash.Chunk, error) {
	br := bufio.NewReader(r)
	var out []*flash.Chunk
	var hdr [frameHeaderSize]byte
	payload := make([]byte, flash.MaxRecordSize)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, fmt.Errorf("truncated frame header: %w", err)
		}
		n := int(binary.BigEndian.Uint32(hdr[:]))
		sum := binary.BigEndian.Uint32(hdr[4:])
		if n < flash.MinRecordSize || n > flash.MaxRecordSize {
			return out, fmt.Errorf("frame payload length %d out of range", n)
		}
		if _, err := io.ReadFull(br, payload[:n]); err != nil {
			return out, fmt.Errorf("truncated frame payload: %w", err)
		}
		if crc32.ChecksumIEEE(payload[:n]) != sum {
			return out, fmt.Errorf("frame CRC mismatch")
		}
		c, consumed, err := flash.DecodeRecord(payload[:n])
		if err != nil || consumed != n {
			return out, fmt.Errorf("undecodable frame: %v", err)
		}
		out = append(out, c)
	}
}

// FuzzParseFrames holds the walker that faces POST /ingest and the
// replication pull to the reference decoder: the same bodies accepted and
// refused, the same metadata and payload for every frame, the frames
// tiling the body exactly, nothing read past its end, and — the property
// the verbatim append rests on — an accepted body is canonical: encoding
// what it decodes to gives back its bytes.
func FuzzParseFrames(f *testing.F) {
	good, err := EncodeFrames([]*flash.Chunk{
		mkChunk(1, 3, 0, 0, 1),
		{File: 2, Origin: -4, Seq: 9, Start: -5, End: 6},
		{File: 0x80000001, Origin: 1, Seq: 1 << 31, Start: 1e9, End: 2e9, Data: bytes.Repeat([]byte{0xA5}, flash.PayloadSize)},
	})
	if err != nil {
		f.Fatal(err)
	}
	first := frameHeaderSize + flash.MinRecordSize + 4 // mkChunk's frame
	reseal := func(b []byte) []byte {                  // fix the first frame's CRC up after editing its record
		binary.BigEndian.PutUint32(b[4:], crc32.ChecksumIEEE(b[frameHeaderSize:first]))
		return b
	}
	edit := func(at int, v byte) []byte {
		b := bytes.Clone(good)
		b[at] = v
		return b
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:first+3])                                  // torn header
	f.Add(good[:len(good)-1])                              // torn payload
	f.Add(edit(first+frameHeaderSize+2, 0xFF))             // bad CRC
	f.Add(edit(3, flash.MinRecordSize-1))                  // length below range
	f.Add(edit(2, 0xFF))                                   // length above range
	f.Add(reseal(edit(frameHeaderSize+29, 3)))             // record shorter than its frame
	f.Add(reseal(edit(frameHeaderSize+29, 5)))             // record longer than its frame
	f.Add(reseal(edit(frameHeaderSize+28, 0xFF)))          // record payload length over PayloadSize
	f.Add(append(bytes.Clone(good), good[:first]...))      // a duplicate frame is still a valid body
	f.Add(append(bytes.Clone(good), 0, 0, 0, 30, 0, 0, 0)) // trailing garbage
	f.Fuzz(func(t *testing.T, data []byte) {
		// No spare capacity: a slice past the body's end panics.
		body := bytes.Clone(data)[:len(data):len(data)]
		want, wantErr := referenceDecodeFrames(bytes.NewReader(data))
		refs, err := parseFrames(body)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("parseFrames: %v, reference: %v", err, wantErr)
		}
		got, derr := DecodeFrames(body)
		if (derr != nil) != (wantErr != nil) {
			t.Fatalf("DecodeFrames: %v, reference: %v", derr, wantErr)
		}
		if !bytes.Equal(body, data) {
			t.Fatal("body modified")
		}
		if err != nil {
			if !errors.Is(err, ErrBadFrames) || refs != nil {
				t.Fatalf("refusal %v with %d frames, want ErrBadFrames and none", err, len(refs))
			}
			return
		}
		if len(refs) != len(want) || len(got) != len(want) {
			t.Fatalf("%d refs, %d chunks, reference %d", len(refs), len(got), len(want))
		}
		at := 0
		for i, fr := range refs {
			w := want[i]
			if fr.lo != at || fr.hi != at+frameHeaderSize+flash.MinRecordSize+fr.PayloadLen {
				t.Fatalf("frame %d spans [%d,%d) from %d with %d payload bytes", i, fr.lo, fr.hi, at, fr.PayloadLen)
			}
			at = fr.hi
			if fr.File != w.File || fr.Origin != w.Origin || fr.Seq != w.Seq || fr.Start != w.Start || fr.End != w.End ||
				!bytes.Equal(fr.data(body), w.Data) {
				t.Fatalf("frame %d = %+v, reference %+v", i, fr, w)
			}
			if !reflect.DeepEqual(got[i], w) {
				t.Fatalf("chunk %d = %+v, reference %+v", i, got[i], w)
			}
		}
		if at != len(body) {
			t.Fatalf("frames end at %d of %d", at, len(body))
		}
		if enc, err := EncodeFrames(want); err != nil || !bytes.Equal(enc, data) {
			t.Fatalf("accepted body is not canonical: re-encodes to %d bytes of %d, %v", len(enc), len(data), err)
		}
	})
}

// FuzzDecodeManifest asserts the /repl/manifest codec's contract under
// arbitrary input (mirroring erasure.FuzzFragmentDecode): DecodeManifest
// never panics and never allocates from a declared count the input does
// not back, and the form is canonical — whatever it accepts re-encodes
// to the same bytes and decodes again to the same rows, in the order the
// coordinator's merge relies on.
func FuzzDecodeManifest(f *testing.F) {
	good := EncodeManifest([]FileManifest{
		{ID: 1, Chunks: []ChunkKey{{Origin: 1, Seq: 0, Start: 0, End: 1e9, Bytes: 4}, {Origin: 2, Seq: 0, Start: 1e9, End: 2e9, Bytes: 232}}},
		{ID: 0x80000001, Chunks: []ChunkKey{{Origin: -1, Seq: 7, Start: -5, End: 6, Bytes: 0}}},
	})
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(good[:manifestFileHeader])
	f.Add(good[:3])
	f.Add([]byte{})
	hugeCount := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(hugeCount[4:], 0xffffffff)
	f.Add(hugeCount)
	f.Add(append(append([]byte(nil), good...), good...)) // file IDs repeat
	f.Fuzz(func(t *testing.T, data []byte) {
		ms, err := DecodeManifest(data)
		if err != nil {
			return
		}
		for i, m := range ms {
			if i > 0 && m.ID <= ms[i-1].ID {
				t.Fatalf("accepted file %d after %d", m.ID, ms[i-1].ID)
			}
			for j := 1; j < len(m.Chunks); j++ {
				if !m.Chunks[j-1].Less(m.Chunks[j]) {
					t.Fatalf("accepted file %d with chunks out of order at %d", m.ID, j)
				}
			}
		}
		enc := EncodeManifest(ms)
		if !bytes.Equal(enc, data) {
			t.Fatalf("Encode(Decode(x)) != x: %d bytes in, %d out", len(data), len(enc))
		}
		again, err := DecodeManifest(enc)
		if err != nil || !reflect.DeepEqual(again, ms) {
			t.Fatalf("Decode(Encode(x)) != x: %v", err)
		}
	})
}

// FuzzSnapshotLoad hands Open a mutated shard snapshot next to the
// segment it was written over. Open must either load it and list exactly
// what a rescan of the segment lists — files, gaps, queries, every
// payload byte — or discard it and rescan; it must never fail, panic,
// drop segment bytes or serve a different listing.
func FuzzSnapshotLoad(f *testing.F) {
	// A small store that has compacted once (generation 1) and grown
	// since, closed cleanly so its snapshot covers the whole segment.
	tmpl := f.TempDir()
	s, err := Open(tmpl, Options{Shards: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, batch := range [][]*flash.Chunk{
		seedChunks(4, 6),
		{mkChunkN(1, 2, 0, 0, 1, 48)}, // supersedes a copy, for compaction to drop
		nil,
		{mkChunkN(2, 3, 1, 1, 2, 60), mkChunkN(9, 1, 0, 30, 31, 12)},
	} {
		if batch == nil {
			_, err = s.Compact()
		} else {
			_, err = s.Ingest(batch)
		}
		if err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	files := map[string][]byte{}
	for _, name := range []string{manifestName, "shard-000.seg", "shard-000.idx"} {
		data, err := os.ReadFile(filepath.Join(tmpl, name))
		if err != nil {
			f.Fatal(err)
		}
		files[name] = data
	}
	valid := files["shard-000.idx"]
	if gen := binary.BigEndian.Uint64(valid[8:]); gen != 1 {
		f.Fatalf("template snapshot is generation %d, want 1", gen)
	}

	// open lays the template out with idx as its snapshot (none when nil)
	// and opens it.
	open := func(t testing.TB, idx []byte, opts Options) *Store {
		dir := t.TempDir()
		for name, data := range files {
			if name == "shard-000.idx" {
				if idx == nil {
					continue
				}
				data = idx
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return s
	}
	// listing is everything a reader of s can see.
	listing := func(t *testing.T, s *Store) string {
		out := storeFingerprint(t, s)
		sec := func(v float64) sim.Time { return sim.Time(v * float64(time.Second)) }
		for _, q := range []struct {
			from, to float64
			origins  map[int32]bool
		}{{0, 0, nil}, {2, 4, nil}, {0, 100, map[int32]bool{2: true, 3: true}}, {30, 31, nil}} {
			out += fmt.Sprintf("query %v: %+v\n", q, s.Query(sec(q.from), sec(q.to), q.origins))
		}
		return out
	}
	var (
		want      string
		rescanned sync.Once
	)

	edit := func(off int, v uint64) []byte {
		b := bytes.Clone(valid)
		binary.BigEndian.PutUint64(b[off:], v)
		return b
	}
	covered := binary.BigEndian.Uint64(valid[16:])
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                            // torn
	f.Add(valid[:snapshotHeaderSize-1])                    // torn header
	f.Add(edit(8, 0))                                      // stale generation
	f.Add(edit(16, uint64(len(files["shard-000.seg"]))+1)) // covered offset past the end
	f.Add(edit(16, covered-frameHeaderSize))               // covered offset inside a frame

	// CRC-clean images the loader must still refuse or normalise: the
	// first file (ID 1) has one origin, so its chunk records start 84
	// bytes in, and the first record's length word sits 28 bytes into it.
	reseal := func(b []byte) []byte {
		binary.BigEndian.PutUint32(b[24:], uint32(len(b)-snapshotHeaderSize))
		binary.BigEndian.PutUint32(b[28:], snapshotSum(b))
		return b
	}
	const firstOrigins, firstRecord = 72, 84
	if binary.BigEndian.Uint32(valid[firstOrigins:]) != 1 {
		f.Fatal("template's first file does not have exactly one origin")
	}
	recOff := binary.BigEndian.Uint64(valid[firstRecord:])
	recLen := binary.BigEndian.Uint32(valid[firstRecord+28:])
	f.Add(reseal(edit(firstRecord, 1<<48|recOff+frameHeaderSize))) // offset past the packed form's 48 bits
	lenPastPacked := bytes.Clone(valid)
	binary.BigEndian.PutUint32(lenPastPacked[firstRecord+28:], 1<<16|recLen+1) // length past its 16 bits
	f.Add(reseal(lenPastPacked))
	// origins gives the first file the origin list os in place of its own.
	origins := func(os ...int32) []byte {
		b := append([]byte(nil), valid[:firstOrigins]...)
		b = binary.BigEndian.AppendUint32(b, uint32(len(os)))
		for _, o := range os {
			b = binary.BigEndian.AppendUint32(b, uint32(o))
		}
		return reseal(append(b, valid[firstOrigins+8:]...))
	}
	own := int32(binary.BigEndian.Uint32(valid[firstOrigins+4:]))
	f.Add(origins(own, own))   // duplicated origin
	f.Add(origins(own, own-1)) // unsorted origins
	f.Fuzz(func(t *testing.T, idx []byte) {
		rescanned.Do(func() {
			rescan := open(t, nil, Options{NoSnapshots: true})
			want = listing(t, rescan)
			rescan.Close()
		})
		s := open(t, idx, Options{})
		defer s.crashClose() // no snapshot rewrite, no fsync: exec speed
		st := s.Stats()
		loads, fallbacks := st.Counters["open.snapshot_loads"], st.Counters["open.snapshot_fallbacks"]
		if loads+fallbacks != 1 {
			t.Fatalf("snapshot loaded %d times, discarded %d", loads, fallbacks)
		}
		if st.RecoveredBytes != 0 {
			t.Fatalf("open dropped %d segment bytes (snapshot loaded: %v)", st.RecoveredBytes, loads == 1)
		}
		if got := listing(t, s); got != want {
			t.Fatalf("listing differs from a rescan (snapshot loaded: %v):\n%s\nwant\n%s", loads == 1, got, want)
		}
	})
}
