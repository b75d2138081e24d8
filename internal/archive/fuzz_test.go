package archive

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"testing"

	"enviromic/internal/flash"
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
