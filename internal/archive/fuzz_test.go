package archive

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

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
