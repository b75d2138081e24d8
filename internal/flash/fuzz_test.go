package flash

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"enviromic/internal/sim"
)

// FuzzUnmarshalChunk feeds arbitrary block images to the decoder: it must
// never panic, and accepted blocks must re-marshal losslessly.
func FuzzUnmarshalChunk(f *testing.F) {
	valid, _ := (&Chunk{File: 3, Origin: 2, Seq: 1, Start: 10, End: 20, Data: []byte{1, 2, 3}}).Marshal()
	f.Add(valid)
	f.Add(make([]byte, BlockSize))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, buf []byte) {
		c, err := UnmarshalChunk(buf)
		if err != nil {
			return
		}
		out, err := c.Marshal()
		if err != nil {
			t.Fatalf("accepted chunk fails to marshal: %v", err)
		}
		back, err := UnmarshalChunk(out)
		if err != nil {
			t.Fatalf("remarshalled block rejected: %v", err)
		}
		if back.File != c.File || back.Seq != c.Seq || len(back.Data) != len(c.Data) {
			t.Fatal("round trip mismatch")
		}
	})
}

// referenceDecodeRecord is DecodeRecord as it stood before its checks
// moved into ParseRecordHeader: the oracle FuzzParseRecordHeader compares
// both against.
func referenceDecodeRecord(buf []byte) (*Chunk, int, error) {
	if len(buf) < headerSize {
		return nil, 0, fmt.Errorf("short record: %d bytes", len(buf))
	}
	n := int(binary.BigEndian.Uint16(buf[28:]))
	if n > PayloadSize {
		return nil, 0, fmt.Errorf("corrupt record: payload length %d", n)
	}
	if len(buf) < headerSize+n {
		return nil, 0, fmt.Errorf("truncated record: %d of %d bytes", len(buf), headerSize+n)
	}
	return &Chunk{
		File:   FileID(binary.BigEndian.Uint32(buf[0:])),
		Origin: int32(binary.BigEndian.Uint32(buf[4:])),
		Seq:    binary.BigEndian.Uint32(buf[8:]),
		Start:  sim.Time(binary.BigEndian.Uint64(buf[12:])),
		End:    sim.Time(binary.BigEndian.Uint64(buf[20:])),
		Data:   append([]byte{}, buf[headerSize:headerSize+n]...),
	}, headerSize + n, nil
}

// FuzzParseRecordHeader feeds arbitrary bytes to the compact-record header
// parse the archive's ingest runs on network input: it and DecodeRecord
// must accept and refuse what the reference does, agree with it on every
// field, the size and the payload, never reach past buf, and an accepted
// record must be canonical — AppendRecord gives back its bytes.
func FuzzParseRecordHeader(f *testing.F) {
	valid, _ := (&Chunk{File: 3, Origin: -2, Seq: 1, Start: 10, End: 20, Data: []byte{1, 2, 3}}).AppendRecord(nil)
	full, _ := (&Chunk{File: 1 << 31, Seq: 1<<32 - 1, Start: -1, Data: make([]byte, PayloadSize)}).AppendRecord(nil)
	f.Add(valid)
	f.Add(full)
	f.Add(append(bytes.Clone(valid), 9, 9)) // bytes after the record are not its business
	f.Add(valid[:len(valid)-1])             // truncated payload
	f.Add(valid[:headerSize-1])             // short header
	f.Add(make([]byte, headerSize))         // empty payload
	over := bytes.Clone(full)
	over[28], over[29] = 0xFF, 0xFF // payload length over PayloadSize
	f.Add(over)
	f.Fuzz(func(t *testing.T, data []byte) {
		// No spare capacity: a slice past the buffer's end panics.
		buf := bytes.Clone(data)[:len(data):len(data)]
		want, wantSize, wantErr := referenceDecodeRecord(data)
		h, size, err := ParseRecordHeader(buf)
		c, consumed, derr := DecodeRecord(buf)
		if (err != nil) != (wantErr != nil) || (derr != nil) != (wantErr != nil) {
			t.Fatalf("ParseRecordHeader: %v, DecodeRecord: %v, reference: %v", err, derr, wantErr)
		}
		if err != nil {
			if size != 0 || consumed != 0 || c != nil || h != (RecordHeader{}) {
				t.Fatalf("refusal returned %+v, %d, %v, %d", h, size, c, consumed)
			}
			return
		}
		if size != wantSize || consumed != wantSize || size != MinRecordSize+h.PayloadLen || size > len(buf) {
			t.Fatalf("size %d, consumed %d, payload %d, reference %d of %d bytes", size, consumed, h.PayloadLen, wantSize, len(buf))
		}
		if h.File != want.File || h.Origin != want.Origin || h.Seq != want.Seq || h.Start != want.Start || h.End != want.End ||
			!bytes.Equal(buf[MinRecordSize:size], want.Data) {
			t.Fatalf("header %+v, reference %+v", h, want)
		}
		if c.File != want.File || c.Origin != want.Origin || c.Seq != want.Seq || c.Start != want.Start || c.End != want.End ||
			!bytes.Equal(c.Data, want.Data) {
			t.Fatalf("chunk %+v, reference %+v", c, want)
		}
		if enc, err := c.AppendRecord(nil); err != nil || !bytes.Equal(enc, data[:size]) {
			t.Fatalf("accepted record is not canonical: %v", err)
		}
	})
}
