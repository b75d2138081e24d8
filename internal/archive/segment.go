package archive

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"enviromic/internal/flash"
)

// Segment log framing. Each appended chunk becomes one frame:
//
//	[u32 payload length][u32 CRC-32 (IEEE) of payload][payload]
//
// where the payload is the chunk's compact record (flash.AppendRecord).
// Frames are self-validating, which is what makes recovery scan-based: on
// open every shard segment is walked front to back and the file is
// truncated at the first frame that is short, oversized, fails its CRC,
// or does not decode — everything before that point survives a torn
// write, everything after it was never acknowledged as durable.
const frameHeaderSize = 8

// appendFrame appends one framed chunk record to dst.
func appendFrame(dst []byte, c *flash.Chunk) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize)...)
	dst, err := c.AppendRecord(dst)
	if err != nil {
		return dst[:start], err
	}
	payload := dst[start+frameHeaderSize:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// MaxFrameBytes is the largest frame: the header plus a full record.
const MaxFrameBytes = frameHeaderSize + flash.MaxRecordSize

// ErrBadFrames is wrapped by every error that refuses a wire body for its
// framing. A body is taken whole or not at all.
var ErrBadFrames = errors.New("archive: malformed frame body")

// EncodeFrames encodes chunks in the archive's wire framing — the same
// bytes the segment log stores — for shipping to a remote archive's
// POST /ingest endpoint or handing to Store.IngestFrames. Nil chunks are
// skipped.
func EncodeFrames(chunks []*flash.Chunk) ([]byte, error) {
	size := 0
	for _, c := range chunks {
		if c != nil {
			size += frameHeaderSize + c.RecordSize()
		}
	}
	buf := make([]byte, 0, size)
	for _, c := range chunks {
		if c == nil {
			continue
		}
		var err error
		if buf, err = appendFrame(buf, c); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// frameRef is one validated frame of a wire body: the record's header
// metadata, and where the whole frame — length, CRC, record — sits.
type frameRef struct {
	flash.RecordHeader
	lo, hi int // the frame is body[lo:hi]
}

// data is the chunk's audio bytes inside body.
func (fr frameRef) data(body []byte) []byte {
	return body[fr.lo+frameHeaderSize+flash.MinRecordSize : fr.hi]
}

// parseFrames walks a wire body (the EncodeFrames / segment-log format)
// and returns one frameRef per frame, copying nothing. Unlike the recovery
// scan, any framing error fails the whole body: an ingest client sending a
// torn stream should hear about it rather than have the tail silently
// dropped. Every frame's length must lie within [MinRecordSize,
// MaxRecordSize] and within the body, its CRC-32 must match, and its
// record must parse and fill the frame exactly.
func parseFrames(body []byte) ([]frameRef, error) {
	// A walk over the length words alone counts the frames, so the slice
	// is allocated once whatever the payload lengths.
	count, _ := framePrefix(body)
	refs := make([]frameRef, 0, count)
	for off := 0; off < len(body); {
		if len(body)-off < frameHeaderSize {
			return nil, fmt.Errorf("%w: truncated frame header at byte %d", ErrBadFrames, off)
		}
		n := int(binary.BigEndian.Uint32(body[off:]))
		sum := binary.BigEndian.Uint32(body[off+4:])
		if n < flash.MinRecordSize || n > flash.MaxRecordSize {
			return nil, fmt.Errorf("%w: frame payload length %d out of range at byte %d", ErrBadFrames, n, off)
		}
		hi := off + frameHeaderSize + n
		if hi > len(body) {
			return nil, fmt.Errorf("%w: truncated frame payload at byte %d", ErrBadFrames, off)
		}
		record := body[off+frameHeaderSize : hi]
		if crc32.ChecksumIEEE(record) != sum {
			return nil, fmt.Errorf("%w: frame CRC mismatch at byte %d", ErrBadFrames, off)
		}
		h, size, err := flash.ParseRecordHeader(record)
		if err == nil && size != n {
			err = fmt.Errorf("record fills %d of the frame's %d bytes", size, n)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: undecodable frame at byte %d: %v", ErrBadFrames, off, err)
		}
		refs = append(refs, frameRef{RecordHeader: h, lo: off, hi: hi})
		off = hi
	}
	return refs, nil
}

// DecodeFrames decodes a wire body into chunks drawn from the chunk pool:
// parseFrames's checks, then one payload copy per frame.
func DecodeFrames(body []byte) ([]*flash.Chunk, error) {
	refs, err := parseFrames(body)
	if err != nil {
		return nil, err
	}
	out := make([]*flash.Chunk, len(refs))
	for i, fr := range refs {
		out[i] = fr.Chunk(fr.data(body))
	}
	return out, nil
}

// scanSegment walks a segment file from byte offset `from`, invoking add
// for every valid frame with the record's header, the file offset of the
// frame payload, and the payload length. It keeps its own frame walk
// because it must stop at a torn tail where parseFrames must fail. It
// returns the absolute offset covered by valid frames; anything past that
// is torn or corrupt and should be truncated away by the caller. A
// snapshot-backed open passes the snapshot's covered offset to replay
// only the tail; a full rebuild passes 0.
func scanSegment(f *os.File, from int64, add func(h flash.RecordHeader, payloadOff int64, payloadLen int32)) (int64, error) {
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return 0, err
	}
	br := bufio.NewReaderSize(f, 256<<10)
	var (
		offset  = from
		hdr     [frameHeaderSize]byte
		payload = make([]byte, flash.MaxRecordSize)
	)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return offset, nil // clean EOF or torn header: stop here
		}
		n := int(binary.BigEndian.Uint32(hdr[:]))
		sum := binary.BigEndian.Uint32(hdr[4:])
		if n < flash.MinRecordSize || n > flash.MaxRecordSize {
			return offset, nil
		}
		if _, err := io.ReadFull(br, payload[:n]); err != nil {
			return offset, nil
		}
		if crc32.ChecksumIEEE(payload[:n]) != sum {
			return offset, nil
		}
		h, consumed, err := flash.ParseRecordHeader(payload[:n])
		if err != nil || consumed != n {
			return offset, nil
		}
		add(h, offset+frameHeaderSize, int32(n))
		offset += int64(frameHeaderSize + n)
	}
}
