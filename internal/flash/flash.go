// Package flash models the mote's local data organization (§III-B.3):
// flash is divided into fixed 256-byte blocks organized as a circular
// queue of recorded chunks. New chunks are enqueued at the tail; chunks
// migrated to neighbors for storage balancing are dequeued from the head,
// so every block receives almost the same number of writes (wear
// levelling, differing by at most one). The queue's head and tail pointers
// are periodically checkpointed to an in-chip EEPROM so that data survives
// node failure and can be retrieved after physical collection.
package flash

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"enviromic/internal/sim"
)

// Block geometry, matching the MicaZ implementation in the paper.
const (
	// BlockSize is the fixed physical block length in bytes.
	BlockSize = 256
	// headerSize is the metadata prefix inside each block: file ID (4),
	// origin (4), sequence (4), start (8), end (8), payload length (2).
	headerSize = 30
	// PayloadSize is the audio payload capacity of one block.
	PayloadSize = BlockSize - headerSize
	// DefaultBlocks is the 0.5 MB MicaZ flash expressed in blocks.
	DefaultBlocks = 512 * 1024 / BlockSize
)

// Sentinel errors.
var (
	// ErrFull is returned by Enqueue when no free block remains.
	ErrFull = errors.New("flash: store full")
	// ErrEmpty is returned by DequeueHead on an empty store.
	ErrEmpty = errors.New("flash: store empty")
	// ErrPayloadTooLarge is returned when a chunk payload exceeds the
	// block payload capacity.
	ErrPayloadTooLarge = errors.New("flash: payload exceeds block capacity")
	// ErrIO is returned when an injected fault (SetWriteFault /
	// SetReadFault) fails the operation; the store is unchanged.
	ErrIO = errors.New("flash: injected I/O error")
)

// FileID identifies one continuous acoustic event's distributed file. IDs
// are assigned by group leaders; ID 0 is reserved for "no file".
type FileID uint32

// Chunk is one recorded block of audio: the unit of storage, migration,
// and retrieval. Each chunk carries the metadata the paper requires for
// post-hoc reassembly: timestamps, the recording node, and the event
// (file) ID (§III-B.3).
type Chunk struct {
	File   FileID
	Origin int32 // recording node ID (maps to a location after collection)
	Seq    uint32
	Start  sim.Time
	End    sim.Time
	Data   []byte
}

// Clone returns a deep copy. Chunks cross node boundaries during
// migration, and the radio model must not alias payloads between motes.
// The copy is drawn from the chunk pool; callers that know the clone's
// lifetime may return it with FreeChunk.
func (c *Chunk) Clone() *Chunk {
	cp := NewChunk()
	cp.File = c.File
	cp.Origin = c.Origin
	cp.Seq = c.Seq
	cp.Start = c.Start
	cp.End = c.End
	cp.Data = append(cp.Data[:0], c.Data...)
	return cp
}

// Marshal encodes the chunk into a fixed 256-byte block image.
func (c *Chunk) Marshal() ([]byte, error) {
	if len(c.Data) > PayloadSize {
		return nil, fmt.Errorf("%w: %d > %d", ErrPayloadTooLarge, len(c.Data), PayloadSize)
	}
	buf := make([]byte, BlockSize)
	binary.BigEndian.PutUint32(buf[0:], uint32(c.File))
	binary.BigEndian.PutUint32(buf[4:], uint32(c.Origin))
	binary.BigEndian.PutUint32(buf[8:], c.Seq)
	binary.BigEndian.PutUint64(buf[12:], uint64(c.Start))
	binary.BigEndian.PutUint64(buf[20:], uint64(c.End))
	binary.BigEndian.PutUint16(buf[28:], uint16(len(c.Data)))
	copy(buf[headerSize:], c.Data)
	return buf, nil
}

// UnmarshalChunk decodes a 256-byte block image produced by Marshal.
func UnmarshalChunk(buf []byte) (*Chunk, error) {
	if len(buf) != BlockSize {
		return nil, fmt.Errorf("flash: block image is %d bytes, want %d", len(buf), BlockSize)
	}
	n := binary.BigEndian.Uint16(buf[28:])
	if int(n) > PayloadSize {
		return nil, fmt.Errorf("flash: corrupt block: payload length %d", n)
	}
	c := NewChunk()
	c.File = FileID(binary.BigEndian.Uint32(buf[0:]))
	c.Origin = int32(binary.BigEndian.Uint32(buf[4:]))
	c.Seq = binary.BigEndian.Uint32(buf[8:])
	c.Start = sim.Time(binary.BigEndian.Uint64(buf[12:]))
	c.End = sim.Time(binary.BigEndian.Uint64(buf[20:]))
	c.Data = append(c.Data[:0], buf[headerSize:headerSize+int(n)]...)
	return c, nil
}

// RecordSize returns the compact wire/disk size of the chunk: the 30-byte
// metadata header plus the actual payload, with none of the block padding
// Marshal adds. The basestation archive stores chunks in this form.
func (c *Chunk) RecordSize() int { return headerSize + len(c.Data) }

// MinRecordSize is the smallest valid compact record (empty payload).
const MinRecordSize = headerSize

// MaxRecordSize is the largest valid compact record (full payload).
const MaxRecordSize = headerSize + PayloadSize

// AppendRecord appends the chunk's compact encoding — the Marshal header
// layout followed by exactly len(Data) payload bytes, no padding — to dst
// and returns the extended slice. It is the archive's segment-log codec;
// DecodeRecord reverses it.
func (c *Chunk) AppendRecord(dst []byte) ([]byte, error) {
	if len(c.Data) > PayloadSize {
		return dst, fmt.Errorf("%w: %d > %d", ErrPayloadTooLarge, len(c.Data), PayloadSize)
	}
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(c.File))
	binary.BigEndian.PutUint32(hdr[4:], uint32(c.Origin))
	binary.BigEndian.PutUint32(hdr[8:], c.Seq)
	binary.BigEndian.PutUint64(hdr[12:], uint64(c.Start))
	binary.BigEndian.PutUint64(hdr[20:], uint64(c.End))
	binary.BigEndian.PutUint16(hdr[28:], uint16(len(c.Data)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, c.Data...)
	return dst, nil
}

// RecordHeader is the metadata at the head of a compact record: every
// Chunk field but the payload, which follows it as PayloadLen bytes.
type RecordHeader struct {
	File       FileID
	Origin     int32
	Seq        uint32
	Start      sim.Time
	End        sim.Time
	PayloadLen int
}

// ParseRecordHeader validates the compact record at the front of buf and
// returns its header and total size without copying anything. A buffer
// that is too short for the declared payload is an error (a truncated
// record), as is a payload length over PayloadSize. The payload is
// buf[MinRecordSize:size].
func ParseRecordHeader(buf []byte) (h RecordHeader, size int, err error) {
	if len(buf) < headerSize {
		return h, 0, fmt.Errorf("flash: short record: %d bytes", len(buf))
	}
	n := int(binary.BigEndian.Uint16(buf[28:]))
	if n > PayloadSize {
		return h, 0, fmt.Errorf("flash: corrupt record: payload length %d", n)
	}
	if len(buf) < headerSize+n {
		return h, 0, fmt.Errorf("flash: truncated record: %d of %d bytes", len(buf), headerSize+n)
	}
	h = RecordHeader{
		File:       FileID(binary.BigEndian.Uint32(buf[0:])),
		Origin:     int32(binary.BigEndian.Uint32(buf[4:])),
		Seq:        binary.BigEndian.Uint32(buf[8:]),
		Start:      sim.Time(binary.BigEndian.Uint64(buf[12:])),
		End:        sim.Time(binary.BigEndian.Uint64(buf[20:])),
		PayloadLen: n,
	}
	return h, headerSize + n, nil
}

// DecodeRecord decodes one compact record from the front of buf, returning
// the chunk and the number of bytes consumed: ParseRecordHeader's checks,
// then RecordHeader.Chunk's payload copy.
func DecodeRecord(buf []byte) (*Chunk, int, error) {
	h, size, err := ParseRecordHeader(buf)
	if err != nil {
		return nil, 0, err
	}
	return h.Chunk(buf[headerSize:size]), size, nil
}

// Chunk builds the record's chunk from its header and a copy of payload,
// drawn from the chunk pool.
func (h RecordHeader) Chunk(payload []byte) *Chunk {
	c := NewChunk()
	c.File, c.Origin, c.Seq, c.Start, c.End = h.File, h.Origin, h.Seq, h.Start, h.End
	c.Data = append(c.Data[:0], payload...)
	return c
}

// Store is the circular block queue. The zero value is unusable; use
// NewStore. Store is not safe for concurrent use (the simulation is
// single-threaded).
type Store struct {
	// blocks is the physical flash array: one chunk slot per block.
	blocks []*Chunk
	// head is the physical index of the oldest chunk; tail the next
	// write position. count disambiguates full from empty.
	head, tail, count int
	// wear counts writes per physical block.
	wear []uint64
	// CheckpointEvery saves head/tail to EEPROM after this many writes
	// or dequeues; 1 checkpoints on every mutation.
	CheckpointEvery int
	mutsSinceCkpt   int
	eeprom          checkpoint
	totalWrites     uint64

	// writeFault/readFault, when non-nil, are consulted before each
	// Enqueue/DequeueHead; returning true fails the operation with ErrIO
	// (chaos flash-error injection). Nil hooks cost one branch.
	writeFault func() bool
	readFault  func() bool
}

// checkpoint is the EEPROM image: queue pointers only (the chunk data
// itself lives in flash and survives a crash).
type checkpoint struct {
	head, tail, count int
	valid             bool
}

// NewStore returns a store with the given number of 256-byte blocks.
func NewStore(numBlocks int) *Store {
	if numBlocks <= 0 {
		panic("flash: store needs at least one block")
	}
	s := &Store{
		blocks:          make([]*Chunk, numBlocks),
		wear:            make([]uint64, numBlocks),
		CheckpointEvery: 16,
	}
	s.saveCheckpoint()
	return s
}

// Cap returns capacity in blocks.
func (s *Store) Cap() int { return len(s.blocks) }

// Len returns the number of stored chunks.
func (s *Store) Len() int { return s.count }

// Free returns the number of free blocks.
func (s *Store) Free() int { return len(s.blocks) - s.count }

// BytesUsed returns occupied bytes at block granularity (what the TTL
// metric consumes).
func (s *Store) BytesUsed() int { return s.count * BlockSize }

// BytesFree returns free bytes at block granularity.
func (s *Store) BytesFree() int { return s.Free() * BlockSize }

// TotalWrites returns the number of block writes ever performed.
func (s *Store) TotalWrites() uint64 { return s.totalWrites }

// SetWriteFault installs (or, with nil, removes) a hook consulted before
// every Enqueue; returning true fails the write with ErrIO. The hook owns
// its randomness — the store never draws from the simulation RNG.
func (s *Store) SetWriteFault(f func() bool) { s.writeFault = f }

// SetReadFault installs (or, with nil, removes) the DequeueHead
// counterpart of SetWriteFault.
func (s *Store) SetReadFault(f func() bool) { s.readFault = f }

// Enqueue appends a chunk at the tail. It returns ErrFull when flash is
// saturated, ErrPayloadTooLarge for oversized payloads, and ErrIO when an
// injected write fault fires; the store is unchanged in all three cases.
func (s *Store) Enqueue(c *Chunk) error {
	if len(c.Data) > PayloadSize {
		return fmt.Errorf("%w: %d > %d", ErrPayloadTooLarge, len(c.Data), PayloadSize)
	}
	if s.count == len(s.blocks) {
		return ErrFull
	}
	if s.writeFault != nil && s.writeFault() {
		return ErrIO
	}
	s.blocks[s.tail] = c
	s.wear[s.tail]++
	s.totalWrites++
	s.tail = (s.tail + 1) % len(s.blocks)
	s.count++
	s.mutated()
	return nil
}

// DequeueHead removes and returns the oldest chunk (the migration source
// position, so all blocks wear evenly).
func (s *Store) DequeueHead() (*Chunk, error) {
	if s.count == 0 {
		return nil, ErrEmpty
	}
	if s.readFault != nil && s.readFault() {
		return nil, ErrIO
	}
	c := s.blocks[s.head]
	s.blocks[s.head] = nil
	s.head = (s.head + 1) % len(s.blocks)
	s.count--
	s.mutated()
	return c, nil
}

// PeekHead returns the oldest chunk without removing it.
func (s *Store) PeekHead() (*Chunk, error) {
	if s.count == 0 {
		return nil, ErrEmpty
	}
	return s.blocks[s.head], nil
}

// Chunks returns the stored chunks in queue order (oldest first). The
// returned slice is freshly allocated; the chunks themselves are shared.
func (s *Store) Chunks() []*Chunk {
	return s.AppendChunks(make([]*Chunk, 0, s.count))
}

// AppendChunks appends the store's contents, head first, to dst and
// returns the extended slice. Callers on hot sampling paths pass a
// reused scratch slice (dst[:0]) to avoid the per-call allocation of
// Chunks.
func (s *Store) AppendChunks(dst []*Chunk) []*Chunk {
	for i := 0; i < s.count; i++ {
		dst = append(dst, s.blocks[(s.head+i)%len(s.blocks)])
	}
	return dst
}

// WearSpread returns max−min of per-block write counts. The circular
// layout guarantees it never exceeds 1 plus the spread introduced by the
// initial empty state.
func (s *Store) WearSpread() uint64 {
	if len(s.wear) == 0 {
		return 0
	}
	min, max := s.wear[0], s.wear[0]
	for _, w := range s.wear[1:] {
		if w < min {
			min = w
		}
		if w > max {
			max = w
		}
	}
	return max - min
}

func (s *Store) mutated() {
	s.mutsSinceCkpt++
	if s.mutsSinceCkpt >= s.CheckpointEvery {
		s.saveCheckpoint()
	}
}

// saveCheckpoint writes the queue pointers to the EEPROM image.
func (s *Store) saveCheckpoint() {
	s.eeprom = checkpoint{head: s.head, tail: s.tail, count: s.count, valid: true}
	s.mutsSinceCkpt = 0
}

// Checkpoint forces an immediate EEPROM save (used at controlled
// shutdown).
func (s *Store) Checkpoint() { s.saveCheckpoint() }

// Crash simulates abrupt power loss: the volatile head/tail/count are
// discarded and must be restored from the last EEPROM checkpoint. The
// flash array itself (the chunks) survives. Recover returns the number of
// chunks recovered; chunks enqueued after the last checkpoint may be lost
// (their blocks are physically present but outside the recovered window),
// matching the paper's "we can still correctly retrieve its locally stored
// data after the node is collected" guarantee.
func (s *Store) Crash() {
	s.head, s.tail, s.count = 0, 0, 0
}

// Recover restores the queue pointers from EEPROM after Crash.
func (s *Store) Recover() (int, error) {
	if !s.eeprom.valid {
		return 0, errors.New("flash: no valid EEPROM checkpoint")
	}
	s.head, s.tail, s.count = s.eeprom.head, s.eeprom.tail, s.eeprom.count
	// Drop slots that the checkpointed window claims but that were
	// dequeued after the checkpoint (nil entries): compact the window to
	// the chunks that really exist.
	live := 0
	for i := 0; i < s.count; i++ {
		if s.blocks[(s.head+i)%len(s.blocks)] != nil {
			live++
		}
	}
	if live != s.count {
		// Rebuild a dense queue of surviving chunks.
		var kept []*Chunk
		for i := 0; i < s.count; i++ {
			if c := s.blocks[(s.head+i)%len(s.blocks)]; c != nil {
				kept = append(kept, c)
			}
		}
		for i := range s.blocks {
			s.blocks[i] = nil
		}
		s.head, s.tail, s.count = 0, 0, 0
		for _, c := range kept {
			s.blocks[s.tail] = c
			s.tail = (s.tail + 1) % len(s.blocks)
			s.count++
		}
	}
	s.saveCheckpoint()
	return s.count, nil
}

// Remove deletes every stored chunk for which match returns true and
// returns the removed chunks in queue order (callers typically recycle
// them). Survivors are compacted into a dense queue ENDING at the
// current tail, so tail keeps advancing monotonically mod N across
// removals and the circular log's wear-leveling guarantee (spread <= 1)
// survives; removal only rewrites the RAM block map and the EEPROM
// checkpoint, never the flash blocks, so no wear is charged. The
// dispersal mode uses it to drop a fragment's originals once a neighbor
// has acknowledged the whole fragment.
func (s *Store) Remove(match func(*Chunk) bool) []*Chunk {
	if s.count == 0 {
		return nil
	}
	var removed, kept []*Chunk
	for i := 0; i < s.count; i++ {
		c := s.blocks[(s.head+i)%len(s.blocks)]
		if c != nil && match(c) {
			removed = append(removed, c)
		} else if c != nil {
			kept = append(kept, c)
		}
	}
	if len(removed) == 0 {
		return nil
	}
	for i := range s.blocks {
		s.blocks[i] = nil
	}
	n := len(s.blocks)
	s.count = len(kept)
	s.head = ((s.tail-s.count)%n + n) % n
	pos := s.head
	for _, c := range kept {
		s.blocks[pos] = c
		pos = (pos + 1) % n
	}
	s.saveCheckpoint()
	return removed
}

// SplitSamples segments a recorded sample stream into chunk payloads of at
// most PayloadSize bytes, assigning sequence numbers from firstSeq and
// proportional timestamp ranges across [start, end). It is the bridge
// between the sampler and the store.
func SplitSamples(file FileID, origin int32, firstSeq uint32, start, end sim.Time, samples []byte) []*Chunk {
	if len(samples) == 0 {
		return nil
	}
	if end < start {
		panic("flash: SplitSamples with end before start")
	}
	total := len(samples)
	span := end.Sub(start)
	var chunks []*Chunk
	for off := 0; off < total; off += PayloadSize {
		hi := off + PayloadSize
		if hi > total {
			hi = total
		}
		cs := start.Add(time.Duration(int64(span) * int64(off) / int64(total)))
		ce := start.Add(time.Duration(int64(span) * int64(hi) / int64(total)))
		c := NewChunk()
		c.File = file
		c.Origin = origin
		c.Seq = firstSeq + uint32(len(chunks))
		c.Start = cs
		c.End = ce
		c.Data = append(c.Data[:0], samples[off:hi]...)
		chunks = append(chunks, c)
	}
	return chunks
}
