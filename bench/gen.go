package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"enviromic/internal/archive"
	"enviromic/internal/flash"
	"enviromic/internal/mote"
	"enviromic/internal/retrieval"
	"enviromic/internal/sim"
	"enviromic/internal/trace"
	"enviromic/internal/wav"
)

// Shape of the generated archive data set. A chunk is one full flash
// payload, so a file of n chunks is n × 82.8 ms of audio.
const (
	minFileChunks = 24  // 2 s
	maxFileChunks = 720 // 60 s
	timelineSpan  = time.Hour
	queryWindow   = time.Minute
	truncatedLen  = 100 // payload bytes of a partially heard chunk
	poolBytes     = 1 << 20
)

// chunkDur is the audio time one full payload covers, to the nanosecond.
var chunkDur = time.Duration(math.Round(flash.PayloadSize / mote.DefaultSampleRate * 1e9))

// fileSpec is one generated file: Chunks contiguous chunks starting at
// Start, recorded by up to three motes handing off in turn.
type fileSpec struct {
	ID      flash.FileID
	Start   sim.Time
	Chunks  int
	Origins []int32
}

func (f *fileSpec) end() sim.Time { return f.Start.Add(time.Duration(f.Chunks) * chunkDur) }

// dataset is a seeded set of files. Payloads are slices of one random
// pool, so producing a chunk costs no copying and the oracle can produce
// the same bytes again.
type dataset struct {
	files []fileSpec
	pool  []byte
}

// meanFileChunks is the mean of the log-uniform length distribution.
var meanFileChunks = float64(maxFileChunks-minFileChunks) / math.Log(float64(maxFileChunks)/float64(minFileChunks))

// newDataset draws n files with IDs from firstID up. Lengths are
// log-uniform between minFileChunks and maxFileChunks, laid out by the
// golden-ratio sequence and not by the seed: every seed archives the
// same multiset of lengths, evenly mixed along the IDs, so how much the
// archive holds, how far it overflows the cache and how long the hot
// files are do not change from seed to seed. What the seed draws is
// where each file lies on the timeline, who recorded it and its bytes.
func newDataset(seed int64, n int, firstID flash.FileID) *dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset{files: make([]fileSpec, n), pool: make([]byte, poolBytes)}
	rng.Read(d.pool)
	ratio := math.Log(float64(maxFileChunks) / float64(minFileChunks))
	for i := range d.files {
		f := &d.files[i]
		f.ID = firstID + flash.FileID(i)
		f.Start = sim.At(time.Duration(rng.Int63n(int64(timelineSpan))))
		_, u := math.Modf(float64(i+1) * math.Phi)
		f.Chunks = int(float64(minFileChunks) * math.Exp(u*ratio))
		f.Origins = make([]int32, 1+rng.Intn(3))
		for j := range f.Origins {
			f.Origins[j] = int32(1 + rng.Intn(500))
		}
	}
	return d
}

// chunk returns chunk i of file f at full length.
func (d *dataset) chunk(f *fileSpec, i int) *flash.Chunk {
	start := f.Start.Add(time.Duration(i) * chunkDur)
	off := int((uint64(f.ID)*2654435761 + uint64(i)*40503) % uint64(poolBytes-flash.PayloadSize))
	return &flash.Chunk{
		File:   f.ID,
		Origin: f.Origins[i*len(f.Origins)/f.Chunks],
		Seq:    uint32(i),
		Start:  start,
		End:    start.Add(chunkDur),
		Data:   d.pool[off : off+flash.PayloadSize],
	}
}

func (d *dataset) fileChunks(f *fileSpec) []*flash.Chunk {
	out := make([]*flash.Chunk, f.Chunks)
	for i := range out {
		out[i] = d.chunk(f, i)
	}
	return out
}

func (d *dataset) payloadBytes() int64 {
	var n int64
	for i := range d.files {
		n += int64(d.files[i].Chunks) * flash.PayloadSize
	}
	return n
}

// ingestBodies encodes the files in order as POST /ingest bodies of at
// most `batch` chunks each.
func (d *dataset) ingestBodies(files []fileSpec, batch int) ([][]byte, error) {
	var bodies [][]byte
	pending := make([]*flash.Chunk, 0, batch)
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		body, err := archive.EncodeFrames(pending)
		bodies = append(bodies, body)
		pending = pending[:0]
		return err
	}
	for i := range files {
		for j := 0; j < files[i].Chunks; j++ {
			pending = append(pending, d.chunk(&files[i], j))
			if len(pending) == batch {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
	}
	return bodies, flush()
}

// oracleWAV renders chunks the way the service should: reassemble,
// stitch, encode. It is the reference the served bytes are compared to.
func oracleWAV(id flash.FileID, chunks []*flash.Chunk) []byte {
	f := retrieval.Reassemble(map[int][]*flash.Chunk{0: chunks}, retrieval.Query{All: true})[id]
	var buf bytes.Buffer
	if err := wav.Write(&buf, trace.Stitch(f, mote.DefaultSampleRate), int(mote.DefaultSampleRate)); err != nil {
		return nil
	}
	return buf.Bytes()
}

// queryCount is the oracle for /query: files overlapping [from, to),
// optionally recorded in part by one of the origins.
func (d *dataset) queryCount(from, to sim.Time, origins []int32) int {
	n := 0
	for i := range d.files {
		f := &d.files[i]
		if f.Start >= to || f.end() <= from {
			continue
		}
		if len(origins) > 0 && !sharesOrigin(f.Origins, origins) {
			continue
		}
		n++
	}
	return n
}

func sharesOrigin(a, b []int32) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

type reqKind uint8

const (
	reqWAV reqKind = iota
	reqQuery
	reqGaps
	reqFile
)

var reqKindNames = [...]string{"wav", "query", "gaps", "file"}

// request is one scheduled read. The file is chosen when the request is
// sent, from however many files are readable by then (all of them,
// except beside a writer): a Zipf draw keeps its rank, so the hot set
// is the lowest-numbered files; a uniform draw scales to the set.
type request struct {
	Kind    reqKind
	Rank    int     // Zipf rank, or -1 for a uniform position
	U       float64 // uniform position in [0,1)
	From    sim.Time
	Origins bool // /query narrowed to the chosen file's origins
}

// newSchedule lays out n reads. The kinds follow a fixed pattern of
// eight — half /wav, a quarter /query (every fourth with origins=), an
// eighth each /gaps and /files/{id} — and within each kind the file
// choice alternates between a Zipf(1.1) rank and a uniform position.
// None of the choices is an independent draw: the ranks, the uniform
// positions and the query windows of a kind each walk [0,1) by a
// low-discrepancy step from a seeded start, so that any stretch of the
// schedule, in any seed, asks for hot and cold, long and short files and
// busy and quiet windows in the same proportion. A /query costs many
// times a /gaps and a cold 60 s file thirty times a cold 2 s one: left
// to chance, those proportions put the luck of the draw into every rate
// and percentile, most of all where a phase holds a few hundred requests.
// What the seed decides is where each walk starts.
func newSchedule(seed int64, n, files int) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x5ced))
	// cdf[k] is the probability of a rank at or below k: P(k) ∝ (1+k)^-1.1.
	cdf := make([]float64, files)
	var total float64
	for k := range cdf {
		total += math.Pow(float64(1+k), -1.1)
		cdf[k] = total
	}
	pattern := [8]reqKind{reqWAV, reqQuery, reqWAV, reqGaps, reqWAV, reqQuery, reqWAV, reqFile}
	var seen [4]int
	var startU, startZ [4]float64
	for k := range startU {
		startU[k], startZ[k] = rng.Float64(), rng.Float64()
	}
	startQ := rng.Float64()
	walk := func(start float64, i int, step float64) float64 {
		_, u := math.Modf(start + float64(i)*step)
		return u
	}
	out := make([]request, n)
	for i := range out {
		r := &out[i]
		r.Kind = pattern[i%len(pattern)]
		nth := seen[r.Kind]
		seen[r.Kind]++
		if r.Kind == reqQuery {
			r.Origins = nth%4 == 3
			r.From = sim.At(time.Duration(walk(startQ, nth, math.E-2) * float64(timelineSpan-queryWindow)))
		}
		r.U = walk(startU[r.Kind], nth/2, math.Sqrt2-1)
		if r.Rank = -1; nth%2 == 0 {
			r.Rank = sort.SearchFloat64s(cdf, walk(startZ[r.Kind], nth/2, math.Phi-1)*total)
			if r.Rank >= files {
				r.Rank = files - 1
			}
		}
	}
	return out
}

// fileIndex resolves the request's file among `readable` files.
func (r *request) fileIndex(readable int) int {
	if r.Rank >= 0 {
		return r.Rank % readable
	}
	return int(r.U * float64(readable))
}

// path is the URL path and query of the request against file f.
func (r *request) path(f *fileSpec) string {
	switch r.Kind {
	case reqWAV:
		return fmt.Sprintf("/files/%d/wav", f.ID)
	case reqGaps:
		return fmt.Sprintf("/files/%d/gaps", f.ID)
	case reqFile:
		return fmt.Sprintf("/files/%d", f.ID)
	}
	p := fmt.Sprintf("/query?from=%dns&to=%dns", int64(r.From), int64(r.From.Add(queryWindow)))
	if r.Origins {
		strs := make([]string, len(f.Origins))
		for i, o := range f.Origins {
			strs[i] = fmt.Sprint(o)
		}
		p += "&origins=" + strings.Join(strs, ",")
	}
	return p
}

// scheduleHash fingerprints a schedule against a static file set, for
// the determinism test and the run header.
func scheduleHash(d *dataset, sched []request) uint32 {
	h := crc32.NewIEEE()
	for i := range sched {
		f := &d.files[sched[i].fileIndex(len(d.files))]
		h.Write([]byte(sched[i].path(f)))
	}
	return h.Sum32()
}

// tourStream is the fixed write load of archive-mixed: mule tours over
// successive stripes of a file set, posted as /ingest bodies. A tour
// brings its own stripe for the first time — a share of the chunks only
// partly heard, so truncated — and, spread evenly among those, what it
// heard again of the stripe before it: exact duplicates, and the full
// copies that supersede the truncated ones. Any stretch of the stream
// therefore holds first-time chunks, duplicates and supersessions in the
// same proportion. A last tour revisits the last stripe, so in the end
// every chunk is archived at full length.
type tourStream struct {
	set    *dataset
	bodies [][]byte
	// payload[b] is the chunk payload bytes in body b; readable[b] is how
	// many of the set's files have been sent in full once body b is
	// acknowledged.
	payload  []int64
	readable []int
	// Counts over the whole stream.
	chunks, duplicates, supersedes int
}

const (
	tourStripes    = 8
	dupShare       = 0.25 // of all chunks sent
	supersedeShare = 0.05
)

// newTourStream builds a stream of about `chunks` chunks in bodies of
// `batch` chunks.
func newTourStream(seed int64, chunks, batch int, firstID flash.FileID) (*tourStream, error) {
	// Each first-time chunk is sent 1/(1-dup-supersede) times on average.
	unique := float64(chunks) * (1 - dupShare - supersedeShare)
	nFiles := int(unique/meanFileChunks) + 1
	if nFiles < tourStripes {
		nFiles = tourStripes
	}
	ts := &tourStream{set: newDataset(seed^0x70a5, nFiles, firstID)}
	rng := rand.New(rand.NewSource(seed ^ 0x57e4))
	pTrunc := supersedeShare / (1 - dupShare - supersedeShare)
	pDup := dupShare / (1 - dupShare - supersedeShare)

	pending := make([]*flash.Chunk, 0, batch)
	var pendingBytes int64
	filesSent := 0
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		body, err := archive.EncodeFrames(pending)
		if err != nil {
			return err
		}
		ts.bodies = append(ts.bodies, body)
		ts.payload = append(ts.payload, pendingBytes)
		ts.readable = append(ts.readable, filesSent)
		pending, pendingBytes = pending[:0], 0
		return nil
	}
	emit := func(c *flash.Chunk) error {
		pending = append(pending, c)
		pendingBytes += int64(len(c.Data))
		ts.chunks++
		if len(pending) == batch {
			return flush()
		}
		return nil
	}

	var revisit []*flash.Chunk // full copies to send on the next tour
	for tour := 0; tour <= tourStripes; tour++ {
		var next []*flash.Chunk
		lo, hi := nFiles, nFiles
		if tour < tourStripes {
			lo, hi = tour*nFiles/tourStripes, (tour+1)*nFiles/tourStripes
		}
		stripe, sent, revisited := 0, 0, 0
		for i := lo; i < hi; i++ {
			stripe += ts.set.files[i].Chunks
		}
		for i := lo; i < hi; i++ {
			f := &ts.set.files[i]
			for j := 0; j < f.Chunks; j++ {
				c := ts.set.chunk(f, j)
				switch r := rng.Float64(); {
				case r < pTrunc:
					next = append(next, c)
					short := *c
					short.Data = c.Data[:truncatedLen]
					c = &short
					ts.supersedes++
				case r < pTrunc+pDup:
					next = append(next, c)
					ts.duplicates++
				}
				if err := emit(c); err != nil {
					return nil, err
				}
				for sent++; revisited < len(revisit)*sent/stripe; revisited++ {
					if err := emit(revisit[revisited]); err != nil {
						return nil, err
					}
				}
			}
			// The file counts as readable with the body that carries its
			// last chunk; a body cut exactly here is already flushed, so
			// the next one reports it.
			filesSent++
		}
		for _, c := range revisit[revisited:] {
			if err := emit(c); err != nil {
				return nil, err
			}
		}
		revisit = next
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return ts, nil
}

// streamHash fingerprints the encoded bodies.
func streamHash(bodies [][]byte) uint32 {
	h := crc32.NewIEEE()
	for _, b := range bodies {
		h.Write(b)
	}
	return h.Sum32()
}
