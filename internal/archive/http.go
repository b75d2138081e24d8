package archive

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"enviromic/internal/erasure"
	"enviromic/internal/flash"
	"enviromic/internal/mote"
	"enviromic/internal/retrieval"
	"enviromic/internal/sim"
	"enviromic/internal/trace"
	"enviromic/internal/wav"
)

// LocalHeader marks a request that must be answered from the local store
// only: fan-out requests carry it, so a peer never re-fans-out.
// PartialHeader names the peers a federated response is missing; its
// absence means the answer covers every healthy station.
const (
	LocalHeader   = "X-Enviromic-Local"
	PartialHeader = "X-Federation-Partial"
)

// Source is what the read endpoints answer from: the local store, or a
// federation's merged view of several. Each method is a Store read
// (Detail is Info + File, Audio is FileErasure) plus the names of the
// stations whose holdings are missing from the answer — none, for a
// single store.
type Source interface {
	Files(ctx context.Context) (infos []FileInfo, missing []string)
	Query(ctx context.Context, from, to sim.Time, origins map[int32]bool) (infos []FileInfo, missing []string)
	// Detail's chunks are in span order: by (start, origin, seq).
	Detail(ctx context.Context, id flash.FileID) (fi FileInfo, chunks []ChunkKey, missing []string, err error)
	Gaps(ctx context.Context, id flash.FileID, tolerance time.Duration) (gaps []Gap, missing []string, err error)
	// Audio's file is erasure-decoded, and shared: read-only.
	Audio(ctx context.Context, id flash.FileID) (f *retrieval.File, missing []string, err error)
}

// NewHandler returns the archive's HTTP query service:
//
//	GET  /files                       list archived files
//	GET  /files/{id}                  one file's summary + chunk metadata
//	GET  /files/{id}/gaps?tolerance=  coverage gaps + the gap re-query
//	GET  /files/{id}/wav?rate=        reassembled audio as a WAV download
//	GET  /query?from=&to=&origins=    interval + origin query
//	POST /ingest                      framed chunk records (EncodeFrames), at most MaxIngestBytes,
//	                                  appended as they arrive; 400/413 ingest nothing
//	POST /compact                     reclaim superseded segment bytes
//	GET  /stats                       store totals, cache, op counters
//	GET  /repl/status                 per-shard generation + size (replication source state)
//	GET  /repl/delta?cursor=&max=&wait=
//	                                  next replication batch (segment frames); with wait, an
//	                                  empty batch is held until the store changes, at most wait
//	GET  /repl/manifest               every file's chunk keys (EncodeManifest), ETag = Store.ManifestTag;
//	                                  If-None-Match with the current tag answers an empty 304
//	GET  /repl/file/{id}              one file's chunks in wire framing
//
// The five read endpoints answer from federated unless it is nil (a
// station with no peers) or the request carries LocalHeader; then, like
// every other endpoint, from s.
//
// Times in query parameters are Go durations since simulation start
// ("90s", "1m30s") or bare seconds ("90", "90.5"). The handler is safe
// for concurrent use; mount it under "/" next to pprof/expvar the same
// way enviromic-sim's -http debug mux is wired.
func NewHandler(s *Store, federated Source) http.Handler {
	h := &handler{store: s, federated: federated, maxIngest: MaxIngestBytes}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /files", h.files)
	mux.HandleFunc("GET /files/{id}", h.file)
	mux.HandleFunc("GET /files/{id}/gaps", h.gaps)
	mux.HandleFunc("GET /files/{id}/wav", h.wav)
	mux.HandleFunc("GET /query", h.query)
	mux.HandleFunc("POST /ingest", h.ingest)
	mux.HandleFunc("POST /compact", h.compact)
	mux.HandleFunc("GET /stats", h.stats)
	mux.HandleFunc("GET /repl/status", h.replStatus)
	mux.HandleFunc("GET /repl/delta", h.replDelta)
	mux.HandleFunc("GET /repl/manifest", h.replManifest)
	mux.HandleFunc("GET /repl/file/{id}", h.replFile)
	return mux
}

type handler struct {
	store     *Store
	federated Source // nil: no peers
	maxIngest int64  // MaxIngestBytes; a field so a test can reach the bound
}

func (h *handler) source(r *http.Request) Source {
	if h.federated == nil || r.Header.Get(LocalHeader) != "" {
		return localSource{h.store}
	}
	return h.federated
}

type localSource struct{ s *Store }

func (l localSource) Files(context.Context) ([]FileInfo, []string) { return l.s.Files(), nil }

func (l localSource) Query(_ context.Context, from, to sim.Time, origins map[int32]bool) ([]FileInfo, []string) {
	return l.s.Query(from, to, origins), nil
}

func (l localSource) Detail(_ context.Context, id flash.FileID) (FileInfo, []ChunkKey, []string, error) {
	fi, err := l.s.Info(id)
	if err != nil {
		return FileInfo{}, nil, nil, err
	}
	f, err := l.s.File(id)
	if err != nil {
		return FileInfo{}, nil, nil, err
	}
	chunks := make([]ChunkKey, len(f.Chunks))
	for i, c := range f.Chunks {
		chunks[i] = ChunkKey{Origin: c.Origin, Seq: c.Seq, Start: int64(c.Start), End: int64(c.End), Bytes: int64(len(c.Data))}
	}
	return fi, chunks, nil, nil
}

func (l localSource) Gaps(_ context.Context, id flash.FileID, tolerance time.Duration) ([]Gap, []string, error) {
	gaps, err := l.s.Gaps(id, tolerance)
	return gaps, nil, err
}

func (l localSource) Audio(_ context.Context, id flash.FileID) (*retrieval.File, []string, error) {
	f, _, err := l.s.FileErasure(id)
	return f, nil, err
}

// EndpointOf maps an archive request to its route pattern ("/files/{id}/wav"
// rather than the concrete path) so the telemetry middleware's per-endpoint
// series stay low-cardinality; /metrics and a station's /federation are
// mounted beside the handler. Unknown paths collapse to "other".
func EndpointOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/files":
		return "/files"
	case strings.HasPrefix(p, "/files/"):
		switch {
		case strings.HasSuffix(p, "/gaps"):
			return "/files/{id}/gaps"
		case strings.HasSuffix(p, "/wav"):
			return "/files/{id}/wav"
		default:
			return "/files/{id}"
		}
	case strings.HasPrefix(p, "/repl/"):
		switch {
		case p == "/repl/status", p == "/repl/delta", p == "/repl/manifest":
			return p
		default:
			return "/repl/file/{id}"
		}
	case p == "/query", p == "/ingest", p == "/compact", p == "/stats", p == "/metrics", p == "/federation":
		return p
	default:
		return "other"
	}
}

// FileInfoJSON is FileInfo in response form: times both as raw
// nanoseconds (machine use) and seconds (human use).
type FileInfoJSON struct {
	ID       flash.FileID `json:"id"`
	Start    int64        `json:"start_ns"`
	End      int64        `json:"end_ns"`
	StartSec float64      `json:"start_s"`
	EndSec   float64      `json:"end_s"`
	Chunks   int          `json:"chunks"`
	Bytes    int64        `json:"bytes"`
	Origins  []int32      `json:"origins"`
	Gaps     int          `json:"gaps"`
}

func InfoJSON(fi FileInfo) FileInfoJSON {
	origins := fi.Origins
	if origins == nil {
		origins = []int32{}
	}
	return FileInfoJSON{
		ID: fi.ID, Start: int64(fi.Start), End: int64(fi.End),
		StartSec: fi.Start.Seconds(), EndSec: fi.End.Seconds(),
		Chunks: fi.Chunks, Bytes: fi.Bytes, Origins: origins, Gaps: fi.Gaps,
	}
}

type chunkJSON struct {
	Origin   int32   `json:"origin"`
	Seq      uint32  `json:"seq"`
	StartSec float64 `json:"start_s"`
	EndSec   float64 `json:"end_s"`
	Bytes    int64   `json:"bytes"`
}

type gapJSON struct {
	StartSec float64 `json:"start_s"`
	EndSec   float64 `json:"end_s"`
	Seconds  float64 `json:"seconds"`
}

func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeInfos(w http.ResponseWriter, infos []FileInfo) {
	out := make([]FileInfoJSON, 0, len(infos))
	for _, fi := range infos {
		out = append(out, InfoJSON(fi))
	}
	WriteJSON(w, out)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// stampPartial writes the partial contract: the stations a Source said its
// answer is missing. It must run before any body, whatever the status.
func stampPartial(w http.ResponseWriter, missing []string) {
	if len(missing) > 0 {
		w.Header().Set(PartialHeader, strings.Join(missing, ","))
	}
}

// readOK starts the response to a read of file id: the partial contract,
// then, if the read failed, its error — 404 for ErrNotFound, 500 for
// anything else — and false.
func readOK(w http.ResponseWriter, id flash.FileID, missing []string, err error) bool {
	stampPartial(w, missing)
	switch {
	case errors.Is(err, ErrNotFound):
		httpError(w, http.StatusNotFound, "file %d not found", id)
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
	return err == nil
}

// parseTime accepts a Go duration ("90s") or bare seconds ("90.5") since
// simulation start.
func parseTime(s string) (sim.Time, error) {
	if s == "" {
		return 0, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		return sim.At(d), nil
	}
	// Seconds must land inside int64 nanoseconds; the comparisons also
	// refuse NaN.
	if sec, err := strconv.ParseFloat(s, 64); err == nil {
		if ns := sec * float64(time.Second); ns >= math.MinInt64 && ns < math.MaxInt64 {
			return sim.Time(ns), nil
		}
	}
	return 0, fmt.Errorf("bad time %q (want a duration like 90s or seconds)", s)
}

// fileID parses the {id} path segment; a malformed one it answers itself.
func fileID(w http.ResponseWriter, r *http.Request) (flash.FileID, bool) {
	raw := r.PathValue("id")
	id, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad file id %q", raw)
	}
	return flash.FileID(id), err == nil
}

func (h *handler) files(w http.ResponseWriter, r *http.Request) {
	infos, missing := h.source(r).Files(r.Context())
	stampPartial(w, missing)
	writeInfos(w, infos)
}

func (h *handler) file(w http.ResponseWriter, r *http.Request) {
	id, ok := fileID(w, r)
	if !ok {
		return
	}
	fi, chunks, missing, err := h.source(r).Detail(r.Context(), id)
	if !readOK(w, id, missing, err) {
		return
	}
	list := make([]chunkJSON, 0, len(chunks))
	for _, c := range chunks {
		list = append(list, chunkJSON{
			Origin: c.Origin, Seq: c.Seq,
			StartSec: sim.Time(c.Start).Seconds(), EndSec: sim.Time(c.End).Seconds(),
			Bytes: c.Bytes,
		})
	}
	WriteJSON(w, struct {
		FileInfoJSON
		DurationSec float64     `json:"duration_s"`
		ChunkList   []chunkJSON `json:"chunk_list"`
	}{InfoJSON(fi), fi.End.Sub(fi.Start).Seconds(), list})
}

func (h *handler) gaps(w http.ResponseWriter, r *http.Request) {
	id, ok := fileID(w, r)
	if !ok {
		return
	}
	tolerance := h.store.GapTolerance()
	if s := r.URL.Query().Get("tolerance"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, "bad tolerance %q", s)
			return
		}
		tolerance = d
	}
	gaps, missing, err := h.source(r).Gaps(r.Context(), id, tolerance)
	if !readOK(w, id, missing, err) {
		return
	}
	out := make([]gapJSON, 0, len(gaps))
	for _, g := range gaps {
		out = append(out, gapJSON{
			StartSec: g.Start.Seconds(),
			EndSec:   g.End.Seconds(),
			Seconds:  g.End.Sub(g.Start).Seconds(),
		})
	}
	// The re-query a mule would flood to fill what's still missing —
	// the same shape Mule.MissingFiles produces in the field. The parity
	// sibling rides along so dispersal-mode fragments that can decode
	// the gap are collected too.
	requery := []flash.FileID{}
	if len(gaps) > 0 {
		requery = []flash.FileID{id, id | erasure.ParityFileBit}
	}
	WriteJSON(w, struct {
		File         flash.FileID   `json:"file"`
		ToleranceSec float64        `json:"tolerance_s"`
		Gaps         []gapJSON      `json:"gaps"`
		RequeryFiles []flash.FileID `json:"requery_files"`
	}{id, tolerance.Seconds(), out, requery})
}

// /wav's rate must lie in [1, maxSampleRate]: int(rate) is what the WAV
// header states, duration × rate what the stitch allocates.
const maxSampleRate = 192000

func (h *handler) wav(w http.ResponseWriter, r *http.Request) {
	id, ok := fileID(w, r)
	if !ok {
		return
	}
	rate := mote.DefaultSampleRate
	if s := r.URL.Query().Get("rate"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || !(v >= 1 && v <= maxSampleRate) { // NaN fails both
			httpError(w, http.StatusBadRequest, "bad rate %q", s)
			return
		}
		rate = v
	}
	// Erasure-aware read: gaps coverable by archived parity fragments
	// are reconstructed before stitching.
	f, missing, err := h.source(r).Audio(r.Context(), id)
	if !readOK(w, id, missing, err) {
		return
	}
	samples := trace.Stitch(f, rate)
	if len(samples) == 0 {
		httpError(w, http.StatusUnprocessableEntity, "file %d renders no samples", id)
		return
	}
	w.Header().Set("Content-Type", "audio/wav")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=file-%d.wav", id))
	// A failure from here on is the connection's: the status and part of
	// the audio are out, and nothing appended to them would help.
	_ = wav.Write(w, samples, int(rate))
}

func (h *handler) query(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := parseTime(q.Get("from"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "from: %v", err)
		return
	}
	to, err := parseTime(q.Get("to"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "to: %v", err)
		return
	}
	var origins map[int32]bool
	if s := q.Get("origins"); s != "" {
		origins = make(map[int32]bool)
		for _, part := range strings.Split(s, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			v, err := strconv.ParseInt(part, 10, 32)
			if err != nil {
				httpError(w, http.StatusBadRequest, "bad origin %q", part)
				return
			}
			origins[int32(v)] = true
		}
	}
	infos, missing := h.source(r).Query(r.Context(), from, to, origins)
	stampPartial(w, missing)
	writeInfos(w, infos)
}

// MaxIngestBytes bounds one POST /ingest body (about a quarter of a
// million full chunks); a longer one is refused whole with a 413. A
// client with more to flush cuts it at frame boundaries into several.
const MaxIngestBytes = 64 << 20

// ingest reads the bounded body once, into a buffer sized from
// Content-Length when the client declared one, and hands it to
// IngestFrames as it arrived. A body that is too long (413), cut short or
// malformed anywhere (400) ingests nothing.
func (h *handler) ingest(w http.ResponseWriter, r *http.Request) {
	tooLong := func() {
		h.store.cRejected.Inc()
		httpError(w, http.StatusRequestEntityTooLarge, "body exceeds the %d-byte bound", h.maxIngest)
	}
	if r.ContentLength > h.maxIngest {
		tooLong()
		return
	}
	var body bytes.Buffer
	if r.ContentLength > 0 {
		// MinRead spare bytes let ReadFrom see EOF without growing.
		body.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, h.maxIngest)); err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			tooLong()
		} else {
			httpError(w, http.StatusBadRequest, "reading body: %v", err)
		}
		return
	}
	rep, err := h.store.IngestFrames(body.Bytes())
	switch {
	case errors.Is(err, ErrBadFrames):
		httpError(w, http.StatusBadRequest, "%v", err)
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
	default:
		WriteJSON(w, ingestReportJSON(rep))
	}
}

// ingestReportJSON shapes an IngestReport for the wire, including the
// follow-up re-query.
func ingestReportJSON(rep IngestReport) any {
	type deltaJSON struct {
		File          flash.FileID `json:"file"`
		Added         int          `json:"added"`
		Duplicates    int          `json:"duplicates"`
		Superseded    int          `json:"superseded"`
		GapsBefore    int          `json:"gaps_before"`
		GapsAfter     int          `json:"gaps_after"`
		GapSpanBefore float64      `json:"gap_span_before_s"`
		GapSpanAfter  float64      `json:"gap_span_after_s"`
	}
	deltas := make([]deltaJSON, 0, len(rep.Files))
	for _, d := range rep.Files {
		deltas = append(deltas, deltaJSON{
			File: d.File, Added: d.Added, Duplicates: d.Duplicates,
			Superseded: d.Superseded,
			GapsBefore: d.GapsBefore, GapsAfter: d.GapsAfter,
			GapSpanBefore: d.GapSpanBefore.Seconds(),
			GapSpanAfter:  d.GapSpanAfter.Seconds(),
		})
	}
	requery := requeryIDs(rep.Requery())
	return struct {
		Added      int            `json:"added"`
		Duplicates int            `json:"duplicates"`
		Superseded int            `json:"superseded"`
		Files      []deltaJSON    `json:"files"`
		Requery    []flash.FileID `json:"requery_files"`
	}{rep.Added, rep.Duplicates, rep.Superseded, deltas, requery}
}

// requeryIDs flattens a gap re-query's file set, sorted.
func requeryIDs(q retrieval.Query) []flash.FileID {
	ids := make([]flash.FileID, 0, len(q.Files))
	for id := range q.Files {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

func (h *handler) compact(w http.ResponseWriter, r *http.Request) {
	rep, err := h.store.Compact()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	WriteJSON(w, rep)
}

func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, h.store.Stats())
}

// Replication delta response headers: the advanced cursor to resume
// from, and the byte lag still unshipped (0 = caught up).
const (
	ReplCursorHeader = "X-Repl-Cursor"
	ReplLagHeader    = "X-Repl-Lag"
)

func (h *handler) replStatus(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, h.store.ReplStatus())
}

// MaxReplWait bounds /repl/delta's wait parameter.
const MaxReplWait = time.Minute

// replDelta answers a puller. With wait, a puller that is caught up is
// held until the store changes, wait runs out or the request ends, and
// then answered exactly as it would have been then; the change channel
// is taken before the first read, so a commit between the read and the
// hold still wakes it.
func (h *handler) replDelta(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	cur, err := ParseReplCursor(q.Get("cursor"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "cursor: %v", err)
		return
	}
	var maxBytes int64
	if s := q.Get("max"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v <= 0 {
			httpError(w, http.StatusBadRequest, "bad max %q", s)
			return
		}
		maxBytes = v
	}
	var wait time.Duration
	if s := q.Get("wait"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d < 0 || d > MaxReplWait {
			httpError(w, http.StatusBadRequest, "bad wait %q (want a duration in [0, %v])", s, MaxReplWait)
			return
		}
		wait = d
	}
	var changed <-chan struct{}
	if wait > 0 {
		changed = h.store.Changed()
	}
	frames, next, lag, err := h.store.Delta(cur, maxBytes)
	if err == nil && wait > 0 && len(frames) == 0 && lag == 0 {
		t := time.NewTimer(wait)
		select {
		case <-changed:
		case <-t.C:
		case <-r.Context().Done():
		}
		t.Stop()
		frames, next, lag, err = h.store.Delta(cur, maxBytes)
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(ReplCursorHeader, next.String())
	w.Header().Set(ReplLagHeader, strconv.FormatInt(lag, 10))
	w.Write(frames)
}

// replManifest serves the federation coordinator's view of this
// station. The tag travels as a strong ETag; a coordinator that already
// holds the rows for the current tag gets a 304 from a tag-only read.
func (h *handler) replManifest(w http.ResponseWriter, r *http.Request) {
	if match := r.Header.Get("If-None-Match"); match != "" && match == `"`+h.store.ManifestTag()+`"` {
		w.Header().Set("ETag", match)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	rows, tag := h.store.Manifest()
	w.Header().Set("ETag", `"`+tag+`"`)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(EncodeManifest(rows))
}

func (h *handler) replFile(w http.ResponseWriter, r *http.Request) {
	id, ok := fileID(w, r)
	if !ok {
		return
	}
	frames, err := h.store.FileFrames(id)
	if errors.Is(err, ErrNotFound) {
		httpError(w, http.StatusNotFound, "file %d not found", id)
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(frames)
}
