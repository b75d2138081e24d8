package archive

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
//	GET  /repl/delta?cursor=&max=     next replication batch (segment frames)
//	GET  /repl/manifest               every file's chunk keys (EncodeManifest), ETag = Store.ManifestTag;
//	                                  If-None-Match with the current tag answers an empty 304
//	GET  /repl/file/{id}              one file's chunks in wire framing
//
// Times in query parameters are Go durations since simulation start
// ("90s", "1m30s") or bare seconds ("90", "90.5"). The handler is safe
// for concurrent use; mount it under "/" next to pprof/expvar the same
// way enviromic-sim's -http debug mux is wired.
func NewHandler(s *Store) http.Handler {
	h := &handler{store: s, maxIngest: MaxIngestBytes}
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
	maxIngest int64 // MaxIngestBytes; a field so a test can reach the bound
}

// EndpointOf maps an archive request to its route pattern ("/files/{id}/wav"
// rather than the concrete path) so the telemetry middleware's per-endpoint
// series stay low-cardinality. Unknown paths collapse to "other".
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
	case p == "/query", p == "/ingest", p == "/compact", p == "/stats", p == "/metrics":
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

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// ParseTime accepts a Go duration ("90s") or bare seconds ("90.5") since
// simulation start.
func ParseTime(s string) (sim.Time, error) {
	if s == "" {
		return 0, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		return sim.At(d), nil
	}
	if sec, err := strconv.ParseFloat(s, 64); err == nil {
		return sim.Time(sec * float64(time.Second)), nil
	}
	return 0, fmt.Errorf("bad time %q (want a duration like 90s or seconds)", s)
}

func (h *handler) fileID(r *http.Request) (flash.FileID, error) {
	raw := r.PathValue("id")
	id, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad file id %q", raw)
	}
	return flash.FileID(id), nil
}

func (h *handler) files(w http.ResponseWriter, r *http.Request) {
	infos := h.store.Files()
	out := make([]FileInfoJSON, 0, len(infos))
	for _, fi := range infos {
		out = append(out, InfoJSON(fi))
	}
	WriteJSON(w, out)
}

func (h *handler) file(w http.ResponseWriter, r *http.Request) {
	id, err := h.fileID(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fi, err := h.store.Info(id)
	if errors.Is(err, ErrNotFound) {
		httpError(w, http.StatusNotFound, "file %d not found", id)
		return
	}
	f, err := h.store.File(id)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	type chunkJSON struct {
		Origin   int32   `json:"origin"`
		Seq      uint32  `json:"seq"`
		StartSec float64 `json:"start_s"`
		EndSec   float64 `json:"end_s"`
		Bytes    int     `json:"bytes"`
	}
	chunks := make([]chunkJSON, 0, len(f.Chunks))
	for _, c := range f.Chunks {
		chunks = append(chunks, chunkJSON{
			Origin: c.Origin, Seq: c.Seq,
			StartSec: c.Start.Seconds(), EndSec: c.End.Seconds(),
			Bytes: len(c.Data),
		})
	}
	WriteJSON(w, struct {
		FileInfoJSON
		DurationSec float64     `json:"duration_s"`
		ChunkList   []chunkJSON `json:"chunk_list"`
	}{InfoJSON(fi), f.Duration().Seconds(), chunks})
}

func (h *handler) gaps(w http.ResponseWriter, r *http.Request) {
	id, err := h.fileID(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
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
	gaps, err := h.store.Gaps(id, tolerance)
	if errors.Is(err, ErrNotFound) {
		httpError(w, http.StatusNotFound, "file %d not found", id)
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

func (h *handler) wav(w http.ResponseWriter, r *http.Request) {
	id, err := h.fileID(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rate := mote.DefaultSampleRate
	if s := r.URL.Query().Get("rate"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v <= 0 {
			httpError(w, http.StatusBadRequest, "bad rate %q", s)
			return
		}
		rate = v
	}
	// Erasure-aware read: gaps coverable by archived parity fragments
	// are reconstructed before stitching.
	f, _, err := h.store.FileErasure(id)
	if errors.Is(err, ErrNotFound) {
		httpError(w, http.StatusNotFound, "file %d not found", id)
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	samples := trace.Stitch(f, rate)
	if len(samples) == 0 {
		httpError(w, http.StatusUnprocessableEntity, "file %d renders no samples", id)
		return
	}
	w.Header().Set("Content-Type", "audio/wav")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=file-%d.wav", id))
	if err := wav.Write(w, samples, int(rate)); err != nil {
		// Headers are gone; nothing to do but log-level surface via 500
		// if nothing was written yet — in practice wav.Write fails only
		// on bad input, caught above.
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (h *handler) query(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := ParseTime(q.Get("from"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "from: %v", err)
		return
	}
	to, err := ParseTime(q.Get("to"))
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
	infos := h.store.Query(from, to, origins)
	out := make([]FileInfoJSON, 0, len(infos))
	for _, fi := range infos {
		out = append(out, InfoJSON(fi))
	}
	WriteJSON(w, out)
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
	frames, next, lag, err := h.store.Delta(cur, maxBytes)
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
	id, err := h.fileID(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
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
