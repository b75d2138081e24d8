package federation

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"enviromic/internal/archive"
	"enviromic/internal/erasure"
	"enviromic/internal/flash"
	"enviromic/internal/mote"
	"enviromic/internal/retrieval"
	"enviromic/internal/sim"
	"enviromic/internal/trace"
	"enviromic/internal/wav"
)

// Handler returns the station's HTTP surface: the archive's full API
// with the read endpoints (/query, /files, /files/{id}, /gaps, /wav)
// lifted to federated fan-out versions, plus GET /federation for the
// peer/replication status. Requests carrying LocalHeader — fan-out
// requests from peers — bypass federation and hit the local store, as
// do all write and replication endpoints.
//
// Federated responses keep the single-station JSON shapes exactly; the
// only federation-visible artifact is the X-Federation-Partial header
// naming peers whose holdings are missing from the answer.
func (st *Station) Handler() http.Handler {
	local := archive.NewHandler(st.store)
	fed := http.NewServeMux()
	fed.HandleFunc("GET /files", st.fedFiles)
	fed.HandleFunc("GET /files/{id}", st.fedFile)
	fed.HandleFunc("GET /files/{id}/gaps", st.fedGaps)
	fed.HandleFunc("GET /files/{id}/wav", st.fedWav)
	fed.HandleFunc("GET /query", st.fedQuery)
	fed.HandleFunc("GET /federation", st.fedStatus)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(LocalHeader) != "" {
			local.ServeHTTP(w, r)
			return
		}
		if _, pattern := fed.Handler(r); pattern != "" {
			fed.ServeHTTP(w, r)
			return
		}
		local.ServeHTTP(w, r)
	})
}

// markPartial stamps the partial-result contract: when any peer's
// holdings are missing, the response carries PartialHeader with the
// sorted failed peer names and federation_partial_total increments.
// Must run before the body is written.
func (st *Station) markPartial(w http.ResponseWriter, failed []string) {
	if len(failed) == 0 {
		return
	}
	w.Header().Set(PartialHeader, strings.Join(failed, ","))
	st.cPartial.Inc()
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func pathFileID(r *http.Request) (flash.FileID, error) {
	raw := r.PathValue("id")
	id, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad file id %q", raw)
	}
	return flash.FileID(id), nil
}

func (st *Station) fedFiles(w http.ResponseWriter, r *http.Request) {
	v, failed := st.view(r.Context(), "/files")
	infos := make([]archive.FileInfoJSON, 0, len(v.files))
	for i := range v.files {
		infos = append(infos, archive.InfoJSON(v.files[i].info))
	}
	st.markPartial(w, failed)
	archive.WriteJSON(w, infos)
}

func (st *Station) fedQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := archive.ParseTime(q.Get("from"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "from: %v", err)
		return
	}
	to, err := archive.ParseTime(q.Get("to"))
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
	// Filter on the MERGED spans: a file whose pieces individually miss
	// the window can still overlap it once the stations' holdings are
	// combined, and only the merged view matches what a fully-replicated
	// station would answer.
	v, failed := st.view(r.Context(), "/query")
	bounded := from != 0 || to != 0
	infos := []archive.FileInfoJSON{}
	for _, i := range v.byStart {
		fi := v.files[i].info
		if bounded && (fi.End <= from || (to != 0 && fi.Start >= to)) {
			continue
		}
		if len(origins) > 0 && !originsIntersect(fi.Origins, origins) {
			continue
		}
		infos = append(infos, archive.InfoJSON(fi))
	}
	st.markPartial(w, failed)
	archive.WriteJSON(w, infos)
}

func originsIntersect(have []int32, want map[int32]bool) bool {
	for _, o := range have {
		if want[o] {
			return true
		}
	}
	return false
}

func (st *Station) fedFile(w http.ResponseWriter, r *http.Request) {
	id, err := pathFileID(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	v, failed := st.view(r.Context(), "/files/{id}")
	fv := v.file(id)
	if fv == nil {
		st.markPartial(w, failed)
		httpError(w, http.StatusNotFound, "file %d not found", id)
		return
	}
	// chunk_list is span-ordered like a reassembled file, not
	// manifest-ordered; the view's slice is shared, so sort a copy.
	chunks := append([]archive.ChunkKey(nil), fv.chunks...)
	sort.Slice(chunks, func(i, j int) bool {
		a, b := chunks[i], chunks[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Origin != b.Origin {
			return a.Origin < b.Origin
		}
		return a.Seq < b.Seq
	})
	type chunkJSON struct {
		Origin   int32   `json:"origin"`
		Seq      uint32  `json:"seq"`
		StartSec float64 `json:"start_s"`
		EndSec   float64 `json:"end_s"`
		Bytes    int     `json:"bytes"`
	}
	list := make([]chunkJSON, 0, len(chunks))
	for _, c := range chunks {
		list = append(list, chunkJSON{
			Origin: c.Origin, Seq: c.Seq,
			StartSec: sim.Time(c.Start).Seconds(), EndSec: sim.Time(c.End).Seconds(),
			Bytes: int(c.Bytes),
		})
	}
	fi := fv.info
	st.markPartial(w, failed)
	archive.WriteJSON(w, struct {
		archive.FileInfoJSON
		DurationSec float64     `json:"duration_s"`
		ChunkList   []chunkJSON `json:"chunk_list"`
	}{archive.InfoJSON(fi), fi.End.Sub(fi.Start).Seconds(), list})
}

func (st *Station) fedGaps(w http.ResponseWriter, r *http.Request) {
	id, err := pathFileID(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tolerance := st.store.GapTolerance()
	if s := r.URL.Query().Get("tolerance"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, "bad tolerance %q", s)
			return
		}
		tolerance = d
	}
	v, failed := st.view(r.Context(), "/files/{id}/gaps")
	fv := v.file(id)
	if fv == nil {
		st.markPartial(w, failed)
		httpError(w, http.StatusNotFound, "file %d not found", id)
		return
	}
	gaps := archive.GapsInSpans(fv.chunks, tolerance)
	type gapJSON struct {
		StartSec float64 `json:"start_s"`
		EndSec   float64 `json:"end_s"`
		Seconds  float64 `json:"seconds"`
	}
	out := make([]gapJSON, 0, len(gaps))
	for _, g := range gaps {
		out = append(out, gapJSON{
			StartSec: g.Start.Seconds(),
			EndSec:   g.End.Seconds(),
			Seconds:  g.End.Sub(g.Start).Seconds(),
		})
	}
	requery := []flash.FileID{}
	if len(gaps) > 0 {
		requery = []flash.FileID{id, id | erasure.ParityFileBit}
	}
	st.markPartial(w, failed)
	archive.WriteJSON(w, struct {
		File         flash.FileID   `json:"file"`
		ToleranceSec float64        `json:"tolerance_s"`
		Gaps         []gapJSON      `json:"gaps"`
		RequeryFiles []flash.FileID `json:"requery_files"`
	}{id, tolerance.Seconds(), out, requery})
}

func (st *Station) fedWav(w http.ResponseWriter, r *http.Request) {
	id, err := pathFileID(r)
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
	// Pool the file AND its parity sibling from every station that holds
	// a copy the local store lacks, then erasure-decode over the merged
	// holdings: k surviving fragments reconstruct a group even when no
	// single station holds k of them.
	ids := []flash.FileID{id}
	if id&erasure.ParityFileBit == 0 {
		ids = append(ids, id|erasure.ParityFileBit)
	}
	pool, failed, err := st.federatedChunks(r.Context(), "/files/{id}/wav", ids)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if len(pool) == 0 {
		st.markPartial(w, failed)
		httpError(w, http.StatusNotFound, "file %d not found", id)
		return
	}
	files, _ := retrieval.ReassembleErasure(
		map[int][]*flash.Chunk{0: pool},
		retrieval.Query{Files: map[flash.FileID]bool{id: true}},
	)
	f := files[id]
	if f == nil {
		st.markPartial(w, failed)
		httpError(w, http.StatusNotFound, "file %d not found", id)
		return
	}
	samples := trace.Stitch(f, rate)
	if len(samples) == 0 {
		st.markPartial(w, failed)
		httpError(w, http.StatusUnprocessableEntity, "file %d renders no samples", id)
		return
	}
	st.markPartial(w, failed)
	w.Header().Set("Content-Type", "audio/wav")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=file-%d.wav", id))
	wav.Write(w, samples, int(rate))
}

// fedStatus serves GET /federation: self, replication sources, and the
// live per-peer view.
func (st *Station) fedStatus(w http.ResponseWriter, r *http.Request) {
	type peerJSON struct {
		Name     string `json:"name"`
		URL      string `json:"url"`
		Healthy  bool   `json:"healthy"`
		LagBytes int64  `json:"lag_bytes"`
		Cursor   string `json:"cursor"`
		LastErr  string `json:"last_error,omitempty"`
		// The peer's manifest as the read plane last fetched it.
		ManifestTag    string `json:"manifest_tag"`
		ManifestChunks int    `json:"manifest_chunks"`
	}
	peers := make([]peerJSON, 0, len(st.peers))
	for _, p := range st.peers {
		p.mu.Lock()
		lastErr := p.lastErr
		state := p.lastState
		etag, rows := p.etag, p.rows
		p.mu.Unlock()
		cur := st.repl.cursor(p.Name)
		chunks := 0
		for _, m := range rows {
			chunks += len(m.Chunks)
		}
		peers = append(peers, peerJSON{
			Name: p.Name, URL: p.URL,
			Healthy:  p.healthy.Load(),
			LagBytes: state.Lag(cur),
			Cursor:   cur.String(),
			LastErr:  lastErr,

			ManifestTag:    strings.Trim(etag, `"`),
			ManifestChunks: chunks,
		})
	}
	archive.WriteJSON(w, struct {
		Self              string     `json:"self"`
		ReplicationFactor int        `json:"replication_factor"`
		Sources           []string   `json:"replication_sources"`
		Peers             []peerJSON `json:"peers"`
	}{st.cfg.Self, st.cfg.ReplicationFactor, st.ReplicationSources(), peers})
}
