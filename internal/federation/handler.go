package federation

import (
	"context"
	"net/http"
	"sort"
	"strings"
	"time"

	"enviromic/internal/archive"
	"enviromic/internal/erasure"
	"enviromic/internal/flash"
	"enviromic/internal/retrieval"
	"enviromic/internal/sim"
)

// Handler returns the station's HTTP surface: the archive's own handler
// with its five read endpoints (/query, /files, /files/{id}, /gaps, /wav)
// answering from the merged view of every healthy station, plus GET
// /federation for the peer/replication status. Requests carrying
// LocalHeader — fan-out requests from peers — are answered from the local
// store, as are all write and replication endpoints.
//
// The read handlers are the single station's, so a federated response has
// its shape by construction; the only federation-visible artifact is the
// X-Federation-Partial header naming peers whose holdings are missing.
func (st *Station) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /federation", st.fedStatus)
	mux.Handle("/", archive.NewHandler(st.store, merged{st}))
	return mux
}

// merged is the archive.Source that answers for the whole federation:
// listings from the merged view, payload pooled from the stations that
// hold it. Every method returns the peers its answer is missing; a
// non-empty list counts one federation_partial_total.
type merged struct{ st *Station }

func (m merged) partial(missing []string) []string {
	if len(missing) > 0 {
		m.st.cPartial.Inc()
	}
	return missing
}

func (m merged) Files(ctx context.Context) ([]archive.FileInfo, []string) {
	v, failed := m.st.view(ctx, "/files")
	infos := make([]archive.FileInfo, len(v.files))
	for i := range v.files {
		infos[i] = v.files[i].info
	}
	return infos, m.partial(failed)
}

func (m merged) Query(ctx context.Context, from, to sim.Time, origins map[int32]bool) ([]archive.FileInfo, []string) {
	// Filter on the MERGED spans: a file whose pieces individually miss
	// the window can still overlap it once the stations' holdings are
	// combined, and only the merged view matches what a fully-replicated
	// station would answer.
	v, failed := m.st.view(ctx, "/query")
	bounded := from != 0 || to != 0
	var infos []archive.FileInfo
	for _, i := range v.byStart {
		fi := v.files[i].info
		if bounded && (fi.End <= from || (to != 0 && fi.Start >= to)) {
			continue
		}
		if len(origins) > 0 && !originsIntersect(fi.Origins, origins) {
			continue
		}
		infos = append(infos, fi)
	}
	return infos, m.partial(failed)
}

func originsIntersect(have []int32, want map[int32]bool) bool {
	for _, o := range have {
		if want[o] {
			return true
		}
	}
	return false
}

func (m merged) Detail(ctx context.Context, id flash.FileID) (archive.FileInfo, []archive.ChunkKey, []string, error) {
	v, failed := m.st.view(ctx, "/files/{id}")
	missing := m.partial(failed)
	fv := v.file(id)
	if fv == nil {
		return archive.FileInfo{}, nil, missing, archive.ErrNotFound
	}
	// Span order, like a reassembled file, not manifest order; the view's
	// slice is shared, so sort a copy.
	chunks := append([]archive.ChunkKey(nil), fv.chunks...)
	sort.Slice(chunks, func(i, j int) bool {
		a, b := chunks[i], chunks[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Less(b)
	})
	return fv.info, chunks, missing, nil
}

func (m merged) Gaps(ctx context.Context, id flash.FileID, tolerance time.Duration) ([]archive.Gap, []string, error) {
	v, failed := m.st.view(ctx, "/files/{id}/gaps")
	missing := m.partial(failed)
	fv := v.file(id)
	if fv == nil {
		return nil, missing, archive.ErrNotFound
	}
	return archive.GapsInSpans(fv.chunks, tolerance), missing, nil
}

func (m merged) Audio(ctx context.Context, id flash.FileID) (*retrieval.File, []string, error) {
	// Pool the file AND its parity sibling from every station that holds
	// a copy the local store lacks, then erasure-decode over the merged
	// holdings: k surviving fragments reconstruct a group even when no
	// single station holds k of them.
	ids := []flash.FileID{id}
	if id&erasure.ParityFileBit == 0 {
		ids = append(ids, id|erasure.ParityFileBit)
	}
	pool, failed, err := m.st.federatedChunks(ctx, "/files/{id}/wav", ids)
	missing := m.partial(failed)
	if err != nil {
		return nil, missing, err
	}
	f, _, err := archive.DecodeErasure(id, map[int][]*flash.Chunk{0: pool})
	return f, missing, err
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
