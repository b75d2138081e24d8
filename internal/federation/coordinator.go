package federation

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"enviromic/internal/archive"
	"enviromic/internal/flash"
	"enviromic/internal/sim"
)

// The fan-out coordinator. Every federated read starts the same way: one
// conditional GET /repl/manifest to every healthy peer in parallel
// (marked LocalHeader so peers answer from their own store only), each
// carrying the tag of the manifest this station last fetched from that
// peer. A peer whose chunk set has not changed answers an empty 304; one
// that has answers its whole manifest once, in the compact wire form.
// The local manifest and the answering peers' are merged with the
// archive's supersession rule — per (origin, seq), the longest copy
// wins, local first on ties — into one view that every read endpoint
// answers from, and that is rebuilt only when some station's tag moved.
// Peers that fail contribute nothing, cached rows included, and are
// named in the PartialHeader.

// maxPeerBody caps what one peer response may occupy: a manifest is 28
// bytes per chunk, so this admits one of 2.4 million chunks.
const maxPeerBody = 64 << 20

// readCapped reads a response body to its end — which is also what
// returns the keep-alive connection to the pool — but refuses one longer
// than limit. A body cut short of its declared length is an error too.
func readCapped(resp *http.Response, limit int64) ([]byte, error) {
	if resp.ContentLength > limit {
		return nil, fmt.Errorf("federation: peer body of %d bytes exceeds the %d-byte cap", resp.ContentLength, limit)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > limit {
		return nil, fmt.Errorf("federation: peer body exceeds the %d-byte cap", limit)
	}
	return body, nil
}

// fetch performs one fan-out GET against one peer. Only a 200 carries a
// body back; any other status has its (short, JSON) body drained so the
// connection is reused — best effort, an undrained body costs no more
// than that connection.
func (st *Station) fetch(ctx context.Context, p *peerState, path, ifNoneMatch string) (status int, etag string, body []byte, err error) {
	ctx, cancel := context.WithTimeout(ctx, st.cfg.FanoutTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.URL+path, nil)
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set(LocalHeader, "1")
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return resp.StatusCode, "", nil, nil
	}
	body, err = readCapped(resp, maxPeerBody)
	return resp.StatusCode, resp.Header.Get("ETag"), body, err
}

// round runs n peer requests in parallel as one fan-out round. The
// endpoint names the latency histogram series.
func (st *Station) round(endpoint string, n int, do func(i int)) {
	st.cFanouts.Inc()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			do(i)
		}(i)
	}
	wg.Wait()
	st.hFanout[endpoint].ObserveDuration(time.Since(start))
}

// manifestOf revalidates this station's copy of p's manifest with one
// conditional request and returns the current (tag, rows) pair. The pair
// sent and the pair returned are taken together under p.mu, so a
// concurrent refresh can never pair one tag with another's rows.
func (st *Station) manifestOf(ctx context.Context, p *peerState) (string, []archive.FileManifest, error) {
	p.mu.Lock()
	etag, rows := p.etag, p.rows
	p.mu.Unlock()
	status, newTag, body, err := st.fetch(ctx, p, "/repl/manifest", etag)
	switch {
	case err != nil:
	case status == http.StatusNotModified && etag != "":
		st.cManifestUnchanged.Inc()
		return etag, rows, nil
	case status != http.StatusOK:
		err = fmt.Errorf("federation: manifest of %s: HTTP %d", p.Name, status)
	case newTag == "":
		err = fmt.Errorf("federation: manifest of %s carries no ETag", p.Name)
	default:
		rows, err = archive.DecodeManifest(body)
	}
	if err != nil {
		st.cManifestErrors.Inc()
		return "", nil, err
	}
	p.mu.Lock()
	p.etag, p.rows = newTag, rows
	p.mu.Unlock()
	st.cManifestFetched.Inc()
	st.cManifestBytes.Add(int64(len(body)))
	return newTag, rows, nil
}

// view is one merged picture of the federation's holdings. It is
// immutable once built: handlers share its slices and must not write to
// them.
type view struct {
	// key is the local manifest tag followed by name=tag of every peer
	// whose manifest went into the merge.
	key     string
	files   []fileView // by ID
	byStart []int32    // indexes into files in (Start, ID) order, /query's
}

// fileView is one file of the merged view.
type fileView struct {
	info   archive.FileInfo
	chunks []archive.ChunkKey // keep-longest, in (origin, seq) order
	// holders are the peers whose copy of at least one chunk won the
	// merge: the local store lacks that chunk or holds a shorter copy.
	// Only they are asked for payload.
	holders []*peerState
}

func (v *view) file(id flash.FileID) *fileView {
	i := sort.Search(len(v.files), func(i int) bool { return v.files[i].info.ID >= id })
	if i < len(v.files) && v.files[i].info.ID == id {
		return &v.files[i]
	}
	return nil
}

// view returns the merged view as of this request — every healthy peer
// has just confirmed or replaced its manifest — plus the names of peers
// that failed to (transport error, 5xx, over-long or garbled body). The
// previous view is reused iff neither the local tag nor any answering
// peer's moved and the same peers answered; otherwise one caller
// re-merges while the others wait for its result.
func (st *Station) view(ctx context.Context, endpoint string) (*view, []string) {
	peers := st.healthyPeers()
	type answer struct {
		etag string
		rows []archive.FileManifest
		err  error
	}
	answers := make([]answer, len(peers))
	if len(peers) > 0 {
		st.round(endpoint, len(peers), func(i int) {
			a := &answers[i]
			a.etag, a.rows, a.err = st.manifestOf(ctx, peers[i])
		})
	}
	var (
		failed  []string // in name order, as peers is
		peerKey string
		srcs    = [][]archive.FileManifest{nil} // srcs[0] is the local store's
		from    []*peerState                    // from[i] supplied srcs[i+1]
	)
	for i, a := range answers {
		if a.err != nil {
			failed = append(failed, peers[i].Name)
			st.cPeerErrs.Inc()
			continue
		}
		peerKey += "|" + peers[i].Name + "=" + strconv.Quote(a.etag)
		srcs = append(srcs, a.rows)
		from = append(from, peers[i])
	}
	st.viewMu.Lock()
	defer st.viewMu.Unlock()
	if st.merged == nil || st.merged.key != st.store.ManifestTag()+peerKey {
		var tag string
		srcs[0], tag = st.store.Manifest()
		st.merged = buildView(tag+peerKey, srcs, from, st.store.GapTolerance())
		st.cViewRebuilds.Inc()
	}
	return st.merged, failed
}

// buildView merges the sources' manifests, each sorted by file ID and
// within a file by (origin, seq), in one pass. srcs[0] is the local
// store's; srcs[i+1] came from peers[i].
func buildView(key string, srcs [][]archive.FileManifest, peers []*peerState, tolerance time.Duration) *view {
	v := &view{key: key}
	lists := make([][]archive.ChunkKey, len(srcs))
	won := make([]bool, len(srcs))
	for {
		var id flash.FileID
		found := false
		for _, rows := range srcs {
			if len(rows) > 0 && (!found || rows[0].ID < id) {
				id, found = rows[0].ID, true
			}
		}
		if !found {
			break
		}
		longest := 0
		for s, rows := range srcs {
			lists[s], won[s] = nil, false
			if len(rows) > 0 && rows[0].ID == id {
				lists[s], srcs[s] = rows[0].Chunks, rows[1:]
				if len(lists[s]) > longest {
					longest = len(lists[s])
				}
			}
		}
		chunks := mergeChunks(make([]archive.ChunkKey, 0, longest), lists, won)
		fv := fileView{info: infoFor(id, chunks, tolerance), chunks: chunks}
		for s, p := range peers {
			if won[s+1] {
				fv.holders = append(fv.holders, p)
			}
		}
		v.files = append(v.files, fv)
	}
	v.byStart = make([]int32, len(v.files))
	for i := range v.byStart {
		v.byStart[i] = int32(i)
	}
	sort.Slice(v.byStart, func(i, j int) bool {
		a, b := v.files[v.byStart[i]].info, v.files[v.byStart[j]].info
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.ID < b.ID
	})
	return v
}

// mergeChunks appends to out the keep-longest union of one file's
// (origin, seq)-sorted chunk lists and marks in won every list that
// supplied a winning copy. On equal lengths the earliest list wins, so
// list 0 — the local store — is marked for every chunk it holds at full
// length.
func mergeChunks(out []archive.ChunkKey, lists [][]archive.ChunkKey, won []bool) []archive.ChunkKey {
	for {
		best := -1
		for s, l := range lists {
			if len(l) == 0 {
				continue
			}
			if best < 0 || l[0].Less(lists[best][0]) ||
				(!lists[best][0].Less(l[0]) && l[0].Bytes > lists[best][0].Bytes) {
				best = s
			}
		}
		if best < 0 {
			return out
		}
		c := lists[best][0]
		won[best] = true
		out = append(out, c)
		for s, l := range lists {
			if len(l) > 0 && !c.Less(l[0]) { // every head is >= c: this one is c's key
				lists[s] = l[1:]
			}
		}
	}
}

// infoFor summarizes one merged chunk set, in (origin, seq) order,
// exactly the way a single station's index would (gap count at the
// local store's tolerance).
func infoFor(id flash.FileID, chunks []archive.ChunkKey, tolerance time.Duration) archive.FileInfo {
	fi := archive.FileInfo{ID: id, Chunks: len(chunks)}
	for i, c := range chunks {
		if i == 0 || sim.Time(c.Start) < fi.Start {
			fi.Start = sim.Time(c.Start)
		}
		if sim.Time(c.End) > fi.End {
			fi.End = sim.Time(c.End)
		}
		fi.Bytes += c.Bytes
		if i == 0 || c.Origin != chunks[i-1].Origin {
			fi.Origins = append(fi.Origins, c.Origin)
		}
	}
	fi.Gaps = len(archive.GapsInSpans(chunks, tolerance))
	return fi
}

// ckey identifies a chunk across stations.
type ckey struct {
	file   flash.FileID
	origin int32
	seq    uint32
}

// federatedChunks pools the listed files' chunks, deduplicated
// keep-longest, from the local store and from exactly the peers the view
// records as holding a copy the local store lacks — no peer at all when
// the local store already holds every longest copy. The returned chunks
// mix shared local cache entries with peer-decoded copies — callers must
// treat them as read-only.
func (st *Station) federatedChunks(ctx context.Context, endpoint string, ids []flash.FileID) ([]*flash.Chunk, []string, error) {
	v, failed := st.view(ctx, endpoint)
	best := make(map[ckey]*flash.Chunk)
	absorb := func(cs []*flash.Chunk) {
		for _, c := range cs {
			k := ckey{c.File, c.Origin, c.Seq}
			if cur, ok := best[k]; !ok || len(c.Data) > len(cur.Data) {
				best[k] = c
			}
		}
	}
	type ask struct {
		peer   *peerState
		id     flash.FileID
		chunks []*flash.Chunk
		err    error
	}
	var asks []ask
	for _, id := range ids {
		if fv := v.file(id); fv != nil {
			for _, p := range fv.holders {
				asks = append(asks, ask{peer: p, id: id})
			}
		}
		f, err := st.store.FileIfHeld(id)
		if err != nil {
			return nil, failed, err
		}
		if f != nil {
			absorb(f.Chunks)
		}
	}
	if len(asks) > 0 {
		st.round(endpoint, len(asks), func(i int) {
			a := &asks[i]
			a.chunks, a.err = st.fileOf(ctx, a.peer, a.id)
		})
		down := make(map[string]bool)
		for _, a := range asks {
			if a.err == nil {
				absorb(a.chunks)
			} else if !down[a.peer.Name] {
				down[a.peer.Name] = true
				failed = append(failed, a.peer.Name)
				st.cPeerErrs.Inc()
			}
		}
		sort.Strings(failed)
	}
	out := make([]*flash.Chunk, 0, len(best))
	for _, c := range best {
		out = append(out, c)
	}
	return out, failed, nil
}

// fileOf fetches one file's chunks from one peer. A transport error, a
// 5xx and an over-long, truncated or torn body fail the peer; a 404 (the
// file left the peer's listing since the view was merged) is an answer
// with no chunks.
func (st *Station) fileOf(ctx context.Context, p *peerState, id flash.FileID) ([]*flash.Chunk, error) {
	status, _, body, err := st.fetch(ctx, p, fmt.Sprintf("/repl/file/%d", uint32(id)), "")
	switch {
	case err != nil:
		return nil, err
	case status >= 500:
		return nil, fmt.Errorf("federation: file %d of %s: HTTP %d", id, p.Name, status)
	case status != http.StatusOK:
		return nil, nil
	}
	return archive.DecodeFrames(body)
}
