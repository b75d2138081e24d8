package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"enviromic/internal/archive"
	"enviromic/internal/erasure"
	"enviromic/internal/flash"
	"enviromic/internal/sim"
)

// testStation is one in-process federation member: a real archive, a
// real Station, served over a real HTTP listener.
type testStation struct {
	name    string
	dir     string
	cfg     Config
	store   *archive.Store
	st      *Station
	srv     *httptest.Server
	handler atomic.Value // http.Handler, bound after New
	// fileReqs counts the GET /repl/file/{id} requests this station
	// received: the payload other stations asked it for.
	fileReqs atomic.Int64
}

// boot opens the station's archive directory and binds a fresh Station
// to the listener; calling it again after shutdown is a process restart
// on the same directory.
func (ts *testStation) boot(t testing.TB) {
	t.Helper()
	store, err := archive.Open(ts.dir, archive.Options{Shards: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st, err := New(store, ts.cfg)
	if err != nil {
		t.Fatalf("New(%s): %v", ts.name, err)
	}
	ts.store, ts.st = store, st
	ts.handler.Store(http.HandlerFunc(st.Handler().ServeHTTP)) // one concrete type for the atomic.Value
}

func (ts *testStation) shutdown() {
	ts.st.Close()
	ts.store.Close()
}

// downHandler is a dead process as its peers see it: every connection
// is dropped without an answer.
var downHandler http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
		conn.Close()
	}
})

// newCluster boots n stations that all know each other. Listeners come
// up first so every station's peer list carries real URLs; handlers are
// bound after construction. Background loops are NOT started — tests
// drive ProbeOnce/ReplicateOnce synchronously.
func newCluster(t testing.TB, n, factor int) []*testStation {
	t.Helper()
	stations := make([]*testStation, n)
	for i := range stations {
		ts := &testStation{name: fmt.Sprintf("s%d", i)}
		ts.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h, _ := ts.handler.Load().(http.Handler)
			if h == nil {
				http.Error(w, "starting", http.StatusServiceUnavailable)
				return
			}
			if strings.HasPrefix(r.URL.Path, "/repl/file/") {
				ts.fileReqs.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		stations[i] = ts
	}
	for i, ts := range stations {
		ts.dir = filepath.Join(t.TempDir(), "arch")
		ts.cfg = Config{
			Self:              ts.name,
			ReplicationFactor: factor,
			CursorPath:        filepath.Join(t.TempDir(), "cursors.json"),
		}
		for j, o := range stations {
			if j != i {
				ts.cfg.Peers = append(ts.cfg.Peers, Peer{Name: o.name, URL: o.srv.URL})
			}
		}
		ts.boot(t)
	}
	t.Cleanup(func() {
		for _, ts := range stations {
			ts.shutdown()
			ts.srv.Close()
		}
	})
	return stations
}

// refServer builds a single-station reference: one archive holding the
// union of chunks, served by the plain archive handler.
func refServer(t testing.TB, chunks []*flash.Chunk) *httptest.Server {
	srv, _ := refStation(t, chunks)
	return srv
}

// refStation is refServer plus the store behind it, for tests that keep
// ingesting into the reference.
func refStation(t testing.TB, chunks []*flash.Chunk) (*httptest.Server, *archive.Store) {
	t.Helper()
	store, err := archive.Open(filepath.Join(t.TempDir(), "ref"), archive.Options{Shards: 2})
	if err != nil {
		t.Fatalf("Open ref: %v", err)
	}
	if _, err := store.Ingest(chunks); err != nil {
		t.Fatalf("ref Ingest: %v", err)
	}
	srv := httptest.NewServer(archive.NewHandler(store, nil))
	t.Cleanup(func() { srv.Close(); store.Close() })
	return srv, store
}

func get(t testing.TB, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, resp.Header, body
}

// assertSameResponse fails unless both URLs answer 200 with identical
// bodies.
func assertSameResponse(t testing.TB, fedURL, refURL, label string) {
	t.Helper()
	fs, _, fb := get(t, fedURL)
	rs, _, rb := get(t, refURL)
	if fs != http.StatusOK || rs != http.StatusOK {
		t.Fatalf("%s: status fed=%d ref=%d", label, fs, rs)
	}
	if string(fb) != string(rb) {
		t.Fatalf("%s: federated response differs from reference:\nfed: %s\nref: %s", label, fb, rb)
	}
}

func mkChunk(file flash.FileID, origin int32, seq uint32, startSec, endSec float64, extra int) *flash.Chunk {
	data := []byte{byte(file), byte(origin), byte(seq), 0xAB}
	for i := 0; i < extra; i++ {
		data = append(data, byte(i))
	}
	return &flash.Chunk{
		File: file, Origin: origin, Seq: seq,
		Start: sim.Time(startSec * float64(time.Second)),
		End:   sim.Time(endSec * float64(time.Second)),
		Data:  data,
	}
}

func mustIngest(t testing.TB, s *archive.Store, chunks []*flash.Chunk) {
	t.Helper()
	if _, err := s.Ingest(chunks); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
}

// TestOverlappingIntervalsAcrossStations holds two overlapping stripes
// of one file at two stations and queries through a third that holds
// nothing. Every federated read must match a single station holding the
// union — byte for byte — including a gap only the merged view shows.
func TestOverlappingIntervalsAcrossStations(t *testing.T) {
	cl := newCluster(t, 3, 0)

	var union []*flash.Chunk
	var a, b []*flash.Chunk
	for seq := uint32(0); seq < 5; seq++ {
		a = append(a, mkChunk(1, 1, seq, float64(seq), float64(seq+1), 0))
	}
	// Origin 2 overlaps [3,8), then a detached tail [10,12) that opens
	// a merged-view gap (8,10).
	for seq := uint32(0); seq < 5; seq++ {
		b = append(b, mkChunk(1, 2, seq, float64(seq+3), float64(seq+4), 0))
	}
	b = append(b, mkChunk(1, 2, 10, 10, 11, 0), mkChunk(1, 2, 11, 11, 12, 0))
	union = append(append(union, a...), b...)

	mustIngest(t, cl[0].store, a)
	mustIngest(t, cl[1].store, b)
	ref := refServer(t, union)

	for _, path := range []string{
		"/files",
		"/files/1",
		"/files/1/gaps",
		"/files/1/gaps?tolerance=250ms",
		"/files/1/wav",
		"/query",
		"/query?from=2s&to=6s",
		"/query?from=8.5s&to=9.5s", // falls in the merged gap — still the merged answer
		"/query?origins=2",
		"/query?origins=99",
	} {
		for _, ts := range cl {
			status, hdr, _ := get(t, ts.srv.URL+path)
			if status != http.StatusOK {
				t.Fatalf("%s via %s: HTTP %d", path, ts.name, status)
			}
			if hdr.Get(PartialHeader) != "" {
				t.Fatalf("%s via %s: unexpected partial marker %q", path, ts.name, hdr.Get(PartialHeader))
			}
			assertSameResponse(t, ts.srv.URL+path, ref.URL+path, path+" via "+ts.name)
		}
	}
}

// TestSameChunkAtThreeStations puts the same (origin, seq) chunk on
// every station — one copy longer — and checks the merge keeps exactly
// the longest, like ingest supersession would.
func TestSameChunkAtThreeStations(t *testing.T) {
	cl := newCluster(t, 3, 0)

	short1 := mkChunk(2, 7, 0, 0, 1, 0)
	long := mkChunk(2, 7, 0, 0, 1, 40)
	short2 := mkChunk(2, 7, 0, 0, 1, 2)
	mustIngest(t, cl[0].store, []*flash.Chunk{short1})
	mustIngest(t, cl[1].store, []*flash.Chunk{long})
	mustIngest(t, cl[2].store, []*flash.Chunk{short2})
	ref := refServer(t, []*flash.Chunk{short1, long, short2})

	asked := payloadAsked(cl)
	for _, path := range []string{"/files", "/files/2", "/files/2/wav", "/query"} {
		assertSameResponse(t, cl[0].srv.URL+path, ref.URL+path, path)
	}
	// s0 and s2 hold only shorter copies: the one /wav via s0 moved
	// payload from s1, the holder of the winning copy, and no one else.
	if got := asked(); got != [3]int64{0, 1, 0} {
		t.Fatalf("/wav via s0 asked (s0, s1, s2) for payload %v times, want [0 1 0]", got)
	}
	// And explicitly: one chunk, the long copy's byte count.
	status, _, body := get(t, cl[2].srv.URL+"/files/2")
	if status != http.StatusOK {
		t.Fatalf("/files/2: HTTP %d", status)
	}
	want := fmt.Sprintf("\"bytes\": %d", len(long.Data))
	if !containsStr(string(body), "\"chunks\": 1") || !containsStr(string(body), want) {
		t.Fatalf("/files/2 did not keep the longest copy:\n%s", body)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestErasureFragmentsSplitAcrossPeers archives a dispersal group's
// surviving shares on three different stations — one data chunk on s0,
// one parity fragment each on s1 and s2 — so no single station can
// decode, but a federated /wav can: the pooled shares reach k and the
// missing data chunk is reconstructed verbatim.
func TestErasureFragmentsSplitAcrossPeers(t *testing.T) {
	cl := newCluster(t, 3, 0)

	g := erasure.Group{
		File: 5, Origin: 9, FirstSeq: 0, Count: 2,
		Start: 0, End: sim.Time(2 * time.Second),
		N: 4, K: 2,
	}
	d0 := mkChunk(5, 9, 0, 0, 1, 20)
	d1 := mkChunk(5, 9, 1, 1, 2, 33)
	code, err := erasure.Cached(g.N, g.K)
	if err != nil {
		t.Fatalf("Cached: %v", err)
	}
	blobs, err := erasure.EncodeParity(code, g, []*flash.Chunk{d0, d1})
	if err != nil {
		t.Fatalf("EncodeParity: %v", err)
	}

	mustIngest(t, cl[0].store, []*flash.Chunk{d0})
	mustIngest(t, cl[1].store, erasure.Carriers(g, g.K, blobs[0]))
	mustIngest(t, cl[2].store, erasure.Carriers(g, g.K+1, blobs[1]))
	ref := refServer(t, []*flash.Chunk{d0, d1}) // both data chunks, no parity

	// No station alone can produce d1: a local-only read of file 5 on
	// s1 has no data chunks at all.
	req, _ := http.NewRequest(http.MethodGet, cl[1].srv.URL+"/files/5/wav", nil)
	req.Header.Set(LocalHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("local wav: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("local-only wav on s1 = HTTP %d, want 404", resp.StatusCode)
	}

	// The federated read reconstructs d1 from d0 + either fragment and
	// renders the reference audio byte-identically, via any station.
	for _, ts := range cl {
		assertSameResponse(t, ts.srv.URL+"/files/5/wav", ref.URL+"/files/5/wav", "erasure wav via "+ts.name)
	}

	// Payload moves only from the stations that hold what the reader
	// lacks: s0 misses both parity fragments, so it asks s1 and s2 for
	// the parity sibling — once each, and nobody for file 5 itself, of
	// which it holds the only chunk anyone has.
	asked := payloadAsked(cl)
	assertSameResponse(t, cl[0].srv.URL+"/files/5/wav", ref.URL+"/files/5/wav", "erasure wav via s0 again")
	if got := asked(); got != [3]int64{0, 1, 1} {
		t.Fatalf("/wav via s0 asked (s0, s1, s2) for payload %v times, want [0 1 1]", got)
	}
	// Once s0 has replicated everything it holds every longest copy and
	// asks no one.
	if err := cl[0].st.ReplicateOnce(context.Background()); err != nil {
		t.Fatalf("ReplicateOnce: %v", err)
	}
	asked = payloadAsked(cl)
	assertSameResponse(t, cl[0].srv.URL+"/files/5/wav", ref.URL+"/files/5/wav", "erasure wav via s0, replicated")
	if got := asked(); got != [3]int64{} {
		t.Fatalf("/wav via a station holding every longest copy asked for payload: %v", got)
	}
}

// payloadAsked returns a function reporting how many GET /repl/file
// requests each of three stations received since this call.
func payloadAsked(cl []*testStation) func() [3]int64 {
	var base [3]int64
	for i := range base {
		base[i] = cl[i].fileReqs.Load()
	}
	return func() (d [3]int64) {
		for i := range d {
			d[i] = cl[i].fileReqs.Load() - base[i]
		}
		return d
	}
}

// TestReplicationConvergence ingests a different file at every station,
// drains anti-entropy synchronously, and requires identical holdings
// everywhere — then again after more ingest, resuming from the cursors.
func TestReplicationConvergence(t *testing.T) {
	cl := newCluster(t, 3, 0)
	ctx := context.Background()

	for i, ts := range cl {
		var batch []*flash.Chunk
		for seq := uint32(0); seq < 10; seq++ {
			batch = append(batch, mkChunk(flash.FileID(i+1), int32(i*10), seq, float64(seq), float64(seq+1), i))
		}
		mustIngest(t, ts.store, batch)
	}
	for _, ts := range cl {
		if err := ts.st.ReplicateOnce(ctx); err != nil {
			t.Fatalf("ReplicateOnce(%s): %v", ts.name, err)
		}
	}
	want, _ := cl[0].store.Manifest()
	if len(want) != 3 {
		t.Fatalf("s0 has %d files after replication, want 3", len(want))
	}
	for _, ts := range cl[1:] {
		if got, _ := ts.store.Manifest(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s holdings diverge after replication", ts.name)
		}
	}

	// Cursor catch-up: new ingest at s0 only; one more pull round gets
	// everyone level again, and the cursors show zero lag.
	mustIngest(t, cl[0].store, []*flash.Chunk{mkChunk(9, 90, 0, 50, 51, 5)})
	for _, ts := range cl[1:] {
		if err := ts.st.ReplicateOnce(ctx); err != nil {
			t.Fatalf("ReplicateOnce(%s): %v", ts.name, err)
		}
		if got, _ := ts.store.Manifest(); len(got) != 4 {
			t.Fatalf("%s has %d files after catch-up, want 4", ts.name, len(got))
		}
	}
	for _, ts := range cl[1:] {
		cur := ts.st.repl.cursor("s0")
		if lag := cl[0].store.ReplStatus().Lag(cur); lag != 0 {
			t.Fatalf("%s cursor lags s0 by %d bytes after catch-up", ts.name, lag)
		}
	}
}

// TestPartialResults kills one station and checks the contract: before
// probes notice, federated answers carry X-Federation-Partial naming
// the dead peer and still merge the survivors; after a probe round the
// dead peer is excluded and the marker disappears.
func TestPartialResults(t *testing.T) {
	cl := newCluster(t, 3, 0)

	a := []*flash.Chunk{mkChunk(1, 1, 0, 0, 1, 0)}
	b := []*flash.Chunk{mkChunk(1, 2, 0, 1, 2, 0)}
	mustIngest(t, cl[0].store, a)
	mustIngest(t, cl[1].store, b)
	ref := refServer(t, append(append([]*flash.Chunk{}, a...), b...))

	cl[2].srv.Close() // s2 dies; s0 still believes it healthy

	status, hdr, body := get(t, cl[0].srv.URL+"/query")
	if status != http.StatusOK {
		t.Fatalf("/query: HTTP %d", status)
	}
	if got := hdr.Get(PartialHeader); got != "s2" {
		t.Fatalf("partial marker = %q, want \"s2\"", got)
	}
	_, _, refBody := get(t, ref.URL+"/query")
	if string(body) != string(refBody) {
		t.Fatalf("partial answer should still merge survivors:\nfed: %s\nref: %s", body, refBody)
	}
	if v := cl[0].st.cPartial.Value(); v == 0 {
		t.Fatalf("federation_partial_total = 0 after a partial response")
	}

	// A probe round marks s2 unhealthy; fan-out then skips it and the
	// answer is clean again.
	cl[0].st.ProbeOnce(context.Background())
	if cl[0].st.peers[1].healthy.Load() { // peers sorted by name: s1, s2
		t.Fatalf("s2 still marked healthy after failed probe")
	}
	status, hdr, body = get(t, cl[0].srv.URL+"/query")
	if status != http.StatusOK {
		t.Fatalf("/query after probe: HTTP %d", status)
	}
	if got := hdr.Get(PartialHeader); got != "" {
		t.Fatalf("partial marker survived peer exclusion: %q", got)
	}
	if string(body) != string(refBody) {
		t.Fatalf("post-probe answer diverged from reference")
	}
}

// TestReplicationFactorRing checks source selection: factor R makes
// each station pull from its R−1 ring predecessors, so each stripe
// lands on R stations total.
func TestReplicationFactorRing(t *testing.T) {
	mk := func(names ...string) []*peerState {
		out := make([]*peerState, len(names))
		for i, n := range names {
			out[i] = &peerState{Peer: Peer{Name: n}}
		}
		return out
	}
	names := func(ps []*peerState) []string {
		out := make([]string, len(ps))
		for i, p := range ps {
			out[i] = p.Name
		}
		return out
	}
	peers := mk("s1", "s2", "s3") // self is s0; ring s0 s1 s2 s3
	cases := []struct {
		factor int
		want   []string
	}{
		{0, []string{"s1", "s2", "s3"}}, // full mesh
		{4, []string{"s1", "s2", "s3"}}, // R >= N: full mesh
		{1, nil},                        // no replication
		{2, []string{"s3"}},             // one predecessor
		{3, []string{"s2", "s3"}},       // two predecessors
	}
	for _, tc := range cases {
		got := names(replicationSources("s0", peers, tc.factor))
		if !reflect.DeepEqual(got, tc.want) && !(len(got) == 0 && len(tc.want) == 0) {
			t.Errorf("factor %d: sources = %v, want %v", tc.factor, got, tc.want)
		}
	}
	// A middle station's predecessors wrap differently: s2 with factor 2
	// pulls from s1.
	peers2 := mk("s0", "s1", "s3")
	if got := names(replicationSources("s2", peers2, 2)); !reflect.DeepEqual(got, []string{"s1"}) {
		t.Errorf("s2 factor 2: sources = %v, want [s1]", got)
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("a=http://h1:1, h2:2 ,,b=h3:3/")
	if err != nil {
		t.Fatalf("ParsePeers: %v", err)
	}
	want := []Peer{
		{Name: "a", URL: "http://h1:1"},
		{Name: "h2:2", URL: "http://h2:2"},
		{Name: "b", URL: "http://h3:3"},
	}
	if !reflect.DeepEqual(peers, want) {
		t.Fatalf("ParsePeers = %+v, want %+v", peers, want)
	}
	if _, err := ParsePeers("x=h:1,x=h:2"); err == nil {
		t.Fatalf("duplicate peer name accepted")
	}
}

// TestCursorPersistence restarts a station and checks replication
// resumes from the persisted cursor instead of re-pulling everything.
func TestCursorPersistence(t *testing.T) {
	srcStore, err := archive.Open(filepath.Join(t.TempDir(), "src"), archive.Options{Shards: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer srcStore.Close()
	srcSrv := httptest.NewServer(archive.NewHandler(srcStore, nil))
	defer srcSrv.Close()
	mustIngest(t, srcStore, []*flash.Chunk{mkChunk(1, 1, 0, 0, 1, 0)})

	dstDir := t.TempDir()
	dstStore, err := archive.Open(filepath.Join(dstDir, "dst"), archive.Options{Shards: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cursorPath := filepath.Join(dstDir, "cursors.json")
	cfg := Config{
		Self:       "dst",
		Peers:      []Peer{{Name: "src", URL: srcSrv.URL}},
		CursorPath: cursorPath,
	}
	st, err := New(dstStore, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := st.ReplicateOnce(context.Background()); err != nil {
		t.Fatalf("ReplicateOnce: %v", err)
	}
	st.Close()
	dstStore.Close()

	// The cursor store is written compact; the indented form earlier
	// versions left on disk must load just the same.
	var indented bytes.Buffer
	if raw, err := os.ReadFile(cursorPath); err != nil || json.Indent(&indented, raw, "", "  ") != nil {
		t.Fatalf("re-indenting %s: %v", cursorPath, err)
	}
	if err := os.WriteFile(cursorPath, indented.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	dstStore2, err := archive.Open(filepath.Join(dstDir, "dst"), archive.Options{Shards: 1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer dstStore2.Close()
	st2, err := New(dstStore2, cfg)
	if err != nil {
		t.Fatalf("New after restart: %v", err)
	}
	defer st2.Close()
	cur := st2.repl.cursor("src")
	if len(cur) == 0 {
		t.Fatalf("cursor did not persist across restart")
	}
	if lag := srcStore.ReplStatus().Lag(cur); lag != 0 {
		t.Fatalf("persisted cursor lags by %d bytes, want 0", lag)
	}
	// A pull from the persisted cursor ships nothing new.
	n, lag, err := st2.repl.pullOnce(context.Background(), st2.peers[0], 0)
	if err != nil || n != 0 || lag != 0 {
		t.Fatalf("pull after restart = (%d chunks, lag %d, %v), want (0, 0, nil)", n, lag, err)
	}
}

// TestPullRefusesOverBudgetDelta: a peer that ignores max= and answers
// /repl/delta with more than the budget plus Delta's frame of slack per
// shard fails the pull — nothing ingested, cursor where it was — and the
// same peer honouring the budget converges from that cursor.
func TestPullRefusesOverBudgetDelta(t *testing.T) {
	src, err := archive.Open(filepath.Join(t.TempDir(), "src"), archive.Options{Shards: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer src.Close()
	var batch []*flash.Chunk
	for seq := uint32(0); seq < 40; seq++ {
		batch = append(batch, mkChunk(flash.FileID(seq%4+1), 1, seq, float64(seq), float64(seq+1), 100))
	}
	mustIngest(t, src, batch)
	var greedy atomic.Bool
	honest := archive.NewHandler(src, nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if greedy.Load() && r.URL.Path == "/repl/delta" {
			q := r.URL.Query()
			q.Del("max") // the whole log in one body
			r.URL.RawQuery = q.Encode()
		}
		honest.ServeHTTP(w, r)
	}))
	defer srv.Close()

	dst, err := archive.Open(filepath.Join(t.TempDir(), "dst"), archive.Options{Shards: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer dst.Close()
	st, err := New(dst, Config{Self: "dst", Peers: []Peer{{Name: "src", URL: srv.URL}}, MaxDeltaBytes: 1 << 10})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer st.Close()

	greedy.Store(true)
	n, _, err := st.repl.pullOnce(context.Background(), st.peers[0], 0)
	if err == nil || n != 0 || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("pull of an over-budget delta = (%d chunks, %v), want a refusal naming the cap", n, err)
	}
	if cur := st.repl.cursor("src"); len(cur) != 0 {
		t.Fatalf("cursor advanced to %v on a refused pull", cur)
	}
	if got := dst.Stats(); got.Chunks != 0 || got.SegmentBytes != 0 {
		t.Fatalf("refused pull left %d chunks, %d segment bytes", got.Chunks, got.SegmentBytes)
	}

	greedy.Store(false)
	if err := st.ReplicateOnce(context.Background()); err != nil {
		t.Fatalf("ReplicateOnce: %v", err)
	}
	want, _ := src.Manifest()
	if got, _ := dst.Manifest(); !reflect.DeepEqual(got, want) {
		t.Fatalf("holdings differ after pulling within budget")
	}
	if pulls := st.peers[0].cPulls.Value(); pulls < 4 {
		t.Fatalf("%d pulls moved %d bytes under a 1 KiB budget", pulls, src.Stats().SegmentBytes)
	}
}
