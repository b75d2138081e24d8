package federation

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"enviromic/internal/archive"
	"enviromic/internal/flash"
)

// manifestCounts is the read plane's own account of its peer-manifest
// traffic since the previous call.
type manifestCounts struct {
	unchanged, fetched, errors, bytes, rebuilds int64
}

func countManifests(st *Station) func() manifestCounts {
	read := func() manifestCounts {
		return manifestCounts{
			st.cManifestUnchanged.Value(), st.cManifestFetched.Value(), st.cManifestErrors.Value(),
			st.cManifestBytes.Value(), st.cViewRebuilds.Value(),
		}
	}
	base := read()
	return func() manifestCounts {
		now := read()
		d := manifestCounts{
			now.unchanged - base.unchanged, now.fetched - base.fetched, now.errors - base.errors,
			now.bytes - base.bytes, now.rebuilds - base.rebuilds,
		}
		base = now
		return d
	}
}

// TestNoStaleReadAfterPeerIngest warms a station's merged view, then
// ingests on a peer: the very next read of every endpoint must already
// show it, byte for byte what a single station holding the union says.
func TestNoStaleReadAfterPeerIngest(t *testing.T) {
	cl := newCluster(t, 3, 0)
	a := []*flash.Chunk{mkChunk(1, 1, 0, 0, 1, 0), mkChunk(1, 1, 1, 1, 2, 0)}
	b := []*flash.Chunk{mkChunk(1, 2, 0, 2, 3, 0)}
	mustIngest(t, cl[0].store, a)
	mustIngest(t, cl[1].store, b)
	ref, refStore := refStation(t, append(append([]*flash.Chunk{}, a...), b...))

	paths := []string{"/query", "/query?from=1s&to=30s", "/files", "/files/1", "/files/1/gaps", "/files/1/wav"}
	for _, reader := range []*testStation{cl[0], cl[2]} { // one that holds part of the file, one that holds none
		for _, path := range paths {
			assertSameResponse(t, reader.srv.URL+path, ref.URL+path, "warm-up "+path)
		}
	}
	for i, path := range paths {
		// Each round s1 hears one more chunk of file 1 — the first after a
		// hole, so /gaps moves too — and one chunk of a brand-new file.
		seq := uint32(10 + i)
		fresh := []*flash.Chunk{
			mkChunk(1, 2, seq, float64(2*seq), float64(2*seq+1), i),
			mkChunk(flash.FileID(100+i), 7, 0, 5, 6, 0),
		}
		mustIngest(t, cl[1].store, fresh)
		mustIngest(t, refStore, fresh)
		for _, reader := range []*testStation{cl[0], cl[2]} {
			assertSameResponse(t, reader.srv.URL+path, ref.URL+path, fmt.Sprintf("%s via %s right after s1 ingested", path, reader.name))
		}
	}
}

// TestSplitFileListedColdAndWarm is the file handler.go filters on
// merged spans for: its halves sit on two stations, each half alone
// misses the query window, and the merged span overlaps it. It must be
// listed by the first federated read and by every later one served from
// the memoized view.
func TestSplitFileListedColdAndWarm(t *testing.T) {
	cl := newCluster(t, 3, 0)
	head := mkChunk(1, 1, 0, 0, 1, 0)
	tail := mkChunk(1, 2, 0, 9, 10, 0)
	mustIngest(t, cl[0].store, []*flash.Chunk{head})
	mustIngest(t, cl[1].store, []*flash.Chunk{tail})
	ref := refServer(t, []*flash.Chunk{head, tail})

	const window = "/query?from=4s&to=5s"
	for _, ts := range cl {
		// Neither half answers for the window on its own.
		req, _ := http.NewRequest(http.MethodGet, ts.srv.URL+window, nil)
		req.Header.Set(LocalHeader, "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("local %s on %s: %v", window, ts.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.TrimSpace(string(body)) != "[]" {
			t.Fatalf("%s alone lists something in the window: %s", ts.name, body)
		}
		counts := countManifests(ts.st)
		for _, temp := range []string{"cold", "warm", "warm again"} {
			_, _, body := get(t, ts.srv.URL+window)
			if !strings.Contains(string(body), `"id": 1`) {
				t.Fatalf("%s read via %s does not list the split file: %s", temp, ts.name, body)
			}
			assertSameResponse(t, ts.srv.URL+window, ref.URL+window, temp+" via "+ts.name)
		}
		if c := counts(); c.rebuilds != 1 || c.fetched != 2 || c.unchanged != 2*5 {
			t.Fatalf("%s: six reads cost %+v, want one merge of two fetched manifests and ten revalidations", ts.name, c)
		}
	}
}

// TestCachedPeerDies: a peer whose manifest is already cached stops
// answering. Its rows must leave the merge at once (named in the
// header), stay out while the prober excludes it, and come back — by
// revalidation, without a re-fetch — once it answers again.
func TestCachedPeerDies(t *testing.T) {
	cl := newCluster(t, 3, 0)
	a := []*flash.Chunk{mkChunk(1, 1, 0, 0, 1, 0)}
	b := []*flash.Chunk{mkChunk(1, 2, 0, 1, 2, 0)}
	c := []*flash.Chunk{mkChunk(1, 3, 0, 2, 3, 0), mkChunk(2, 3, 0, 7, 8, 0)}
	mustIngest(t, cl[0].store, a)
	mustIngest(t, cl[1].store, b)
	mustIngest(t, cl[2].store, c)
	survivors := append(append([]*flash.Chunk{}, a...), b...)
	whole := refServer(t, append(append([]*flash.Chunk{}, survivors...), c...))
	without := refServer(t, survivors)

	paths := []string{"/query", "/files", "/files/1", "/files/1/gaps", "/files/1/wav"}
	check := func(ref string, partial string, label string) {
		t.Helper()
		for _, path := range paths {
			status, hdr, body := get(t, cl[0].srv.URL+path)
			_, _, want := get(t, ref+path)
			if status != http.StatusOK || hdr.Get(PartialHeader) != partial || string(body) != string(want) {
				t.Fatalf("%s: %s = HTTP %d, partial %q (want %q), body matches reference: %v",
					label, path, status, hdr.Get(PartialHeader), partial, string(body) == string(want))
			}
		}
	}
	check(whole.URL, "", "all up")

	live, _ := cl[2].handler.Load().(http.Handler)
	cl[2].handler.Store(downHandler)
	check(without.URL, "s2", "s2 dead, not yet probed")

	cl[0].st.ProbeOnce(context.Background())
	check(without.URL, "", "s2 dead and excluded")

	cl[2].handler.Store(live)
	counts := countManifests(cl[0].st)
	if err := cl[0].st.ProbeOnce(context.Background()); err != nil {
		t.Fatalf("ProbeOnce after s2 came back: %v", err)
	}
	check(whole.URL, "", "s2 back")
	if c := counts(); c.fetched != 0 || c.errors != 0 || c.rebuilds != 1 {
		t.Fatalf("s2's return cost %+v, want no manifest fetched (its tag never moved) and one merge", c)
	}
}

// TestRestartedPeerIsRefetched restarts a peer on the same directory:
// same rows, same shard sizes, but a new boot nonce — so the tag moves
// and the cached manifest is not trusted across the restart.
func TestRestartedPeerIsRefetched(t *testing.T) {
	cl := newCluster(t, 3, 0)
	a := []*flash.Chunk{mkChunk(1, 1, 0, 0, 1, 0)}
	b := []*flash.Chunk{mkChunk(1, 2, 0, 1, 2, 0), mkChunk(3, 2, 0, 4, 5, 0)}
	mustIngest(t, cl[0].store, a)
	mustIngest(t, cl[1].store, b)
	ref := refServer(t, append(append([]*flash.Chunk{}, a...), b...))

	manifestTag := func(peer string) (string, int) {
		t.Helper()
		_, _, body := get(t, cl[0].srv.URL+"/federation")
		var fed struct {
			Peers []struct {
				Name   string `json:"name"`
				Tag    string `json:"manifest_tag"`
				Chunks int    `json:"manifest_chunks"`
			} `json:"peers"`
		}
		if err := json.Unmarshal(body, &fed); err != nil {
			t.Fatalf("/federation: %v", err)
		}
		for _, p := range fed.Peers {
			if p.Name == peer {
				return p.Tag, p.Chunks
			}
		}
		t.Fatalf("/federation does not list %s: %s", peer, body)
		return "", 0
	}

	assertSameResponse(t, cl[0].srv.URL+"/query", ref.URL+"/query", "before restart")
	tagBefore, chunks := manifestTag("s1")
	if tagBefore == "" || chunks != 2 {
		t.Fatalf("/federation reports s1's manifest as (%q, %d chunks), want a tag and 2", tagBefore, chunks)
	}

	cl[1].handler.Store(downHandler)
	cl[1].shutdown()
	cl[1].boot(t)

	counts := countManifests(cl[0].st)
	assertSameResponse(t, cl[0].srv.URL+"/query", ref.URL+"/query", "after restart")
	if c := counts(); c.fetched != 1 || c.unchanged != 1 || c.bytes == 0 {
		t.Fatalf("read after s1's restart cost %+v, want s1 fetched anew and s2 revalidated", c)
	}
	if tagAfter, _ := manifestTag("s1"); tagAfter == tagBefore {
		t.Fatalf("s1 presents tag %q on both sides of a restart", tagAfter)
	}
}

// TestBadPeerBodiesDegradeToPartial swaps one station for impostors whose
// /repl/manifest answers are truncated, longer than the cap, garbled or
// untagged. Each must count as that peer failing — named in the header,
// the survivors still merged — never as an empty or half-read manifest.
func TestBadPeerBodiesDegradeToPartial(t *testing.T) {
	cl := newCluster(t, 3, 0)
	a := []*flash.Chunk{mkChunk(1, 1, 0, 0, 1, 0)}
	b := []*flash.Chunk{mkChunk(1, 2, 0, 1, 2, 0)}
	mustIngest(t, cl[0].store, a)
	mustIngest(t, cl[1].store, b)
	mustIngest(t, cl[2].store, []*flash.Chunk{mkChunk(8, 8, 0, 3, 4, 0)})
	without := refServer(t, append(append([]*flash.Chunk{}, a...), b...))
	_, _, want := get(t, without.URL+"/query")
	get(t, cl[0].srv.URL+"/query") // s0 now holds s1's and s2's manifests

	good, _ := cl[2].store.Manifest()
	body := archive.EncodeManifest(good)
	impostor := func(manifest http.HandlerFunc) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/repl/manifest" {
				manifest(w, r)
				return
			}
			http.Error(w, "not served", http.StatusNotFound)
		})
	}
	cases := map[string]http.HandlerFunc{
		"truncated": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("ETag", `"t"`)
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.Write(body[:len(body)/2])
		},
		"over-long": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("ETag", `"t"`)
			w.Header().Set("Content-Length", strconv.Itoa(maxPeerBody+1))
			w.Write(body)
		},
		"garbled": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("ETag", `"t"`)
			w.Write(body[:len(body)-3])
		},
		"untagged": func(w http.ResponseWriter, r *http.Request) {
			w.Write(body)
		},
		"5xx": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		},
	}
	for name, h := range cases {
		cl[2].handler.Store(impostor(h))
		counts := countManifests(cl[0].st)
		status, hdr, got := get(t, cl[0].srv.URL+"/query")
		if status != http.StatusOK || hdr.Get(PartialHeader) != "s2" {
			t.Fatalf("%s manifest: HTTP %d, partial %q, want 200 naming s2", name, status, hdr.Get(PartialHeader))
		}
		if string(got) != string(want) {
			t.Fatalf("%s manifest leaked into the merge:\nfed: %s\nref: %s", name, got, want)
		}
		if c := counts(); c.errors != 1 || c.fetched != 0 {
			t.Fatalf("%s manifest counted as %+v, want one error", name, c)
		}
	}
}

// TestReadCapped covers the one path the impostors above cannot reach
// without a 64 MB body: a response of undeclared length that runs past
// the cap.
func TestReadCapped(t *testing.T) {
	resp := func(body string, declared int64) *http.Response {
		return &http.Response{Body: io.NopCloser(strings.NewReader(body)), ContentLength: declared}
	}
	if b, err := readCapped(resp("12345678", -1), 8); err != nil || string(b) != "12345678" {
		t.Fatalf("body at the cap = %q, %v", b, err)
	}
	if b, err := readCapped(resp("123456789", -1), 8); err == nil {
		t.Fatalf("undeclared body past the cap accepted: %q", b)
	}
	if b, err := readCapped(resp("12", 9), 8); err == nil {
		t.Fatalf("declared length past the cap accepted: %q", b)
	}
}

// TestQueryCostsAnswerNotArchive is the count behind the O(answer)
// claim, at the size the benchmark workload had to be cut down from:
// 400 files of 220 chunks on each of three stations. Once one read has
// merged the view, fifty more move no manifest bytes, merge nothing, and
// cost exactly one conditional request per peer each.
func TestQueryCostsAnswerNotArchive(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 3 x 88 000 chunks")
	}
	cl := newCluster(t, 3, 0)
	replicateEverywhere(t, cl, 400, 220)

	counts := countManifests(cl[0].st)
	fanouts := cl[0].st.cFanouts.Value()
	status, _, first := get(t, cl[0].srv.URL+"/query?from=30m&to=31m")
	if c := counts(); status != http.StatusOK || c.fetched != 2 || c.rebuilds != 1 || c.bytes < 2*400*220*28 {
		t.Fatalf("cold read: HTTP %d, %+v; want both peers' manifests fetched and merged once", status, c)
	}
	for i := 0; i < 50; i++ {
		status, hdr, body := get(t, cl[0].srv.URL+"/query?from=30m&to=31m")
		if status != http.StatusOK || hdr.Get(PartialHeader) != "" || string(body) != string(first) {
			t.Fatalf("warm read %d: HTTP %d, partial %q, same body: %v", i, status, hdr.Get(PartialHeader), string(body) == string(first))
		}
	}
	if c := counts(); c != (manifestCounts{unchanged: 2 * 50}) {
		t.Fatalf("50 warm reads cost %+v, want 100 revalidations and nothing else", c)
	}
	if got := cl[0].st.cFanouts.Value() - fanouts; got != 51 {
		t.Fatalf("51 reads made %d fan-out rounds", got)
	}
	if !strings.Contains(string(first), `"chunks": 220`) {
		t.Fatalf("window lists no 220-chunk file: %s", first)
	}
}

// replicateEverywhere ingests the same files×chunks data set into every
// station, the state federation-read measures: all converged, every
// station holding every longest copy. File f covers 17.6 s from minute
// f on, recorded by two motes in turn.
func replicateEverywhere(t testing.TB, cl []*testStation, files, chunks int) {
	t.Helper()
	batch := make([]*flash.Chunk, 0, chunks)
	for f := 1; f <= files; f++ {
		batch = batch[:0]
		for seq := 0; seq < chunks; seq++ {
			at := float64(f)*60 + float64(seq)*0.08
			batch = append(batch, mkChunk(flash.FileID(f), int32(1+2*seq/chunks), uint32(seq), at, at+0.08, 4))
		}
		for _, ts := range cl {
			mustIngest(t, ts.store, batch)
		}
	}
}

// TestConcurrentReadsWhilePeerIngests races federated reads of every
// endpoint against a peer's ingest stream (run it under -race): no read
// may fail or come back partial, and when the stream stops the next read
// equals the reference.
func TestConcurrentReadsWhilePeerIngests(t *testing.T) {
	cl := newCluster(t, 3, 0)
	seed := []*flash.Chunk{mkChunk(1, 1, 0, 0, 1, 0)}
	mustIngest(t, cl[0].store, seed)
	ref, refStore := refStation(t, seed)

	paths := []string{"/query", "/query?from=0s&to=5s", "/files", "/files/1", "/files/1/gaps", "/files/1/wav"}
	// tick paces the stream: at least one read completes between two
	// ingests, so reads land on both sides of every change.
	stop, failed, tick := make(chan struct{}), make(chan struct{}), make(chan struct{}, 1)
	var failOnce sync.Once
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		failOnce.Do(func() { close(failed) })
	}
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url := cl[g%2].srv.URL + paths[(g+i)%len(paths)]
				resp, err := http.Get(url)
				if err != nil {
					fail("GET %s: %v", url, err)
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get(PartialHeader) != "" {
					fail("GET %s: HTTP %d, partial %q, %v", url, resp.StatusCode, resp.Header.Get(PartialHeader), err)
					return
				}
				select {
				case tick <- struct{}{}:
				default:
				}
			}
		}(g)
	}
	for seq := uint32(1); seq <= 60; seq++ {
		fresh := []*flash.Chunk{mkChunk(1, 2, seq, float64(seq), float64(seq+1), int(seq%5))}
		mustIngest(t, cl[1].store, fresh)
		mustIngest(t, refStore, fresh)
		select {
		case <-tick:
		case <-failed:
		}
	}
	close(stop)
	readers.Wait()
	for _, path := range paths {
		assertSameResponse(t, cl[0].srv.URL+path, ref.URL+path, path+" after the stream")
	}
}
