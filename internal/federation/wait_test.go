package federation

import (
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"enviromic/internal/archive"
	"enviromic/internal/flash"
)

// slow is an interval no test below may wait out: anything that happens
// in time happened because of a held pull or a re-probe, not a timer.
const slow = 10 * time.Second

// holds reports whether s archives file id.
func holds(s *archive.Store, id flash.FileID) bool {
	_, err := s.Info(id)
	return err == nil
}

// waitUntil polls cond every millisecond until it holds or budget runs
// out, and returns how long that took.
func waitUntil(t *testing.T, budget time.Duration, what string, cond func() bool) time.Duration {
	t.Helper()
	t0 := time.Now()
	for !cond() {
		if time.Since(t0) > budget {
			t.Fatalf("%s: not within %v", what, budget)
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(t0)
}

// TestHeldPullsReplicateInRoundTrips: three stations, R=2, started with
// 10 s replication and probe intervals. A chunk ingested at s0 reaches
// s1 (which pulls s0) and s2 (which pulls s1, so two hops) within
// 500 ms, the first time and again once every puller is caught up and
// held.
func TestHeldPullsReplicateInRoundTrips(t *testing.T) {
	cl := newCluster(t, 3, 2)
	for _, ts := range cl {
		ts.st.cfg.ReplInterval, ts.st.cfg.ProbeInterval = slow, slow
	}
	for _, ts := range cl {
		ts.st.Start()
	}
	for i := 1; i <= 2; i++ {
		id := flash.FileID(i)
		mustIngest(t, cl[0].store, []*flash.Chunk{mkChunk(id, 1, uint32(i), float64(i), float64(i+1), 8)})
		took := waitUntil(t, 500*time.Millisecond, "s1 and s2 hold s0's chunk", func() bool {
			return holds(cl[1].store, id) && holds(cl[2].store, id)
		})
		t.Logf("ingest %d: two hops in %v", i, took)
	}
}

// TestStationStartedBeforePeer: a station started while its peer refuses
// connections sees the peer healthy, and has pulled from it, within 1 s
// of the peer coming up — with 10 s replication and probe intervals.
func TestStationStartedBeforePeer(t *testing.T) {
	src, err := archive.Open(filepath.Join(t.TempDir(), "src"), archive.Options{Shards: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer src.Close()
	mustIngest(t, src, []*flash.Chunk{mkChunk(3, 1, 0, 0, 1, 8)})

	// Reserve an address, then leave it refusing connections.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	dst, err := archive.Open(filepath.Join(t.TempDir(), "dst"), archive.Options{Shards: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer dst.Close()
	st, err := New(dst, Config{
		Self: "dst", Peers: []Peer{{Name: "src", URL: "http://" + addr}},
		ReplInterval: slow, ProbeInterval: slow,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st.Start()
	defer st.Close()
	peer := st.peers[0]
	waitUntil(t, 5*time.Second, "the refused peer marked down", func() bool { return !peer.healthy.Load() })
	time.Sleep(300 * time.Millisecond) // down for a while, past the first re-probes

	ln, err = net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("re-listening on %s: %v", addr, err)
	}
	srv := httptest.NewUnstartedServer(archive.NewHandler(src, nil))
	srv.Listener.Close()
	srv.Listener = ln
	srv.Start()
	defer srv.Close()
	took := waitUntil(t, time.Second, "peer healthy and pulled from", func() bool {
		return peer.healthy.Load() && holds(dst, 3)
	})
	t.Logf("healthy and replicated %v after the peer came up", took)
	st.Close() // before srv.Close, which would wait out the held pull
}

// pullClock records when each /repl/delta request leaves the client.
type pullClock struct {
	mu    sync.Mutex
	pulls []time.Time
}

func (c *pullClock) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/repl/delta" {
		c.mu.Lock()
		c.pulls = append(c.pulls, time.Now())
		c.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestWaitIgnoringSourceKeepsInterval: a source that answers /repl/delta
// at once whatever wait says is not polled in a loop. After the pull
// that brought its frames and the one that found it caught up, pulls
// are at least ReplInterval apart.
func TestWaitIgnoringSourceKeepsInterval(t *testing.T) {
	src, err := archive.Open(filepath.Join(t.TempDir(), "src"), archive.Options{Shards: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer src.Close()
	mustIngest(t, src, []*flash.Chunk{mkChunk(4, 1, 0, 0, 1, 8)})
	h := archive.NewHandler(src, nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		q.Del("wait")
		r.URL.RawQuery = q.Encode()
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	dst, err := archive.Open(filepath.Join(t.TempDir(), "dst"), archive.Options{Shards: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer dst.Close()
	const interval = 100 * time.Millisecond
	clock := &pullClock{}
	st, err := New(dst, Config{
		Self: "dst", Peers: []Peer{{Name: "src", URL: srv.URL}},
		ReplInterval: interval, ProbeInterval: slow,
		Client: &http.Client{Transport: clock},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st.Start()
	const window = 650 * time.Millisecond
	time.Sleep(window)
	st.Close()

	if !holds(dst, 4) {
		t.Fatal("the source's chunk never replicated")
	}
	pulls := clock.pulls
	if max := 2 + int(window/interval); len(pulls) > max {
		t.Fatalf("%d pulls in %v at a %v interval, want at most %d", len(pulls), window, interval, max)
	}
	const slack = time.Millisecond // building a request, before the clock reads
	for i := 2; i < len(pulls); i++ {
		if gap := pulls[i].Sub(pulls[i-1]); gap < interval-slack {
			t.Fatalf("pulls %d and %d only %v apart, want >= %v", i-1, i, gap, interval)
		}
	}
}
