package archive

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"testing"
	"time"

	"enviromic/internal/flash"
)

// deltaAnswer is one /repl/delta response as a puller reads it.
type deltaAnswer struct {
	status      int
	cursor, lag string
	body        []byte
	took        time.Duration
}

// getDelta asks srv for the delta after cur, holding for wait ("" sends
// no wait parameter).
func getDelta(ctx context.Context, srvURL string, cur ReplCursor, wait string) (deltaAnswer, error) {
	u := srvURL + "/repl/delta?cursor=" + url.QueryEscape(cur.String())
	if wait != "" {
		u += "&wait=" + wait
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return deltaAnswer{}, err
	}
	t0 := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return deltaAnswer{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return deltaAnswer{
		status: resp.StatusCode,
		cursor: resp.Header.Get(ReplCursorHeader),
		lag:    resp.Header.Get(ReplLagHeader),
		body:   body,
		took:   time.Since(t0),
	}, err
}

// caughtUp is the cursor a puller holds once it has everything s has.
func caughtUp(t *testing.T, s *Store) ReplCursor {
	t.Helper()
	_, next, lag, err := s.Delta(nil, 1<<30)
	if err != nil || lag != 0 {
		t.Fatalf("Delta = lag %d, %v", lag, err)
	}
	return next
}

// waitHeld blocks until a /repl/delta request has taken the store's
// change channel, i.e. is about to hold or already holds.
func waitHeld(t *testing.T, s *Store) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.env.changed.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("no request ever waited on the store")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplDeltaWait: wait= holds an empty delta until the store's
// manifest tag moves (an appending ingest, a compaction swap), the store
// closes, the wait runs out or the client leaves; anything with frames to
// ship, and every request without wait=, is answered at once.
func TestReplDeltaWait(t *testing.T) {
	const hold = 10 * time.Second // a response that took this long was not woken
	const prompt = 2 * time.Second

	setup := func(t *testing.T) (*Store, *httptest.Server, ReplCursor) {
		s, srv := newTestServer(t)
		return s, srv, caughtUp(t, s)
	}
	// heldThen starts a held pull, runs act once it holds, and returns
	// the answer.
	heldThen := func(t *testing.T, s *Store, srvURL string, cur ReplCursor, wait string, act func()) deltaAnswer {
		t.Helper()
		type result struct {
			a   deltaAnswer
			err error
		}
		done := make(chan result, 1)
		go func() {
			a, err := getDelta(context.Background(), srvURL, cur, wait)
			done <- result{a, err}
		}()
		waitHeld(t, s)
		act()
		r := <-done
		if r.err != nil {
			t.Fatalf("held pull: %v", r.err)
		}
		return r.a
	}

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"frames already present: answered at once", func(t *testing.T) {
			_, srv, _ := setup(t)
			a, err := getDelta(context.Background(), srv.URL, nil, hold.String())
			if err != nil || a.status != http.StatusOK || len(a.body) == 0 || a.took > prompt {
				t.Fatalf("got HTTP %d, %d bytes after %v (%v); want the frames at once", a.status, len(a.body), a.took, err)
			}
		}},
		{"empty: held, then the frames of an ingest", func(t *testing.T) {
			s, srv, cur := setup(t)
			a := heldThen(t, s, srv.URL, cur, hold.String(), func() {
				mustIngest(t, s, []*flash.Chunk{mkChunk(7, 7, 0, 30, 31)})
			})
			frames, err := DecodeFrames(a.body)
			if a.status != http.StatusOK || err != nil || len(frames) != 1 || frames[0].File != 7 || a.took > prompt {
				t.Fatalf("got HTTP %d, %d frames (%v) after %v; want the new chunk at once", a.status, len(frames), err, a.took)
			}
			if a.cursor != caughtUp(t, s).String() || a.lag != "0" {
				t.Fatalf("cursor %q lag %q; want caught up", a.cursor, a.lag)
			}
		}},
		{"duplicate-only ingest does not wake", func(t *testing.T) {
			s, srv, cur := setup(t)
			const wait = 300 * time.Millisecond
			a := heldThen(t, s, srv.URL, cur, wait.String(), func() {
				if rep := mustIngest(t, s, []*flash.Chunk{mkChunk(1, 3, 0, 0, 1)}); rep.Added != 0 || rep.Duplicates != 1 {
					t.Errorf("re-ingest = %+v, want one duplicate", rep)
				}
			})
			if a.status != http.StatusOK || len(a.body) != 0 || a.took < wait {
				t.Fatalf("got HTTP %d, %d bytes after %v; want empty after the whole %v", a.status, len(a.body), a.took, wait)
			}
		}},
		{"compaction wakes", func(t *testing.T) {
			s, srv, _ := setup(t)
			longer := mkChunk(1, 3, 0, 0, 1)
			longer.Data = append(longer.Data, 1, 2, 3, 4)
			mustIngest(t, s, []*flash.Chunk{longer}) // strands a superseded frame
			cur := caughtUp(t, s)
			a := heldThen(t, s, srv.URL, cur, hold.String(), func() {
				if rep, err := s.Compact(); err != nil || rep.Shards == 0 {
					t.Errorf("Compact = %+v, %v; want a rewrite", rep, err)
				}
			})
			if a.status != http.StatusOK || a.took > prompt || a.cursor == cur.String() {
				t.Fatalf("got HTTP %d, cursor %q after %v; want the new generation at once", a.status, a.cursor, a.took)
			}
		}},
		{"Store.Close wakes", func(t *testing.T) {
			s, srv, cur := setup(t)
			a := heldThen(t, s, srv.URL, cur, hold.String(), func() {
				if err := s.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			})
			if a.status != http.StatusInternalServerError || a.took > prompt {
				t.Fatalf("got HTTP %d after %v; want a closed store's 500 at once", a.status, a.took)
			}
			select {
			case <-s.Changed():
			default:
				t.Fatal("Changed is open on a closed store")
			}
		}},
		{"timeout: today's empty answer", func(t *testing.T) {
			_, srv, cur := setup(t)
			const wait = 100 * time.Millisecond
			a, err := getDelta(context.Background(), srv.URL, cur, wait.String())
			took := a.took
			want, _ := getDelta(context.Background(), srv.URL, cur, "")
			a.took, want.took = 0, 0
			if err != nil || !reflect.DeepEqual(a, want) || len(a.body) != 0 || a.lag != "0" || took < wait {
				t.Fatalf("got %+v after %v (%v), want %+v after %v", a, took, err, want, wait)
			}
		}},
		{"client cancel: the handler returns", func(t *testing.T) {
			s := openTest(t, t.TempDir(), Options{Shards: 2})
			t.Cleanup(func() { s.Close() })
			returned := make(chan struct{}, 1)
			h := NewHandler(s, nil)
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				h.ServeHTTP(w, r)
				returned <- struct{}{}
			}))
			t.Cleanup(srv.Close)
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() {
				_, err := getDelta(ctx, srv.URL, nil, hold.String())
				errc <- err
			}()
			waitHeld(t, s)
			t0 := time.Now()
			cancel()
			if err := <-errc; err == nil {
				t.Fatal("cancelled pull succeeded")
			}
			select {
			case <-returned:
			case <-time.After(prompt):
				t.Fatalf("handler still holding %v after the client left", time.Since(t0))
			}
		}},
		{"no wait: today's response, at once", func(t *testing.T) {
			s, _, cur := setup(t)
			h := NewHandler(s, nil)
			for _, c := range []ReplCursor{nil, cur} {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/repl/delta?cursor="+url.QueryEscape(c.String())+"&max=4096", nil))
				frames, next, lag, err := s.Delta(c, 4096)
				if err != nil {
					t.Fatal(err)
				}
				wantHdr := http.Header{
					"Content-Type":   {"application/octet-stream"},
					ReplCursorHeader: {next.String()},
					ReplLagHeader:    {strconv.FormatInt(lag, 10)},
				}
				if rec.Code != http.StatusOK || !reflect.DeepEqual(rec.Header(), wantHdr) || !bytes.Equal(rec.Body.Bytes(), frames) {
					t.Fatalf("cursor %q: HTTP %d, header %v, %d bytes; want 200, %v, %d bytes",
						c, rec.Code, rec.Header(), rec.Body.Len(), wantHdr, len(frames))
				}
			}
			if s.env.changed.Load() != nil {
				t.Fatal("a request without wait= took the change channel")
			}
		}},
		{"bad wait: 400", func(t *testing.T) {
			_, srv, cur := setup(t)
			for _, w := range []string{"-1s", "61s", "1h", "soon", "5"} {
				if a, err := getDelta(context.Background(), srv.URL, cur, w); err != nil || a.status != http.StatusBadRequest {
					t.Errorf("wait=%s: HTTP %d, %v; want 400", w, a.status, err)
				}
			}
			if a, err := getDelta(context.Background(), srv.URL, cur, "0s"); err != nil || a.status != http.StatusOK || a.took > prompt {
				t.Errorf("wait=0s: HTTP %d after %v, %v; want an immediate 200", a.status, a.took, err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}
