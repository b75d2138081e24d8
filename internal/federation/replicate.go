package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"enviromic/internal/archive"
)

// pullTimeout bounds one delta pull (request + body). Generous next to
// FanoutTimeout: a pull moves up to MaxDeltaBytes of payload, a fan-out
// moves metadata.
const pullTimeout = 15 * time.Second

// replicator runs pull-based anti-entropy against this station's
// replication sources. Cursors advance only after the pulled frames are
// durably ingested, so a crash between pull and ingest merely re-pulls
// a range the dedup path absorbs.
type replicator struct {
	st      *Station
	sources []*peerState

	mu      sync.Mutex
	cursors map[string]archive.ReplCursor // by peer name
}

func newReplicator(st *Station) (*replicator, error) {
	r := &replicator{
		st:      st,
		sources: replicationSources(st.cfg.Self, st.peers, st.cfg.ReplicationFactor),
		cursors: make(map[string]archive.ReplCursor),
	}
	if err := r.load(); err != nil {
		return nil, err
	}
	return r, nil
}

// replicationSources picks which peers this station pulls from. Factor
// R means every station's stripe ends up on R stations: all names
// (self included) are sorted into a ring, and each station pulls from
// its R−1 immediate ring predecessors — so a station's own data is
// held by itself and its R−1 successors. R <= 0 or R > station count
// pulls from everyone (full mesh); R == 1 pulls from no one.
func replicationSources(self string, peers []*peerState, factor int) []*peerState {
	n := len(peers) + 1
	if factor <= 0 || factor >= n {
		return peers
	}
	if factor == 1 {
		return nil
	}
	ring := make([]string, 0, n)
	ring = append(ring, self)
	byName := make(map[string]*peerState, len(peers))
	for _, p := range peers {
		ring = append(ring, p.Name)
		byName[p.Name] = p
	}
	sort.Strings(ring)
	selfIdx := sort.SearchStrings(ring, self)
	out := make([]*peerState, 0, factor-1)
	for k := 1; k < factor; k++ {
		name := ring[((selfIdx-k)%n+n)%n]
		out = append(out, byName[name])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (r *replicator) cursor(peer string) archive.ReplCursor {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cursors[peer]
}

func (r *replicator) setCursor(peer string, cur archive.ReplCursor) {
	r.mu.Lock()
	r.cursors[peer] = cur
	r.mu.Unlock()
}

// cursorFile is the persisted cursor store.
type cursorFile struct {
	Cursors map[string]string `json:"cursors"`
}

func (r *replicator) load() error {
	path := r.st.cfg.CursorPath
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var cf cursorFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return fmt.Errorf("federation: corrupt cursor store %s: %w", path, err)
	}
	for peer, s := range cf.Cursors {
		cur, err := archive.ParseReplCursor(s)
		if err != nil {
			// A bad cursor only costs a re-pull from zero; don't refuse
			// to start over it.
			continue
		}
		r.cursors[peer] = cur
	}
	return nil
}

// save persists the cursors atomically (temp + rename). Errors are
// dropped: a stale cursor store only means extra idempotent re-pulls.
func (r *replicator) save() {
	path := r.st.cfg.CursorPath
	if path == "" {
		return
	}
	r.mu.Lock()
	cf := cursorFile{Cursors: make(map[string]string, len(r.cursors))}
	for peer, cur := range r.cursors {
		cf.Cursors[peer] = cur.String()
	}
	r.mu.Unlock()
	data, err := json.Marshal(cf)
	if err != nil {
		return
	}
	tmp := path + ".tmp"
	if os.WriteFile(tmp, append(data, '\n'), 0o644) == nil {
		os.Rename(tmp, path)
	}
}

// pullOnce pulls one delta batch from p and ingests it. Returns how
// many chunks the batch carried and the lag still behind p after it.
// With wait > 0, p holds an empty answer until its store changes, for at
// most wait.
func (r *replicator) pullOnce(ctx context.Context, p *peerState, wait time.Duration) (chunks int, lag int64, err error) {
	ctx, cancel := context.WithTimeout(ctx, pullTimeout+wait)
	defer cancel()
	cur := r.cursor(p.Name)
	u := p.URL + "/repl/delta?cursor=" + url.QueryEscape(cur.String()) +
		"&max=" + strconv.FormatInt(r.st.cfg.MaxDeltaBytes, 10)
	if wait > 0 {
		u += "&wait=" + wait.String()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := r.st.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return 0, 0, fmt.Errorf("federation: delta from %s: HTTP %d: %s", p.Name, resp.StatusCode, bytes.TrimSpace(body))
	}
	next, err := archive.ParseReplCursor(resp.Header.Get(archive.ReplCursorHeader))
	if err != nil {
		return 0, 0, fmt.Errorf("federation: delta from %s: %w", p.Name, err)
	}
	lag, _ = strconv.ParseInt(resp.Header.Get(archive.ReplLagHeader), 10, 64)
	// Delta may overshoot max= by a frame per shard (its progress rule);
	// anything longer is a peer ignoring the budget. That, a torn body or
	// any framing error drops the whole batch without advancing the
	// cursor: the next pull re-fetches the same range and the dedup path
	// absorbs whatever already landed.
	body, err := readCapped(resp, r.st.cfg.MaxDeltaBytes+int64(len(next))*archive.MaxFrameBytes)
	if err != nil {
		return 0, lag, fmt.Errorf("federation: delta from %s: %w", p.Name, err)
	}
	if len(body) > 0 {
		// The delta is segment bytes and goes in as segment bytes.
		rep, err := r.st.store.IngestFrames(body)
		if err != nil {
			return 0, lag, fmt.Errorf("federation: delta from %s: %w", p.Name, err)
		}
		chunks = rep.Added + rep.Duplicates + rep.Superseded
	}
	r.setCursor(p.Name, next)
	r.save()
	p.cPulls.Inc()
	p.cPullChunks.Add(int64(chunks))
	p.gLag.SetInt(lag)
	return chunks, lag, nil
}

// run is the per-source anti-entropy loop. Every pull asks p to hold it
// for up to ReplInterval while there is nothing new, so a frame that
// lands at p is pulled one round trip later and a caught-up source costs
// one request per interval. An empty answer that came back early — a
// source that ignores wait, or one shutting down — is followed by the
// rest of the interval asleep. A failed pull is retried when p next
// answers a health probe; probeLoop re-probes a failed peer from 50 ms
// up, so that is soon after p is back.
func (r *replicator) run(ctx context.Context, p *peerState) {
	interval := r.st.cfg.ReplInterval
	wait := min(interval, archive.MaxReplWait)
	for ctx.Err() == nil {
		start := time.Now()
		chunks, lag, err := r.pullOnce(ctx, p, wait)
		switch {
		case ctx.Err() != nil:
			return
		case err != nil:
			p.cPullErrs.Inc()
			select {
			case <-ctx.Done():
			case <-p.nextProbe():
			}
		case chunks == 0 && lag == 0:
			sleep(ctx, interval-time.Since(start))
		}
	}
}

// ReplicateOnce synchronously drains every replication source until
// its lag reaches zero. Deterministic test seam for the pull loops.
func (st *Station) ReplicateOnce(ctx context.Context) error {
	for _, p := range st.repl.sources {
		for {
			_, lag, err := st.repl.pullOnce(ctx, p, 0)
			if err != nil {
				return err
			}
			if lag == 0 {
				break
			}
		}
	}
	return nil
}

// ReplicationSources lists the peer names this station pulls from —
// the replication-factor ring made inspectable for /federation and
// tests.
func (st *Station) ReplicationSources() []string {
	out := make([]string, len(st.repl.sources))
	for i, p := range st.repl.sources {
		out[i] = p.Name
	}
	return out
}
