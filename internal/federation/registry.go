package federation

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"enviromic/internal/archive"
	"enviromic/internal/telemetry"
)

// peerState is the station's live view of one peer: static identity,
// probed health, and per-peer telemetry. Peers start healthy so fan-out
// works before the first probe lands; the probe loop flips the bit as
// soon as reality disagrees.
type peerState struct {
	Peer
	healthy atomic.Bool

	gHealthy    *telemetry.Gauge
	gLag        *telemetry.Gauge
	cProbeFails *telemetry.Counter
	cPulls      *telemetry.Counter
	cPullChunks *telemetry.Counter
	cPullErrs   *telemetry.Counter

	mu        sync.Mutex
	lastErr   string
	lastState archive.ReplStatus
	// etag and rows are the peer's manifest as last fetched: the tag the
	// next conditional request carries and the rows a 304 stands for.
	etag string
	rows []archive.FileManifest
	// probed is closed, and cleared, by the next successful probe: what
	// a puller whose pull failed waits on.
	probed chan struct{}
}

func newPeerState(p Peer, reg *telemetry.Registry) *peerState {
	l := telemetry.L("peer", p.Name)
	ps := &peerState{
		Peer: p,
		gHealthy: reg.Gauge("enviromic_federation_peer_healthy",
			"1 when the peer's last health probe succeeded.", l),
		gLag: reg.Gauge("enviromic_federation_repl_lag_bytes",
			"Segment bytes this station still has to pull from the peer.", l),
		cProbeFails: reg.Counter("enviromic_federation_probe_failures_total",
			"Failed health probes.", l),
		cPulls: reg.Counter("enviromic_federation_repl_pulls_total",
			"Anti-entropy delta pulls from the peer.", l),
		cPullChunks: reg.Counter("enviromic_federation_repl_chunks_total",
			"Chunks ingested from the peer's deltas (duplicates included).", l),
		cPullErrs: reg.Counter("enviromic_federation_repl_errors_total",
			"Failed anti-entropy pulls.", l),
	}
	ps.healthy.Store(true)
	ps.gHealthy.Set(1)
	return ps
}

func (p *peerState) setHealthy(ok bool, err error) {
	p.healthy.Store(ok)
	if ok {
		p.gHealthy.Set(1)
	} else {
		p.gHealthy.Set(0)
	}
	p.mu.Lock()
	if err != nil {
		p.lastErr = err.Error()
	} else {
		p.lastErr = ""
	}
	if ok && p.probed != nil {
		close(p.probed)
		p.probed = nil
	}
	p.mu.Unlock()
}

// nextProbe returns a channel closed by the peer's next successful probe.
func (p *peerState) nextProbe() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.probed == nil {
		p.probed = make(chan struct{})
	}
	return p.probed
}

// probeOne probes one peer's /repl/status, updating health and the
// replication lag gauge.
func (st *Station) probeOne(ctx context.Context, p *peerState) error {
	ctx, cancel := context.WithTimeout(ctx, st.cfg.FanoutTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.URL+"/repl/status", nil)
	if err != nil {
		p.cProbeFails.Inc()
		p.setHealthy(false, err)
		return err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		p.cProbeFails.Inc()
		p.setHealthy(false, err)
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("federation: probe of %s: HTTP %d", p.Name, resp.StatusCode)
		p.cProbeFails.Inc()
		p.setHealthy(false, err)
		return err
	}
	var status archive.ReplStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		p.cProbeFails.Inc()
		p.setHealthy(false, err)
		return err
	}
	p.mu.Lock()
	p.lastState = status
	p.mu.Unlock()
	p.setHealthy(true, nil)
	p.gLag.SetInt(status.Lag(st.repl.cursor(p.Name)))
	return nil
}

// ProbeOnce probes every peer in parallel and returns the first error
// (all peers are still probed). Deterministic test seam for the probe
// loop.
func (st *Station) ProbeOnce(ctx context.Context) error {
	errs := make([]error, len(st.peers))
	var wg sync.WaitGroup
	for i, p := range st.peers {
		i, p := i, p
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = st.probeOne(ctx, p)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// probeLoop probes p every ProbeInterval while it answers. Once a probe
// fails it re-probes after 50 ms, doubling back up to ProbeInterval, so a
// peer that comes up after this station, or comes back, is seen within
// about as long again as it was away rather than a whole interval later.
func (st *Station) probeLoop(ctx context.Context, p *peerState) {
	const retryBase = 50 * time.Millisecond
	retry := retryBase
	for ctx.Err() == nil {
		next := st.cfg.ProbeInterval
		if st.probeOne(ctx, p) == nil {
			retry = retryBase
		} else {
			next = min(retry, next)
			retry = min(2*retry, st.cfg.ProbeInterval)
		}
		sleep(ctx, next)
	}
}
