// Package federation turns N independent archive stations into one
// logical archive. EnviroMic's mule tours terminate at whichever
// basestation is nearest, so each station holds only the stripe of the
// network its mules serviced; federation makes any station answer for
// all of them.
//
// Two mechanisms compose:
//
//   - Peer replication (replicate.go): every station pulls anti-entropy
//     deltas from its replication sources over GET /repl/delta, resuming
//     from a persisted per-peer cursor. Deltas are raw segment frames —
//     the same wire format as POST /ingest — and land through the
//     archive's normal (origin, seq) dedup path, so re-pulling any range
//     is idempotent and convergence after a partition needs no protocol
//     beyond "keep pulling". A configurable replication factor bounds
//     how many stations hold each stripe.
//
//   - Federated query fan-out (coordinator.go): /query, /files, /gaps,
//     and /wav ask every healthy peer in parallel whether its chunk-key
//     manifest changed since it was last fetched (a tag-validated
//     conditional request), merge the manifests with keep-longest
//     (origin, seq) dedup — the exact supersession rule the archive
//     applies on ingest — into one view kept until some station's tag
//     moves, and answer from it with the same JSON a single
//     fully-replicated station would. Peers that fail or time out
//     degrade the answer to the surviving holdings, marked by the
//     X-Federation-Partial header. /wav moves payload only from the
//     peers holding a copy the local store lacks; erasure groups whose
//     k surviving fragments are scattered across stations decode there
//     via retrieval.ReassembleErasure.
//
// A station trusts its own store plus whatever /repl endpoints say;
// there is no consensus, no leader, and no write forwarding — ingest
// stays local to whichever station a mule reached, and replication
// spreads it.
package federation

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"enviromic/internal/archive"
	"enviromic/internal/telemetry"
)

// The headers of the federated read contract; see the archive package,
// whose handlers read the one and write the other.
const (
	LocalHeader   = archive.LocalHeader
	PartialHeader = archive.PartialHeader
)

// Peer is one remote station.
type Peer struct {
	Name string
	URL  string // base URL, no trailing slash
}

// ParsePeers parses a comma-separated peer list. Each entry is
// "name=url" or a bare url; a url without a scheme gets http://. The
// default name is the host:port part.
func ParsePeers(spec string) ([]Peer, error) {
	var peers []Peer
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, u, hasName := strings.Cut(part, "=")
		if !hasName {
			u, name = part, ""
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		u = strings.TrimRight(u, "/")
		if name == "" {
			name = strings.TrimPrefix(strings.TrimPrefix(u, "http://"), "https://")
		}
		if seen[name] {
			return nil, fmt.Errorf("federation: duplicate peer %q", name)
		}
		seen[name] = true
		peers = append(peers, Peer{Name: name, URL: u})
	}
	return peers, nil
}

// Config wires a Station. The zero value of every optional field has a
// usable default.
type Config struct {
	// Self is this station's name — its position in the replication
	// ring. Required when Peers is non-empty.
	Self string
	// Peers are the other stations.
	Peers []Peer
	// ReplicationFactor is how many stations hold each station's
	// stripe, counting the origin. 0 (or anything >= the station count)
	// replicates everywhere; 1 replicates nowhere.
	ReplicationFactor int
	// ReplInterval is how long a caught-up anti-entropy pull asks its
	// source to hold it waiting for new frames, and the least time
	// between two empty pulls. Default 2s.
	ReplInterval time.Duration
	// ProbeInterval is the health-probe period of a healthy peer, and
	// the longest re-probe delay of a failed one. Default 1s.
	ProbeInterval time.Duration
	// FanoutTimeout bounds each per-peer fan-out request. Default 2s.
	FanoutTimeout time.Duration
	// MaxDeltaBytes is the per-pull replication batch budget. Default
	// archive.DefaultDeltaBytes.
	MaxDeltaBytes int64
	// CursorPath persists replication cursors (atomic JSON rewrite) so
	// a restarted station resumes instead of re-pulling everything.
	// Empty keeps cursors in memory only.
	CursorPath string
	// Client is the HTTP client for all peer traffic. Defaults to a
	// dedicated client; timeouts come from per-request contexts.
	Client *http.Client
	// Telemetry is the registry federation series are published into.
	// Nil gives the station a private registry.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.ReplInterval <= 0 {
		c.ReplInterval = 2 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.FanoutTimeout <= 0 {
		c.FanoutTimeout = 2 * time.Second
	}
	if c.MaxDeltaBytes <= 0 {
		c.MaxDeltaBytes = archive.DefaultDeltaBytes
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// Station is one federation member: a local archive plus the peer
// registry, the anti-entropy puller, and the fan-out coordinator.
type Station struct {
	cfg    Config
	store  *archive.Store
	client *http.Client
	peers  []*peerState // sorted by name
	repl   *replicator
	reg    *telemetry.Registry

	cPartial  *telemetry.Counter
	cFanouts  *telemetry.Counter
	cPeerErrs *telemetry.Counter
	hFanout   map[string]*telemetry.Histogram // keyed by endpoint pattern

	cManifestUnchanged *telemetry.Counter
	cManifestFetched   *telemetry.Counter
	cManifestErrors    *telemetry.Counter
	cManifestBytes     *telemetry.Counter
	cViewRebuilds      *telemetry.Counter

	// merged is the last merged view; viewMu is held across a rebuild, so
	// readers arriving with the same key wait for it instead of repeating
	// it.
	viewMu sync.Mutex
	merged *view

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed sync.Once
}

// New builds a Station over store. Start launches the background
// loops; a station used synchronously (tests) can skip Start and drive
// ProbeOnce/ReplicateOnce instead.
func New(store *archive.Store, cfg Config) (*Station, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Peers) > 0 && cfg.Self == "" {
		return nil, fmt.Errorf("federation: Config.Self required with peers")
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	st := &Station{
		cfg:    cfg,
		store:  store,
		client: cfg.Client,
		reg:    reg,
	}
	st.ctx, st.cancel = context.WithCancel(context.Background())
	seen := map[string]bool{cfg.Self: true}
	for _, p := range cfg.Peers {
		if seen[p.Name] {
			return nil, fmt.Errorf("federation: duplicate station name %q", p.Name)
		}
		seen[p.Name] = true
		st.peers = append(st.peers, newPeerState(p, reg))
	}
	sort.Slice(st.peers, func(i, j int) bool { return st.peers[i].Name < st.peers[j].Name })

	st.cPartial = reg.Counter("enviromic_federation_partial_total",
		"Federated responses missing at least one peer's holdings.")
	st.cFanouts = reg.Counter("enviromic_federation_fanouts_total",
		"Federated fan-out rounds performed.")
	st.cPeerErrs = reg.Counter("enviromic_federation_fanout_peer_errors_total",
		"Per-peer fan-out requests that failed or timed out.")
	st.hFanout = make(map[string]*telemetry.Histogram)
	for _, ep := range []string{"/query", "/files", "/files/{id}", "/files/{id}/gaps", "/files/{id}/wav"} {
		st.hFanout[ep] = reg.Histogram("enviromic_federation_fanout_seconds",
			"Wall time of one federated fan-out round (all peers, in parallel).",
			telemetry.DurationBuckets(), telemetry.L("endpoint", ep))
	}

	manifestRequests := func(result string) *telemetry.Counter {
		return reg.Counter("enviromic_federation_manifest_requests_total",
			"Conditional peer-manifest requests, by result.", telemetry.L("result", result))
	}
	st.cManifestUnchanged = manifestRequests("unchanged")
	st.cManifestFetched = manifestRequests("fetched")
	st.cManifestErrors = manifestRequests("error")
	st.cManifestBytes = reg.Counter("enviromic_federation_manifest_bytes_total",
		"Peer-manifest body bytes fetched.")
	st.cViewRebuilds = reg.Counter("enviromic_federation_view_rebuilds_total",
		"Merges of the local and peer manifests into a new federated view.")

	repl, err := newReplicator(st)
	if err != nil {
		return nil, err
	}
	st.repl = repl
	return st, nil
}

// Store returns the station's local archive.
func (st *Station) Store() *archive.Store { return st.store }

// Metrics returns the registry the station publishes into.
func (st *Station) Metrics() *telemetry.Registry { return st.reg }

// Start launches one health-probe loop per peer and one anti-entropy
// puller per replication source.
func (st *Station) Start() {
	for _, p := range st.peers {
		p := p
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			st.probeLoop(st.ctx, p)
		}()
	}
	for _, src := range st.repl.sources {
		src := src
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			st.repl.run(st.ctx, src)
		}()
	}
}

// Close stops the background loops and persists the cursors. It does
// not close the underlying store.
func (st *Station) Close() {
	st.closed.Do(func() {
		st.cancel()
		st.wg.Wait()
		st.repl.save()
	})
}

// healthyPeers snapshots the peers currently considered healthy.
func (st *Station) healthyPeers() []*peerState {
	out := make([]*peerState, 0, len(st.peers))
	for _, p := range st.peers {
		if p.healthy.Load() {
			out = append(out, p)
		}
	}
	return out
}

// sleep waits for d or until ctx is done.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
