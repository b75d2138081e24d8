package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"enviromic/internal/archive"
	"enviromic/internal/federation"
	"enviromic/internal/flash"
	"enviromic/internal/mote"
	"enviromic/internal/trace"
	"enviromic/internal/wav"
)

const (
	wavHeader = 44
	// scheduleLen is how many reads one schedule holds; the closed loop
	// draws from its first half and wraps, the open loop and the sweep
	// take fixed stretches of the second half, so the open loop sends the
	// same requests whatever the closed loop got through.
	scheduleLen  = 1 << 17
	preloadBatch = 1024
	streamBatch  = 256
	// Latency limits on p90 for the rate sweep's knee: a rate "meets the
	// limit" when it keeps up and its p90 stays under this.
	limitMS, fedLimitMS = 5.0, 150.0
)

// newClient returns a client that holds one connection per server, so
// the number of clients is the number of connections in use.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// get reads the whole response body into buf.
func get(c *http.Client, url string, buf *bytes.Buffer) (int, http.Header, error) {
	buf.Reset()
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, err
}

func post(c *http.Client, url string, body []byte) (int, error) {
	resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// riffOK checks a WAV body's two length fields against its size.
func riffOK(b []byte) bool {
	return len(b) > wavHeader && string(b[0:4]) == "RIFF" && string(b[8:12]) == "WAVE" &&
		int(binary.LittleEndian.Uint32(b[4:])) == len(b)-8 &&
		int(binary.LittleEndian.Uint32(b[40:])) == len(b)-wavHeader
}

func serverStats(c *http.Client, url string) (archive.Stats, error) {
	var st archive.Stats
	var buf bytes.Buffer
	status, _, err := get(c, url+"/stats", &buf)
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("%s/stats: HTTP %d", url, status)
	}
	return st, json.Unmarshal(buf.Bytes(), &st)
}

// readMix sends the scheduled reads and checks the answers. Each worker
// has its own connection, buffers and tallies; nothing is shared on the
// request path but the count of readable files.
type readMix struct {
	set   *dataset
	sched []request
	urls  []string // request i goes to urls[i%len]
	// exact says the file set is not changing under the reads, so bodies
	// can be compared with the oracle; beside a writer only their form
	// is checked.
	exact    bool
	readable atomic.Int64
	tr       *tracer
	workers  []mixWorker
}

type mixWorker struct {
	client            *http.Client
	buf               bytes.Buffer
	attempted, failed int
	fails             []string
	kept              []keptBody
	served, expected  int64        // audio bytes out of /wav, and what the generator put in
	lat               [4][]float64 // client-side ms by request kind
}

// keptBody is a response set aside to be compared with the oracle after
// the phase, off the clock.
type keptBody struct {
	req  int
	body []byte
}

var endpointNames = [...]string{"GET /files/{id}/wav", "GET /query", "GET /files/{id}/gaps", "GET /files/{id}"}

func newReadMix(set *dataset, sched []request, urls []string, workers int, exact bool) *readMix {
	m := &readMix{set: set, sched: sched, urls: urls, exact: exact, workers: make([]mixWorker, workers)}
	for i := range m.workers {
		m.workers[i].client = newClient()
	}
	m.readable.Store(int64(len(set.files)))
	return m
}

func (m *readMix) resolve(i int) (*request, *fileSpec) {
	rq := &m.sched[i%len(m.sched)]
	return rq, &m.set.files[rq.fileIndex(int(m.readable.Load()))]
}

// do is the doFunc of every read phase.
func (m *readMix) do(worker, i int) bool {
	w := &m.workers[worker]
	rq, f := m.resolve(i)
	end, _ := m.tr.begin(i, 0, "http", endpointNames[rq.Kind])
	t := time.Now()
	status, hdr, err := get(w.client, m.urls[i%len(m.urls)]+rq.path(f), &w.buf)
	w.lat[rq.Kind] = append(w.lat[rq.Kind], ms(time.Since(t)))
	end()

	w.attempted++
	body := w.buf.Bytes()
	problem := ""
	switch {
	case err != nil:
		problem = err.Error()
	case status != http.StatusOK:
		problem = fmt.Sprintf("HTTP %d", status)
	case hdr.Get(federation.PartialHeader) != "":
		problem = "partial answer, missing " + hdr.Get(federation.PartialHeader)
	case rq.Kind == reqWAV && !riffOK(body):
		problem = fmt.Sprintf("not a well-formed WAV (%d bytes)", len(body))
	case rq.Kind != reqWAV && (len(body) == 0 || (body[0] != '{' && body[0] != '[')):
		problem = "not JSON"
	}
	if problem != "" {
		w.failed++
		if len(w.fails) < 5 {
			w.fails = append(w.fails, fmt.Sprintf("%s: %s", rq.path(f), problem))
		}
		return false
	}
	if rq.Kind == reqWAV {
		w.served += int64(len(body) - wavHeader)
		w.expected += int64(f.Chunks) * flash.PayloadSize
	}
	if m.exact && ((rq.Kind == reqWAV && i%64 == 0) || (rq.Kind == reqQuery && i%16 == 0)) {
		w.kept = append(w.kept, keptBody{i, append([]byte(nil), body...)})
	}
	return true
}

// settle folds the workers' tallies into the outcome and compares the
// kept bodies with the oracle.
func (m *readMix) settle(out *outcome) (served, expected int64) {
	for i := range m.workers {
		w := &m.workers[i]
		out.attempted += w.attempted
		out.failed += w.failed
		for _, f := range w.fails {
			out.printf("FAIL: %s", f)
		}
		served, expected = served+w.served, expected+w.expected
		for _, k := range w.kept {
			rq, f := m.resolve(k.req)
			if rq.Kind == reqWAV {
				out.check(bytes.Equal(k.body, oracleWAV(f.ID, m.set.fileChunks(f))), "%s differs from the oracle", rq.path(f))
				continue
			}
			var got []struct {
				ID flash.FileID `json:"id"`
			}
			var origins []int32
			if rq.Origins {
				origins = f.Origins
			}
			want := m.set.queryCount(rq.From, rq.From.Add(queryWindow), origins)
			err := json.Unmarshal(k.body, &got)
			out.check(err == nil && len(got) == want, "%s lists %d files, the generator counts %d (%v)", rq.path(f), len(got), want, err)
		}
		w.kept = nil
	}
	return served, expected
}

// warmUp sends the schedule's first n reads, closed loop, so that what
// follows starts from the same cache contents on every run of a seed.
func (m *readMix) warmUp(conns, n int) {
	var stop atomic.Bool
	closedLoop(wallClock{time.Now()}, conns, time.Hour, &stop, 0, func(worker, i int) bool {
		if i >= n {
			stop.Store(true)
			return true
		}
		return m.do(worker, i)
	})
	m.resetLatencies()
}

// clientLatency is the client-side latency (send to last byte, not from
// due time) of one request kind since the last reset: median, 90th
// percentile and count.
func (m *readMix) clientLatency(kind reqKind) (p50, p90 float64, n int) {
	var all []float64
	for i := range m.workers {
		all = append(all, m.workers[i].lat[kind]...)
	}
	sort.Float64s(all)
	return percentile(all, 50), percentile(all, 90), len(all)
}

// byEndpoint reports the client-side latency of each request kind.
func (m *readMix) byEndpoint(out *outcome, phase string) {
	line := phase + " by endpoint, send to last byte:"
	for k, name := range reqKindNames {
		p50, p90, n := m.clientLatency(reqKind(k))
		line += fmt.Sprintf("  %s p50 %.3f p90 %.3f ms (n=%d)", name, p50, p90, n)
	}
	out.printf("%s", line)
}

func (m *readMix) resetLatencies() {
	for i := range m.workers {
		m.workers[i].lat = [4][]float64{}
	}
}

// stations are the servers of one workload.
type stations []*server

func (ss stations) kill() {
	for _, s := range ss {
		s.kill()
	}
}

func (ss stations) cpu() float64 {
	var total float64
	for _, s := range ss {
		total += procCPU(s.pid())
	}
	return total
}

func (ss stations) peakRSS() float64 {
	var total float64
	for _, s := range ss {
		total += procPeakRSS(s.pid())
	}
	return total
}

// flush writes the stations' files through to disk, so that the
// kernel's writeback of what set-up ingested does not run beside the
// measured reads. (The servers' own flush policy is untouched: nothing
// is written during a read workload's measured phases.)
func (ss stations) flush() error {
	for _, s := range ss {
		entries, err := os.ReadDir(s.dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			f, err := os.Open(filepath.Join(s.dir, e.Name()))
			if err != nil {
				return err
			}
			err = f.Sync()
			f.Close()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (ss stations) urls() []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.url
	}
	return out
}

// scrape reads every station's /metrics into one scrape; sum and
// quantile then work on the union.
func (ss stations) scrape(c *http.Client) (scrape, error) {
	var all scrape
	for _, s := range ss {
		sc, err := scrapeURL(c, s.url)
		if err != nil {
			return nil, err
		}
		all = append(all, sc...)
	}
	return all, nil
}

// stats sums the stations' /stats.
func (ss stations) stats(c *http.Client) (archive.Stats, error) {
	var total archive.Stats
	for _, s := range ss {
		st, err := serverStats(c, s.url)
		if err != nil {
			return total, err
		}
		total.Files += st.Files
		total.Chunks += st.Chunks
		total.Bytes += st.Bytes
		total.SegmentBytes += st.SegmentBytes
		total.SupersededBytes += st.SupersededBytes
		total.Cache.Hits += st.Cache.Hits
		total.Cache.Misses += st.Cache.Misses
		total.Cache.Evictions += st.Cache.Evictions
	}
	return total, nil
}

// startStations launches n servers: one plain archive, or a federation
// of n stations s1..sn that replicate around a ring.
func (r *run) startStations(n int) (stations, error) {
	ports, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	var ss stations
	for i := 0; i < n; i++ {
		name, extra := "archive", []string(nil)
		if n > 1 {
			name = fmt.Sprintf("s%d", i+1)
			var peers []string
			for j := 0; j < n; j++ {
				if j != i {
					peers = append(peers, fmt.Sprintf("s%d=127.0.0.1:%d", j+1, ports[j]))
				}
			}
			extra = []string{"-station", name, "-peers", strings.Join(peers, ","), "-replication", "2", "-repl-interval", "250ms"}
		}
		s, err := r.env.startServer(r.workload, name, ports[i], extra...)
		if err != nil {
			ss.kill()
			return nil, err
		}
		ss = append(ss, s)
	}
	return ss, nil
}

// preload posts bodies to a server one after another.
func preload(c *http.Client, url string, bodies [][]byte) error {
	for _, b := range bodies {
		status, err := post(c, url+"/ingest", b)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("POST %s/ingest: HTTP %d", url, status)
		}
	}
	return nil
}

// converge waits until every station holds the whole data set and
// reports no replication lag behind any peer.
func converge(c *http.Client, ss stations, set *dataset) error {
	wantChunks, wantBytes := 0, set.payloadBytes()
	for i := range set.files {
		wantChunks += set.files[i].Chunks
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		done := true
		for _, s := range ss {
			st, err := serverStats(c, s.url)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			status, _, err := get(c, s.url+"/federation", &buf)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("%s/federation: HTTP %d %v", s.url, status, err)
			}
			var fed struct {
				Sources []string `json:"replication_sources"`
				Peers   []struct {
					Name    string `json:"name"`
					Healthy bool   `json:"healthy"`
					Lag     int64  `json:"lag_bytes"`
				} `json:"peers"`
			}
			if err := json.Unmarshal(buf.Bytes(), &fed); err != nil {
				return err
			}
			if st.Files != len(set.files) || st.Chunks != wantChunks || st.Bytes != wantBytes {
				done = false
			}
			for _, p := range fed.Peers {
				for _, src := range fed.Sources {
					if p.Name == src && p.Lag != 0 {
						done = false
					}
				}
				if !p.Healthy {
					done = false
				}
			}
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("stations did not converge on %d files, %d chunks within a minute", len(set.files), wantChunks)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func archiveRead(r *run) (*outcome, error)    { return r.readWorkload(1) }
func federationRead(r *run) (*outcome, error) { return r.readWorkload(3) }

// readWorkload is archive-read (one station) and federation-read
// (three): preload, warm-up, open loop, closed loop; the traced run adds
// server profiles, a rate sweep and an in-process replay.
func (r *run) readWorkload(n int) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}}
	fed := n > 1
	nFiles, warmup, rate, limit := r.size.files, r.size.warmup, r.size.rate, limitMS
	if fed {
		nFiles, warmup, rate, limit = r.size.fedFiles, r.size.fedWarmup, r.size.fedRate, fedLimitMS
	}
	const conns = 1 // connections, as many as the workload has cores: see oneCore
	phase := r.seconds / 2
	if err := r.env.buildServer(); err != nil {
		return nil, err
	}
	if err := oneCore(); err != nil {
		// Still a measurement, of the program and the host's scheduler both.
		out.printf("not confined to one core: %v", err)
	}

	// Set-up.
	t0 := time.Now()
	set := newDataset(r.seed, nFiles, 1)
	sched := newSchedule(r.seed, scheduleLen, nFiles)
	ss, err := r.startStations(n)
	if err != nil {
		return nil, err
	}
	defer ss.kill()
	admin := newClient()
	for i, s := range ss {
		// Station i's mule brought back every n-th file from i on and,
		// overlapping with its neighbour's tour, every fourth of the next
		// station's.
		var tour []fileSpec
		for j := range set.files {
			if j%n == i || (fed && (j+1)%n == i && j%4 == 0) {
				tour = append(tour, set.files[j])
			}
		}
		bodies, err := set.ingestBodies(tour, preloadBatch)
		if err != nil {
			return nil, err
		}
		if err := preload(admin, s.url, bodies); err != nil {
			return nil, err
		}
	}
	var convergeS float64
	if fed {
		c0 := time.Now()
		if err := converge(admin, ss, set); err != nil {
			return nil, err
		}
		convergeS = time.Since(c0).Seconds()
	}
	if err := ss.flush(); err != nil {
		return nil, err
	}
	mix := newReadMix(set, sched, ss.urls(), conns, true)
	mix.warmUp(conns, warmup)
	setup := time.Since(t0).Seconds()

	var before scrape
	var statsBefore archive.Stats
	if r.tr != nil {
		if before, err = ss.scrape(admin); err != nil {
			return nil, err
		}
		if statsBefore, err = ss.stats(admin); err != nil {
			return nil, err
		}
	}

	// Open loop first: arrivals on a fixed schedule, timed from when due.
	// It follows a warm-up of a fixed number of requests, so it meets the
	// same cache contents on every run of a seed. The traced run first
	// sends a short untraced stretch, so that the cost of tracing is the
	// ratio of the two medians.
	openAt := scheduleLen / 2
	var untraced phaseStats
	var profiles []string
	var profErrs []error
	var profWG sync.WaitGroup
	if r.tr != nil {
		short := phase / 2
		untraced = summarize(openLoop(wallClock{time.Now()}, conns, rate, short, r.seed, openAt, mix.do), short, 1)
		mix.tr = r.tr
		mix.resetLatencies()
		secs := int(phase.Seconds())
		if secs < 1 {
			secs = 1
		}
		profiles, profErrs = make([]string, len(ss)), make([]error, len(ss))
		for i, s := range ss {
			profiles[i] = r.env.profilePath(r.workload, s.name)
			profWG.Add(1)
			go func(i int, url string) {
				defer profWG.Done()
				profErrs[i] = fetchProfile(url, secs, profiles[i])
			}(i, s.url)
		}
	}
	self0 := selfCPU()
	openClk := wallClock{time.Now()}
	slices := slicesFor(int(rate*phase.Seconds()), phase)
	sliceCPU := sliceUse(openClk, phase, slices, ss.cpu)
	open := summarize(openLoop(openClk, conns, rate, phase, r.seed, openAt, mix.do), phase, slices)
	cpu, loadgenCPU := spreadOf(sliceCPU()), selfCPU()-self0
	wavClientP50, _, _ := mix.clientLatency(reqWAV)
	mix.byEndpoint(out, "open loop")
	mix.tr = nil
	profWG.Wait()
	mix.resetLatencies()

	// Closed loop on one connection: one request in flight, for the one
	// core the workload has (see oneCore).
	reads := closedLoop(wallClock{time.Now()}, conns, phase, nil, 0, mix.do)
	closed := summarize(reads, phase, slicesFor(len(reads), phase))
	mix.byEndpoint(out, "closed loop")

	out.check(closed.Failed == 0 && open.Failed == 0, "%d closed-loop and %d open-loop reads failed", closed.Failed, open.Failed)
	if open.Achieved < 0.99*rate {
		out.invalid(r.size.lenient, "open loop achieved %.1f of %.0f req/s: a backlog was growing", open.Achieved, rate)
	}
	if open.LagP50 > open.WholeP50/4 {
		out.invalid(r.size.lenient, "generator lateness p50 %.3f ms exceeds a quarter of the latency p50 %.3f ms", open.LagP50, open.WholeP50)
	}

	// The traced run's rate sweep: latency at a quarter, half, one and two
	// times the fixed rate.
	var knee float64
	if r.tr != nil {
		at := openAt + int(rate*phase.Seconds())
		for _, mult := range []float64{0.25, 0.5, 1, 2} {
			rt := rate * mult
			st := summarize(openLoop(wallClock{time.Now()}, conns, rt, r.size.sweep, r.seed, at, mix.do), r.size.sweep, 1)
			at += int(rt * r.size.sweep.Seconds())
			meets := st.Achieved >= 0.99*rt && st.WholeP90 <= limit && st.Failed == 0
			if meets && rt > knee {
				knee = rt
			}
			out.printf("sweep %6.0f req/s: achieved %7.1f  p50 %.3f ms  p90 %.3f ms  lag p50 %.3f ms  meets %.0f ms limit: %v",
				rt, st.Achieved, st.WholeP50, st.WholeP90, st.LagP50, limit, meets)
		}
	}

	var after scrape
	if r.tr != nil {
		if after, err = ss.scrape(admin); err != nil {
			return nil, err
		}
	}
	stats, err := ss.stats(admin)
	if err != nil {
		return nil, err
	}
	rss := ss.peakRSS()
	dir := ss[0].dir
	ss.kill()
	served, expected := mix.settle(out)

	out.e2e["setup_s"] = setup
	out.e2e["peak_rss_mb"] = rss
	out.e2e["cpu_s"] = cpu.Low * float64(cpu.N)
	out.e2e["rate_per_s"] = closed.RPS.High
	// A federated /query holds the core for twenty /wavs' worth of time, so
	// at any rate that yields enough requests a third of the arrivals queue
	// behind one and the open loop's median sits on the edge between those
	// and the rest: it read 3.1 to 7.9 ms across ten seeds. The federated
	// latencies are therefore the closed loop's, send to last byte with
	// nothing queued; the open loop still sets the fixed work for cpu_s.
	lat, latKind := open, "open loop, from due time"
	if fed {
		lat, latKind = closed, "closed loop, send to last byte"
	}
	out.e2e["p50_ms"] = lat.P50.Low
	out.e2e["p90_ms"] = lat.P90.Low
	out.e2e["recovered_audio_ratio"] = float64(served) / float64(expected)
	out.e2e["space_amp"] = float64(stats.SegmentBytes) / float64(set.payloadBytes())

	out.printf("%d station(s), %d files, %d chunks, %.1f MB payload; generator and servers on one core, %d connection; request schedule %08x",
		n, nFiles, stats.Chunks/n, float64(set.payloadBytes())/1e6, conns, scheduleHash(set, sched[:4096]))
	out.printf("read_rps = %.1f /s closed loop (last decile of %d slices; median %.1f, range %.1f-%.1f; %d reads, p50 %.3f ms)",
		closed.RPS.High, closed.RPS.N, closed.RPS.Median, closed.RPS.Min, closed.RPS.Max, closed.N, closed.WholeP50)
	out.printf("read_p50_ms = %.3f ms, read_p90_ms = %.3f ms %s (first decile of %d slices; p50 median %.3f range %.3f-%.3f, p90 median %.3f range %.3f-%.3f)",
		lat.P50.Low, lat.P90.Low, latKind, lat.P50.N, lat.P50.Median, lat.P50.Min, lat.P50.Max, lat.P90.Median, lat.P90.Min, lat.P90.Max)
	out.printf("open loop at %.0f req/s: %d reads, from due time p50 %.3f ms p90 %.3f ms over all of them", rate, open.N, open.WholeP50, open.WholeP90)
	out.printf("generator: achieved %.1f req/s, lateness p50 %.3f ms p99 %.3f ms; open-loop p99 %.3f ms p99.9 %.3f ms (host stalls, not gated)",
		open.Achieved, open.LagP50, open.LagP99, open.P99, open.P999)
	out.printf("cpu_s = %.3f s of server CPU over the open loop's %d requests at the quiet slices' cost (%d slices: first decile %.4f s, median %.4f s, range %.4f-%.4f; %.3f s in all)",
		cpu.Low*float64(cpu.N), open.N, cpu.N, cpu.Low, cpu.Median, cpu.Min, cpu.Max, sum(sliceCPU()))

	if r.tr != nil {
		shares, err := profileShares(profiles...)
		if err = errors.Join(append(profErrs, err)...); err != nil {
			out.printf("server CPU profile absent: %v", err)
			shares = map[string]float64{}
		}
		l := layerValues(shares)
		out.layers = l
		l["bench.trace_overhead"] = open.WholeP50 / untraced.WholeP50
		loadgenLayers(l, closed, open, loadgenCPU, knee)
		d := after.since(before)
		archiveLayers(l, d, after, stats, statsBefore)
		httpLayers(l, d, after, wavClientP50)
		if fed {
			l["federation.converge_s"] = convergeS
			federationLayers(l, d, after)
		} else if err := r.replay(out, dir, set, sched[openAt:openAt+r.size.replay]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fetchProfile asks a server for a CPU profile of the next `seconds`
// seconds and stores it.
func fetchProfile(url string, seconds int, path string) error {
	resp, err := http.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", url, seconds))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/debug/pprof/profile: HTTP %d", url, resp.StatusCode)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = io.Copy(f, resp.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func loadgenLayers(l map[string]float64, closed, open phaseStats, cpu, knee float64) {
	l["loadgen.lag_p50_ms"], l["loadgen.lag_p99_ms"] = open.LagP50, open.LagP99
	l["loadgen.achieved_rps"] = open.Achieved
	l["loadgen.closed_p50_ms"], l["loadgen.closed_p99_ms"] = closed.WholeP50, closed.P99
	l["loadgen.open_p99_ms"], l["loadgen.open_p999_ms"] = open.P99, open.P999
	l["loadgen.cpu_s"] = cpu
	l["loadgen.knee_rps"] = knee
}

// archiveLayers reads the archive's own counters: d covers the measured
// phases, total the servers' whole life (so it includes the preload).
func archiveLayers(l map[string]float64, d, total scrape, stats, statsBefore archive.Stats) {
	set := func(name string, s scrape, series string, match ...string) {
		if v, ok := s.sum(series, match...); ok {
			l[name] = v
		}
	}
	set("archive.ingest_added", total, "enviromic_archive_ingest_chunks_total")
	set("archive.ingest_duplicates", total, "enviromic_archive_ingest_duplicates_total")
	set("archive.ingest_superseded", total, "enviromic_archive_ingest_superseded_total")
	set("archive.group_commits", total, "enviromic_archive_group_commits_total")
	set("archive.checkpoint_writes", total, "enviromic_archive_checkpoint_writes_total")
	set("archive.flight_joins", d, "enviromic_archive_flight_joins_total")
	if n, ok := total.sum("enviromic_archive_group_commit_batch_size_count"); ok && n > 0 {
		sum, _ := total.sum("enviromic_archive_group_commit_batch_size_sum")
		l["archive.group_batch_mean"] = sum / n
	}
	hits, _ := d.sum("enviromic_archive_cache_hits_total")
	misses, _ := d.sum("enviromic_archive_cache_misses_total")
	if hits+misses > 0 {
		l["archive.cache_hit_ratio"] = hits / (hits + misses)
	}
	l["archive.cache_evictions"] = float64(stats.Cache.Evictions - statsBefore.Cache.Evictions)
	l["archive.segment_mb"] = float64(stats.SegmentBytes) / 1e6
	l["archive.superseded_mb"] = float64(stats.SupersededBytes) / 1e6
}

// httpLayers reads the servers' per-endpoint latency histograms over the
// measured phases.
func httpLayers(l map[string]float64, d, total scrape, wavClientP50 float64) {
	for name, endpoint := range map[string]string{
		"wav": "/files/{id}/wav", "query": "/query", "gaps": "/files/{id}/gaps", "file": "/files/{id}",
	} {
		if q, ok := d.quantile(0.5, "enviromic_http_request_seconds", "endpoint", endpoint); ok {
			l["http."+name+".server_p50_ms"] = q * 1e3
		}
	}
	// Ingest mostly happens in set-up, before the measured phases.
	if q, ok := total.quantile(0.5, "enviromic_http_request_seconds", "endpoint", "/ingest"); ok {
		l["http.ingest.server_p50_ms"] = q * 1e3
	}
	if srv, ok := l["http.wav.server_p50_ms"]; ok && wavClientP50 > 0 {
		l["http.overhead_ms"] = wavClientP50 - srv
	}
	if b, ok := d.sum("enviromic_http_response_bytes_total"); ok {
		l["http.response_mb"] = b / 1e6
	}
}

func federationLayers(l map[string]float64, d, total scrape) {
	l["federation.repl_pulls"], _ = total.sum("enviromic_federation_repl_pulls_total")
	l["federation.fanouts"], _ = d.sum("enviromic_federation_fanouts_total")
	l["federation.peer_errors"], _ = d.sum("enviromic_federation_fanout_peer_errors_total")
	l["federation.partial"], _ = d.sum("enviromic_federation_partial_total")
	if q, ok := d.quantile(0.5, "enviromic_federation_fanout_seconds", "endpoint", "/files/{id}/wav"); ok {
		l["federation.fanout_p50_ms"] = q * 1e3
		if srv := l["http.wav.server_p50_ms"]; srv > 0 {
			l["federation.local_share"] = 1 - q*1e3/srv
		}
	}
}

// replay reopens the dead server's directory in this process and runs
// the open loop's first requests single-threaded, with a span around
// each public call a handler makes, so the archive, stitch and encode
// layers get their own times without touching the program.
func (r *run) replay(out *outcome, dir string, set *dataset, reqs []request) error {
	t0 := time.Now()
	store, err := archive.Open(dir, archive.Options{})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	defer store.Close()
	out.layers["archive.reopen_s"] = time.Since(t0).Seconds()

	us := map[string][]float64{}
	timed := func(trace, parent int, layer, name, key string, fn func()) {
		end, _ := r.tr.begin(trace, parent, layer, name)
		t := time.Now()
		fn()
		us[key] = append(us[key], float64(time.Since(t))/float64(time.Microsecond))
		end()
	}
	for i := range reqs {
		rq := &reqs[i]
		f := &set.files[rq.fileIndex(len(set.files))]
		id := -(i + 1) // replay traces are numbered below zero, requests above
		end, root := r.tr.begin(id, 0, "bench", "replay "+endpointNames[rq.Kind])
		switch rq.Kind {
		case reqWAV:
			missesBefore := store.Stats().Cache.Misses
			var samples []byte
			t := time.Now()
			endSpan, _ := r.tr.begin(id, root, "archive", "Store.FileErasure")
			rf, _, err := store.FileErasure(f.ID)
			endSpan()
			d := float64(time.Since(t)) / float64(time.Microsecond)
			if err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			if store.Stats().Cache.Misses > missesBefore {
				us["cold"] = append(us["cold"], d)
			} else {
				us["warm"] = append(us["warm"], d)
			}
			timed(id, root, "trace", "trace.Stitch", "stitch", func() { samples = trace.Stitch(rf, mote.DefaultSampleRate) })
			timed(id, root, "wav", "wav.Write", "wav", func() { err = wav.Write(io.Discard, samples, int(mote.DefaultSampleRate)) })
			if err != nil {
				return fmt.Errorf("replay: %w", err)
			}
		case reqQuery:
			var origins map[int32]bool
			if rq.Origins {
				origins = map[int32]bool{}
				for _, o := range f.Origins {
					origins[o] = true
				}
			}
			var infos []archive.FileInfo
			timed(id, root, "archive", "Store.Query", "query", func() { infos = store.Query(rq.From, rq.From.Add(queryWindow), origins) })
			timed(id, root, "json", "json.Marshal", "json", func() {
				js := make([]archive.FileInfoJSON, len(infos))
				for k, fi := range infos {
					js[k] = archive.InfoJSON(fi)
				}
				_, err = json.Marshal(js)
			})
		case reqGaps:
			var gaps []archive.Gap
			timed(id, root, "archive", "Store.Gaps", "gaps", func() { gaps, err = store.Gaps(f.ID, store.GapTolerance()) })
			timed(id, root, "json", "json.Marshal", "json", func() { _, err = json.Marshal(gaps) })
		case reqFile:
			var fi archive.FileInfo
			timed(id, root, "archive", "Store.Info", "info", func() { fi, err = store.Info(f.ID) })
			timed(id, root, "archive", "Store.File", "file", func() { _, err = store.File(f.ID) })
			timed(id, root, "json", "json.Marshal", "json", func() { _, err = json.Marshal(archive.InfoJSON(fi)) })
		}
		end()
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	l := out.layers
	for key, name := range map[string]string{
		"cold": "archive.file_cold_us", "warm": "archive.file_warm_us", "query": "archive.query_us",
		"gaps": "archive.gaps_us", "stitch": "trace.stitch_us", "wav": "wav.encode_us", "json": "json.encode_us",
	} {
		l[name] = median(us[key])
	}
	out.printf("replay of %d requests in-process: FileErasure cold %.0f us (n=%d) warm %.1f us (n=%d), Query %.1f us, Gaps %.1f us, Stitch %.0f us, wav.Write %.0f us, json %.1f us",
		len(reqs), l["archive.file_cold_us"], len(us["cold"]), l["archive.file_warm_us"], len(us["warm"]),
		l["archive.query_us"], l["archive.gaps_us"], l["trace.stitch_us"], l["wav.encode_us"], l["json.encode_us"])
	return nil
}

// archiveMixed writes a fixed tour stream beside reads, then compacts,
// crashes the server and reopens its directory. The stream goes out in
// two parts. The first is paced, bodies on a schedule beside reads on a
// schedule, both well under what the server can take: fixed work in
// fixed time, so the server's CPU over it and the latency of a read
// beside a writer mean the same thing on every run. The second is posted
// back to back on the one writer connection with no reads beside it, and
// measures how fast the archive ingests: bodies are alike (the stream
// mixes first-time chunks, duplicates and supersessions evenly), so the
// rate is a body's chunks over the median post. Collector cycles and
// checkpoints slow a third of the posts by a third; the mean rate moves
// with how many a run happens to hold (quartile distance 5 % of the
// median across ten calm runs, and 8-10 % for rates per quarter second),
// the median post does not (3 %).
func archiveMixed(r *run) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}}
	const readers = 1 // beside the one writer connection
	phase := r.seconds / 2
	nPaced := int(r.size.mixedBodies * phase.Seconds())
	burst := int(float64(r.size.burstChunks) * phase.Seconds())

	if err := r.env.buildServer(); err != nil {
		return nil, err
	}
	if err := oneCore(); err != nil {
		// Still a measurement, of the program and the host's scheduler both.
		out.printf("not confined to one core: %v", err)
	}

	// Set-up: the stream, the server, and enough of the stream acknowledged
	// that there is something to read.
	t0 := time.Now()
	ts, err := newTourStream(r.seed, nPaced*streamBatch+burst, streamBatch, 1)
	if err != nil {
		return nil, err
	}
	sched := newSchedule(r.seed, scheduleLen, len(ts.set.files))
	ss, err := r.startStations(1)
	if err != nil {
		return nil, err
	}
	defer ss.kill()
	srv := ss[0]
	writer := newClient()
	mix := newReadMix(ts.set, sched, ss.urls(), readers, false)
	mix.tr = r.tr
	head := 0
	for head < len(ts.bodies) && ts.readable[head] < 8 {
		head++
	}
	if head+1+nPaced >= len(ts.bodies) {
		return nil, fmt.Errorf("stream of %d bodies is too short for %d paced ones", len(ts.bodies), nPaced)
	}
	if err := preload(writer, srv.url, ts.bodies[:head+1]); err != nil {
		return nil, err
	}
	mix.readable.Store(int64(ts.readable[head]))
	head++
	setup := time.Since(t0).Seconds()

	var before scrape
	if r.tr != nil {
		if before, err = scrapeURL(writer, srv.url); err != nil {
			return nil, err
		}
	}
	var profWG sync.WaitGroup
	var profErr error
	profile := r.env.profilePath(r.workload, srv.name)
	if r.tr != nil {
		secs := int(phase.Seconds())
		if secs < 1 {
			secs = 1
		}
		profWG.Add(1)
		go func() {
			defer profWG.Done()
			profErr = fetchProfile(srv.url, secs, profile)
		}()
	}

	var ackBytes int64
	var writeErr error
	post1 := func(b int) bool {
		end, _ := r.tr.begin(b, 0, "http", "POST /ingest")
		status, err := post(writer, srv.url+"/ingest", ts.bodies[b])
		end()
		if err != nil || status != http.StatusOK {
			if writeErr == nil {
				writeErr = fmt.Errorf("POST /ingest body %d: HTTP %d %v", b, status, err)
			}
			return false
		}
		ackBytes += ts.payload[b]
		mix.readable.Store(int64(ts.readable[b]))
		return true
	}

	// The paced part.
	readRate := r.size.mixedRate
	slices := slicesFor(int(readRate*phase.Seconds()), phase)
	clk := wallClock{time.Now()}
	sliceCPU := sliceUse(clk, phase, slices, ss.cpu)
	var paced []sample
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		paced = openLoop(clk, 1, r.size.mixedBodies, phase, r.seed^0x3b, head, func(_, b int) bool { return post1(b) })
	}()
	reads := summarize(openLoop(clk, readers, readRate, phase, r.seed, 0, mix.do), phase, slices)
	wg.Wait()
	cpu := spreadOf(sliceCPU())
	if writeErr != nil {
		return nil, writeErr
	}
	profWG.Wait()
	pw := summarize(paced, phase, 1)
	mix.byEndpoint(out, "reads beside the paced writer")
	if reads.Achieved < 0.99*readRate || pw.Achieved < 0.99*r.size.mixedBodies {
		out.invalid(r.size.lenient, "paced part achieved %.1f of %.0f reads/s and %.1f of %.0f bodies/s: a backlog was growing",
			reads.Achieved, readRate, pw.Achieved, r.size.mixedBodies)
	}
	if reads.LagP50 > reads.WholeP50/4 {
		out.invalid(r.size.lenient, "generator lateness p50 %.3f ms exceeds a quarter of the read latency p50 %.3f ms", reads.LagP50, reads.WholeP50)
	}

	// The rest of the stream, back to back.
	pacedBytes := ackBytes
	var writes []sample
	clk = wallClock{time.Now()}
	for b := head + nPaced; b < len(ts.bodies); b++ {
		sent := clk.Now()
		ok := post1(b)
		writes = append(writes, sample{Due: sent, Lat: clk.Now() - sent, OK: ok})
		if !ok {
			return nil, writeErr
		}
	}
	wall := clk.Now()
	wr := summarize(writes, wall, 1)
	out.attempted += len(paced) + len(writes)
	ingestMBs := float64(ackBytes-pacedBytes) / 1e6 / wall.Seconds()

	// Compaction, then what is left on disk.
	var buf bytes.Buffer
	c0 := time.Now()
	endCompact, _ := r.tr.begin(len(ts.bodies), 0, "http", "POST /compact")
	status, err := post(writer, srv.url+"/compact", nil)
	endCompact()
	compactS := time.Since(c0).Seconds()
	out.check(err == nil && status == http.StatusOK, "POST /compact: HTTP %d %v", status, err)
	stats, err := serverStats(writer, srv.url)
	if err != nil {
		return nil, err
	}
	var after scrape
	if r.tr != nil {
		if after, err = scrapeURL(writer, srv.url); err != nil {
			return nil, err
		}
	}

	// Every chunk has now been sent at full length, so a sample of files
	// must read back exactly as generated.
	nFiles := len(ts.set.files)
	for k := 0; k < 32 && k < nFiles; k++ {
		f := &ts.set.files[k*nFiles/32%nFiles]
		status, _, err := get(writer, fmt.Sprintf("%s/files/%d/wav", srv.url, f.ID), &buf)
		out.check(err == nil && status == http.StatusOK && bytes.Equal(buf.Bytes(), oracleWAV(f.ID, ts.set.fileChunks(f))),
			"/files/%d/wav after the stream differs from the oracle (HTTP %d %v)", f.ID, status, err)
	}
	rss := ss.peakRSS()

	// The crash: SIGKILL, then open the directory here. Every
	// acknowledged chunk must be listed at its full length.
	dir := srv.dir
	ss.kill()
	o0 := time.Now()
	endOpen, _ := r.tr.begin(len(ts.bodies)+1, 0, "archive", "archive.Open")
	store, err := archive.Open(dir, archive.Options{})
	endOpen()
	if err != nil {
		return nil, fmt.Errorf("reopening %s after the crash: %w", dir, err)
	}
	reopenS := time.Since(o0).Seconds()
	reopened := store.Stats()
	listed := make(map[flash.FileID]archive.FileInfo, nFiles)
	for _, fi := range store.Files() {
		listed[fi.ID] = fi
	}
	store.Close()
	missing := 0
	for i := range ts.set.files {
		f := &ts.set.files[i]
		if fi := listed[f.ID]; fi.Chunks != f.Chunks || fi.Bytes != int64(f.Chunks)*flash.PayloadSize {
			missing++
		}
	}
	out.check(missing == 0, "after kill -9, %d of %d files are not listed whole", missing, nFiles)
	unique := ts.set.payloadBytes()
	served, expected := mix.settle(out)
	out.check(expected > 0 && served > 0, "no audio was read beside the writer")

	out.e2e["setup_s"] = setup
	out.e2e["peak_rss_mb"] = rss
	out.e2e["cpu_s"] = cpu.Low * float64(cpu.N)
	out.e2e["rate_per_s"] = streamBatch / (wr.WholeP50 / 1e3)
	out.e2e["p50_ms"] = reads.P50.Low
	out.e2e["p90_ms"] = reads.P90.Low
	out.e2e["recovered_audio_ratio"] = float64(reopened.Bytes) / float64(unique)
	out.e2e["space_amp"] = float64(stats.SegmentBytes) / float64(stats.Bytes)

	out.printf("stream of %d chunks in %d bodies (%d duplicates, %d supersessions, hash %08x) over %d files; 1 writer, %d reader connection(s); no fsync per group commit",
		ts.chunks, len(ts.bodies), ts.duplicates, ts.supersedes, streamHash(ts.bodies), nFiles, readers)
	out.printf("paced part: %d bodies at %.0f /s (per post from due time p50 %.3f ms p90 %.3f ms) beside %d reads at %.0f /s",
		len(paced), r.size.mixedBodies, pw.WholeP50, pw.WholeP90, reads.N, readRate)
	out.printf("read_p50_ms = %.3f ms, read_p90_ms = %.3f ms beside the paced writer, from due time (first decile of %d slices; p50 median %.3f range %.3f-%.3f, p90 median %.3f range %.3f-%.3f; over all reads p50 %.3f p90 %.3f); lateness p50 %.3f ms",
		reads.P50.Low, reads.P90.Low, reads.P50.N, reads.P50.Median, reads.P50.Min, reads.P50.Max, reads.P90.Median, reads.P90.Min, reads.P90.Max, reads.WholeP50, reads.WholeP90, reads.LagP50)
	out.printf("cpu_s = %.3f s of server CPU over the paced part at the quiet slices' cost (%d slices: first decile %.4f s, median %.4f s, range %.4f-%.4f; %.3f s in all)",
		cpu.Low*float64(cpu.N), cpu.N, cpu.Low, cpu.Median, cpu.Min, cpu.Max, sum(sliceCPU()))
	out.printf("ingest: %.0f chunks/s back to back at the median post (n=%d posts of %d chunks, per post p50 %.3f ms p90 %.3f ms); ingest_mb_s = %.2f MB/s of acknowledged payload over the %.3f s they took",
		out.e2e["rate_per_s"], len(writes), streamBatch, wr.WholeP50, wr.WholeP90, ingestMBs, wall.Seconds())
	out.printf("space_amp = %.6f (%d segment bytes for %d live payload bytes after /compact)", out.e2e["space_amp"], stats.SegmentBytes, stats.Bytes)
	out.printf("crash: reopened with %d chunks, %d payload bytes; the generator sent %d unique bytes. Process-crash durability only: discarding unflushed pages needs the file-system seam of ROADMAP item 4c",
		reopened.Chunks, reopened.Bytes, unique)

	if r.tr != nil {
		shares, err := profileShares(profile)
		if err = errors.Join(profErr, err); err != nil {
			out.printf("server CPU profile absent: %v", err)
			shares = map[string]float64{}
		}
		l := layerValues(shares)
		out.layers = l
		d := after.since(before)
		archiveLayers(l, d, after, stats, archive.Stats{})
		wavP50, _, _ := mix.clientLatency(reqWAV)
		httpLayers(l, d, after, wavP50)
		l["archive.ingest_mb_s"] = ingestMBs
		l["archive.compact_s"] = compactS
		l["archive.reopen_s"] = reopenS
		if v, ok := after.sum("enviromic_archive_compact_reclaimed_bytes_total"); ok {
			l["archive.compact_reclaimed_mb"] = v / 1e6
		}
		l["loadgen.lag_p50_ms"], l["loadgen.lag_p99_ms"] = reads.LagP50, reads.LagP99
		l["loadgen.achieved_rps"] = reads.Achieved
		l["loadgen.open_p99_ms"], l["loadgen.open_p999_ms"] = reads.P99, reads.P999
	}
	return out, nil
}
