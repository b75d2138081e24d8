package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"enviromic/internal/archive"
	"enviromic/internal/core"
	"enviromic/internal/experiments"
	"enviromic/internal/flash"
	"enviromic/internal/geometry"
	"enviromic/internal/mote"
	"enviromic/internal/retrieval"
	"enviromic/internal/sim"
	"enviromic/internal/telemetry"
	"enviromic/internal/workload"
)

// sizes are the input sizes of one mode. The full sizes are what the
// committed numbers were measured at; they are constants, not options.
type sizes struct {
	cityBlocks int           // blocks per side of the city (0: the default 20, 10 421 motes)
	cityDur    time.Duration // simulated time per rep
	minReps    int

	fieldBlocks int
	fieldDur    time.Duration // simulated recording time before the tours
	fieldStride int           // a tour stops at every fieldStride-th mote

	files, fedFiles   int           // files preloaded into one server, into the federation
	mixedBodies       float64       // archive-mixed, paced part: /ingest bodies per second
	mixedRate         float64       // and reads per second beside them
	burstChunks       int           // chunks posted back to back after it, per second of -seconds/2
	warmup, fedWarmup int           // reads sent before the measured phases
	rate, fedRate     float64       // open-loop arrivals per second
	sweep             time.Duration // per rate of the traced run's rate sweep
	replay            int           // requests replayed in-process in the traced run
	lenient           bool          // report a late generator, do not fail the run for it
}

var fullSizes = sizes{
	cityDur: 2 * time.Minute, minReps: 3,
	fieldBlocks: 8, fieldDur: 3 * time.Minute, fieldStride: 6,
	files: 1200, fedFiles: 24, mixedBodies: 200, mixedRate: 500, burstChunks: 90_000,
	warmup: 4000, fedWarmup: 120, rate: 1000, fedRate: 25,
	sweep: 2 * time.Second, replay: 2000,
}

var quickSizes = sizes{
	cityBlocks: 4, cityDur: time.Minute, minReps: 2,
	fieldBlocks: 4, fieldDur: time.Minute, fieldStride: 6,
	files: 200, fedFiles: 20, mixedBodies: 50, mixedRate: 200, burstChunks: 30_000,
	warmup: 500, fedWarmup: 40, rate: 500, fedRate: 25,
	sweep: 500 * time.Millisecond, replay: 300, lenient: true,
}

// cityOpts is the city scenario. Only the network seed follows -seed:
// the acoustic event process keeps its own fixed seed, so every seed
// simulates the same soundscape over a differently drawn radio channel
// and the amount of work barely moves between seeds.
func (r *run) cityOpts(shards int) experiments.CityOpts {
	opts := experiments.DefaultCityOpts()
	opts.Seed = r.seed
	opts.Duration = r.size.cityDur
	opts.Shards = shards
	if r.size.cityBlocks != 0 {
		opts.City.Blocks = r.size.cityBlocks
	}
	return opts
}

// cityRep is one build-and-run of the city.
type cityRep struct {
	net               *core.Network
	build, wall, cpu  float64   // seconds
	perSecond         []float64 // host ms spent on each simulated second
	perSecondCPU      []float64 // and CPU seconds
	allocMB           float64
	mallocs, gcCycles float64
}

// runCity builds the city and runs it. The run is net.Run cut into one
// slice per simulated second — the same events in the same order, the
// scheduler just hands control back at each second — so that the cost
// of a simulated second has a distribution and not only a mean.
func runCity(opts experiments.CityOpts, tr *tracer, rep int) cityRep {
	var c cityRep
	endBuild, _ := tr.begin(rep, 0, "core", "BuildCity")
	t0 := time.Now()
	c.net, _ = experiments.BuildCity(opts)
	c.build = time.Since(t0).Seconds()
	endBuild()

	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	endRun, _ := tr.begin(rep, 0, "core", "Network.Run")
	cpu0, t0 := selfCPU(), time.Now()
	c.net.Start()
	last, lastCPU := t0, cpu0
	slice := func() {
		now, cpu := time.Now(), selfCPU()
		c.perSecond = append(c.perSecond, ms(now.Sub(last)))
		c.perSecondCPU = append(c.perSecondCPU, cpu-lastCPU)
		last, lastCPU = now, cpu
	}
	for s := time.Second; s < opts.Duration; s += time.Second {
		if sh := c.net.Sharding(); sh != nil {
			sh.Run(sim.At(s))
		} else {
			c.net.Sched.Run(sim.At(s))
		}
		slice()
	}
	c.net.Run(sim.At(opts.Duration)) // the last second, and the closing sample
	slice()
	c.wall, c.cpu = last.Sub(t0).Seconds(), lastCPU-cpu0
	endRun()
	if tr != nil {
		runtime.ReadMemStats(&after)
		c.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		c.mallocs = float64(after.Mallocs - before.Mallocs)
		c.gcCycles = float64(after.NumGC - before.NumGC)
	}
	return c
}

// simDigest fingerprints everything a pure speed-up must leave alone:
// recordings, miss ratio, frames by kind, stored bytes and a CRC over
// every chunk in every mote's flash. Two commits, or the serial and the
// sharded engine, agree on a seed exactly when these strings are equal.
func simDigest(net *core.Network, end sim.Time) string {
	st := net.Radio.Stats()
	kinds := make([]string, 0, len(st.TxByKind))
	for k, n := range st.TxByKind {
		kinds = append(kinds, fmt.Sprintf("%s:%d", k, n))
	}
	sort.Strings(kinds)
	crc := crc32.NewIEEE()
	var hdr [32]byte
	for _, node := range net.Nodes {
		for _, c := range node.Mote.Store.Chunks() {
			binary.LittleEndian.PutUint32(hdr[0:], uint32(node.ID))
			binary.LittleEndian.PutUint32(hdr[4:], uint32(c.File))
			binary.LittleEndian.PutUint32(hdr[8:], uint32(c.Origin))
			binary.LittleEndian.PutUint32(hdr[12:], c.Seq)
			binary.LittleEndian.PutUint64(hdr[16:], uint64(c.Start))
			binary.LittleEndian.PutUint64(hdr[24:], uint64(c.End))
			crc.Write(hdr[:])
			crc.Write(c.Data)
		}
	}
	return fmt.Sprintf("recordings=%d miss=%.6f stored=%d frames=[%s] flash_crc=%08x",
		len(net.Collector.Recordings), net.Collector.MissRatioAt(end), net.TotalStoredBytes(),
		strings.Join(kinds, " "), crc.Sum32())
}

// restMemory returns freed heap to the OS between reps and starts the
// peak resident set afresh, so each rep's peak is its own and not the
// last one's plus this one's garbage.
func restMemory() {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
}

// extraBuilds is how many times the city is built, beyond once per rep,
// to time set-up.
const extraBuilds = 6

// cityWorkload is city-serial and city-sharded.
func cityWorkload(r *run) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}}
	shards := 0
	if r.workload == "city-sharded" {
		if shards = r.host.Cores; shards < 2 {
			shards = 2 // one core still has to exercise the sharded engine
		}
	}
	opts := r.cityOpts(shards)
	end := sim.At(opts.Duration)

	var build, wall, rss []float64
	var perSecond, perSecondCPU [][]float64
	var digest string
	var last cityRep
	record := func(c cityRep) {
		build, wall = append(build, c.build), append(wall, c.wall)
		rss = append(rss, procPeakRSS(os.Getpid()))
		perSecond, perSecondCPU = append(perSecond, c.perSecond), append(perSecondCPU, c.perSecondCPU)
		d := simDigest(c.net, end)
		if digest == "" {
			digest = d
		}
		out.check(d == digest, "rep %d digest differs from rep 0: %s", len(wall)-1, d)
		last = c
	}

	var shares map[string]float64
	var reg *telemetry.Registry
	if r.tr == nil {
		// Set-up is a tenth of a second, so a few reps' worth is too few
		// samples for a steady median: build some more networks first.
		for i := 0; i < extraBuilds; i++ {
			t0 := time.Now()
			experiments.BuildCity(opts)
			build = append(build, time.Since(t0).Seconds())
		}
		start := time.Now()
		for rep := 0; rep < r.size.minReps || time.Since(start) < r.seconds; rep++ {
			last = cityRep{}
			restMemory()
			record(runCity(opts, nil, rep))
		}
	} else {
		// One plain rep for the overhead base, one with the registry
		// attached, spans on and the CPU profile running.
		record(runCity(opts, nil, 0))
		base := last.wall
		last = cityRep{}
		restMemory()
		reg = telemetry.NewRegistry()
		opts.Telemetry = reg
		prof := r.env.profilePath(r.workload, "harness")
		f, err := os.Create(prof)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		c := runCity(opts, r.tr, 1)
		pprof.StopCPUProfile()
		f.Close()
		record(c)
		if shares, err = profileShares(prof); err != nil {
			return nil, err
		}
		out.layers = layerValues(shares)
		out.layers["bench.trace_overhead"] = c.wall / base
	}
	held := retrieval.Summarize(retrieval.Reassemble(last.net.Holdings(), retrieval.Query{All: true}), 500*time.Millisecond)
	stored := last.net.TotalStoredBytes()
	out.check(held.Bytes > 0, "nothing was recorded")

	if shards > 0 {
		// The reference: the same scenario and seed on the serial engine.
		// It runs after the measurement and after the memory reading, so
		// it costs neither.
		ref := runCity(r.cityOpts(0), nil, -1)
		refDigest := simDigest(ref.net, end)
		out.check(refDigest == digest, "sharded digest differs from serial: %s", refDigest)
		out.printf("serial reference digest equal: %v", refDigest == digest)
	}

	// Every rep does the same work, so each simulated second has been
	// timed once per rep: the run is priced second by second at the
	// quietest rep's reading.
	wallSp := spreadOf(wall)
	quiet := quietest(perSecond)
	quietWall := sum(quiet) / 1e3
	sort.Float64s(quiet)
	out.e2e["setup_s"] = median(build)
	out.e2e["peak_rss_mb"] = median(rss)
	out.e2e["cpu_s"] = sum(quietest(perSecondCPU))
	out.e2e["rate_per_s"] = opts.Duration.Seconds() / quietWall
	out.e2e["p50_ms"] = percentile(quiet, 50)
	out.e2e["p90_ms"] = percentile(quiet, 90)
	out.e2e["recovered_audio_ratio"] = 1 - last.net.Collector.MissRatioAt(end)
	out.e2e["space_amp"] = float64(stored) / float64(held.Bytes)

	out.printf("%d motes, %v simulated per rep, shards=%d", len(last.net.Nodes), opts.Duration, shards)
	out.printf("sim_x_realtime = %.2f x (simulated s per host s; Network.Run is %.3f s with each simulated second at its quietest of %d reps; whole reps: median %.3f s, range %.3f-%.3f)",
		out.e2e["rate_per_s"], quietWall, wallSp.N, wallSp.Median, wallSp.Min, wallSp.Max)
	out.printf("host ms per simulated second: p50 %.2f p90 %.2f (n=%d seconds, each the quietest of %d reps); cpu_s = %.3f s likewise",
		out.e2e["p50_ms"], out.e2e["p90_ms"], len(quiet), wallSp.N, out.e2e["cpu_s"])
	out.printf("digest %s", digest)

	if r.tr != nil {
		simLayers(out.layers, last, reg, shards)
	}
	return out, nil
}

// simLayers fills the simulator's per-layer metrics from counters the
// program already keeps: scheduler and radio totals, the collector, and
// the telemetry registry the traced rep ran with.
func simLayers(l map[string]float64, c cityRep, reg *telemetry.Registry, shards int) {
	net := c.net
	events := float64(net.Sched.Executed())
	if sh := net.Sharding(); sh != nil {
		events = float64(sh.Executed())
		var max, total float64
		for i := 0; i < sh.N(); i++ {
			n := float64(sh.Shard(i).Executed())
			total += n
			if n > max {
				max = n
			}
		}
		if total > 0 {
			l["sim.shard_imbalance"] = max / (total / float64(sh.N()))
		}
	}
	l["sim.events"] = events
	if events > 0 {
		l["sim.ns_per_event"] = c.wall * 1e9 / events
	}
	s := scrapeRegistry(reg)
	l["sim.windows"], _ = s.sum("enviromic_sim_windows_total")
	l["sim.global_events"], _ = s.sum("enviromic_sim_global_events_total")
	l["sim.deposits"], _ = s.sum("enviromic_sim_deposits_merged_total")
	if wait, ok := s.sum("enviromic_sim_barrier_wait_seconds_sum"); ok && shards > 0 {
		l["sim.barrier_wait_share"] = wait / (float64(shards) * c.wall)
	}
	st := net.Radio.Stats()
	l["radio.tx_frames"] = float64(st.TotalFrames)
	l["radio.rx_delivered"] = float64(st.Delivered)
	l["radio.drops"] = float64(st.Lost + st.DroppedRadioOff + st.DroppedPartition)
	l["task.recordings"] = float64(len(net.Collector.Recordings))
	l["storage.migrations"] = float64(len(net.Collector.Migrations))
	l["storage.ttl_frames"] = float64(st.TxByKind["storage.ttl"])
	l["flash.stored_bytes"] = float64(net.TotalStoredBytes())
	l["core.build_s"], l["core.run_s"] = c.build, c.wall
	l["go.alloc_mb"], l["go.mallocs"], l["go.gc_cycles"] = c.allocMB, c.mallocs, c.gcCycles
}

// tourDwell is how long a mule waits at each stop for replies.
const tourDwell = 2 * time.Second

// fieldRep is one pass of the whole pipeline.
type fieldRep struct {
	setup, wall, simulated float64
	perSecond              []float64 // host ms per simulated second, recording and tours
	// pieces are the wall seconds of every timed call in order — each
	// simulated second, each tour stop, each stage after them — and
	// pieceCPU this process's CPU seconds over the same calls; serverCPU
	// is the server's over the rep.
	pieces, pieceCPU            []float64
	serverCPU                   float64
	wavMS                       []float64
	servedSeconds, flashSeconds float64
	spaceAmp, rss               float64
	files                       int
	stage                       map[string]float64 // seconds per stage
	tourEvents, tourChunks      float64
	c                           cityRep
	stats                       archive.Stats
	served                      scrape // the server's /metrics at the end of a traced rep
}

// fieldToWav is the end-to-end figure: a sound event in the field, the
// mule tours, /ingest, and the bytes out of /wav for every file.
func fieldToWav(r *run) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}}
	if err := r.env.buildServer(); err != nil {
		return nil, err
	}
	var reps []fieldRep
	var shares map[string]float64
	one := func(rep int, tr *tracer) error {
		restMemory()
		fr, err := r.fieldRep(out, rep, tr)
		if err == nil {
			reps = append(reps, fr)
		}
		return err
	}
	if r.tr == nil {
		start := time.Now()
		for rep := 0; rep < r.size.minReps || time.Since(start) < r.seconds; rep++ {
			if err := one(rep, nil); err != nil {
				return nil, err
			}
		}
	} else {
		if err := one(0, nil); err != nil {
			return nil, err
		}
		prof := r.env.profilePath(r.workload, "harness")
		f, err := os.Create(prof)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		err = one(1, r.tr)
		pprof.StopCPUProfile()
		f.Close()
		if err != nil {
			return nil, err
		}
		if shares, err = profileShares(prof); err != nil {
			return nil, err
		}
	}

	col := func(get func(fieldRep) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, fr := range reps {
			xs[i] = get(fr)
		}
		return xs
	}
	last := reps[len(reps)-1]
	// Every rep does the same work, so each piece of it has been timed once
	// per rep: the pipeline is priced piece by piece at the quietest rep's
	// reading, and what lies between the pieces (the harness's own
	// bookkeeping) at the quietest rep's total.
	wallSp := spreadOf(col(func(f fieldRep) float64 { return f.wall }))
	var pieces, pieceCPU, perSecond [][]float64
	for _, fr := range reps {
		pieces, pieceCPU, perSecond = append(pieces, fr.pieces), append(pieceCPU, fr.pieceCPU), append(perSecond, fr.perSecond)
	}
	between := spreadOf(col(func(f fieldRep) float64 { return f.wall - sum(f.pieces) }))
	quietWall := sum(quietest(pieces)) + between.Min
	quiet := quietest(perSecond)
	sort.Float64s(quiet)
	out.e2e["setup_s"] = median(col(func(f fieldRep) float64 { return f.setup }))
	out.e2e["peak_rss_mb"] = median(col(func(f fieldRep) float64 { return f.rss }))
	out.e2e["cpu_s"] = sum(quietest(pieceCPU)) + spreadOf(col(func(f fieldRep) float64 { return f.serverCPU })).Min
	out.e2e["rate_per_s"] = last.simulated / quietWall
	out.e2e["p50_ms"] = percentile(quiet, 50)
	out.e2e["p90_ms"] = percentile(quiet, 90)
	out.e2e["recovered_audio_ratio"] = last.servedSeconds / last.flashSeconds
	out.e2e["space_amp"] = last.spaceAmp

	out.printf("%d motes; %v recorded, then %.0f s of tours; %d files served", len(last.c.net.Nodes), r.size.fieldDur,
		last.simulated-r.size.fieldDur.Seconds(), last.files)
	out.printf("field_to_wav_s = %.3f s (%d timed pieces, each at its quietest of %d reps, and %.3f s between them; whole reps: median %.3f s, range %.3f-%.3f); cpu_s = %.3f s likewise",
		quietWall, len(last.pieces), wallSp.N, between.Min, wallSp.Median, wallSp.Min, wallSp.Max, out.e2e["cpu_s"])
	out.printf("recovered_audio_ratio = %.6f (%.1f s served of %.1f s in mote flash)", out.e2e["recovered_audio_ratio"],
		last.servedSeconds, last.flashSeconds)
	out.printf("host ms per simulated second, recording and tours: p50 %.2f p90 %.2f (n=%d, each the quietest of %d reps); /wav per file p50 %.3f ms p90 %.3f ms (n=%d)",
		out.e2e["p50_ms"], out.e2e["p90_ms"], len(last.perSecond), len(reps), percentileOf(last.wavMS, 50), percentileOf(last.wavMS, 90), len(last.wavMS))
	var staged float64
	names := make([]string, 0, len(last.stage))
	for n := range last.stage {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		staged += last.stage[n]
		out.printf("  stage %-22s %8.3f s  %5.1f%%", n, last.stage[n], 100*last.stage[n]/last.wall)
	}
	out.printf("  stages account for %.1f%% of the rep", 100*staged/last.wall)

	if r.tr != nil {
		out.layers = layerValues(shares)
		l := out.layers
		l["bench.trace_overhead"] = reps[1].wall / reps[0].wall
		l["bench.span_coverage"] = staged / last.wall
		last.c.wall = last.stage["Network.Run"] + last.stage["Mule.Tour"] // the tours are simulated too
		simLayers(l, last.c, nil, 0)
		l["core.build_s"], l["core.run_s"] = last.c.build, last.stage["Network.Run"]
		l["retrieval.tour_s"] = last.stage["Mule.Tour"]
		l["retrieval.tour_events"], l["retrieval.tour_chunks"] = last.tourEvents, last.tourChunks
		l["retrieval.reassemble_s"] = last.stage["Reassemble"]
		archiveLayers(l, last.served, last.served, last.stats, archive.Stats{})
		httpLayers(l, last.served, last.served, percentileOf(last.wavMS, 50))
		l["archive.encode_frames_s"] = last.stage["EncodeFrames"]
	}
	return out, nil
}

func percentileOf(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, p)
}

// fieldRep runs the pipeline once against a fresh server.
func (r *run) fieldRep(out *outcome, rep int, tr *tracer) (fieldRep, error) {
	fr := fieldRep{stage: map[string]float64{}}
	city := workload.CityConfig{Seed: 11, Blocks: r.size.fieldBlocks, BlockSize: 100, Spacing: 8,
		Duration: r.size.fieldDur, EventGap: 5 * time.Second, Mules: 4}
	opts := experiments.CityOpts{Seed: r.seed, City: city, Duration: r.size.fieldDur, FlashBlocks: 128}
	if tr != nil {
		opts.Telemetry = telemetry.NewRegistry()
	}

	// Set-up: the network and an empty server.
	t0 := time.Now()
	endBuild, _ := tr.begin(rep, 0, "core", "BuildCity")
	net, _ := experiments.BuildCity(opts)
	endBuild()
	fr.c = cityRep{net: net, build: time.Since(t0).Seconds()}
	ports, err := freePorts(1)
	if err != nil {
		return fr, err
	}
	srv, err := r.env.startServer(r.workload, "archive", ports[0])
	if err != nil {
		return fr, err
	}
	defer srv.kill()
	client := newClient()
	fr.setup = time.Since(t0).Seconds()

	_, root := tr.begin(rep, 0, "bench", "field-to-wav")
	timed := func(fn func()) float64 {
		s, c := time.Now(), selfCPU()
		fn()
		d := time.Since(s).Seconds()
		fr.pieces, fr.pieceCPU = append(fr.pieces, d), append(fr.pieceCPU, selfCPU()-c)
		return d
	}
	// stage times fn as one piece of the named stage; staged only names the
	// stage, for a fn that times its own pieces.
	staged := func(layer, name string, fn func()) {
		end, _ := tr.begin(rep, root, layer, name)
		s := time.Now()
		fn()
		fr.stage[name] += time.Since(s).Seconds()
		end()
	}
	stage := func(layer, name string, fn func()) {
		staged(layer, name, func() { timed(fn) })
	}
	cpu0 := procCPU(srv.pid())
	start := time.Now()

	staged("core", "Network.Run", func() {
		net.Start()
		for s := time.Second; s <= opts.Duration; s += time.Second {
			run := func() { net.Sched.Run(sim.At(s)) }
			if s == opts.Duration {
				run = func() { net.Run(sim.At(s)) } // the last second, and the closing sample
			}
			fr.perSecond = append(fr.perSecond, 1e3*timed(run))
		}
	})
	fr.c.wall = fr.stage["Network.Run"]

	// One mule per stripe of the street grid, IDs above every mote's.
	positions := workload.CityPositions(city)
	var collected [][]*flash.Chunk
	before := net.Sched.Executed()
	for i := 0; i < city.Mules; i++ {
		lo, hi := i*len(positions)/city.Mules, (i+1)*len(positions)/city.Mules
		var stops []geometry.Point
		for j := lo; j < hi; j += r.size.fieldStride {
			stops = append(stops, positions[j])
		}
		staged("retrieval", "Mule.Tour", func() {
			m := retrieval.NewMule(100000+i, stops[0], net.Radio, net.Sched)
			// One stop at a time, which is all Tour does with a list, so
			// that each stop's host time is known.
			for k := range stops {
				d := timed(func() { m.Tour(net.Sched, stops[k:k+1], tourDwell, retrieval.Query{All: true}) })
				fr.perSecond = append(fr.perSecond, 1e3*d/tourDwell.Seconds())
			}
			collected = append(collected, m.Collected)
			fr.tourChunks += float64(len(m.Collected))
		})
	}
	fr.tourEvents = float64(net.Sched.Executed() - before)
	fr.simulated = net.Sched.Now().Seconds()
	// What a tour of every mote would have brought back: the motes kept
	// recording while the mules drove, so this is read after the tours.
	stage("retrieval", "Reassemble", func() {
		sum := retrieval.Summarize(retrieval.Reassemble(net.Holdings(), retrieval.Query{All: true}), 500*time.Millisecond)
		fr.flashSeconds = sum.TotalLength.Seconds()
	})

	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, chunks := range collected {
		var body []byte
		stage("archive", "EncodeFrames", func() {
			var err error
			body, err = archive.EncodeFrames(chunks)
			fail(err)
		})
		stage("http", "POST /ingest", func() {
			status, err := post(client, srv.url+"/ingest", body)
			fail(err)
			out.check(status == http.StatusOK, "POST /ingest: HTTP %d", status)
		})
	}
	var listing []struct {
		ID flash.FileID `json:"id"`
	}
	var buf bytes.Buffer
	stage("http", "GET /files", func() {
		status, _, err := get(client, srv.url+"/files", &buf)
		fail(err)
		out.check(status == http.StatusOK, "GET /files: HTTP %d", status)
		fail(json.Unmarshal(buf.Bytes(), &listing))
	})
	wavs := make(map[flash.FileID][]byte)
	for i, fi := range listing {
		stage("http", "GET /files/{id}/wav", func() {
			s := time.Now()
			status, _, err := get(client, fmt.Sprintf("%s/files/%d/wav", srv.url, fi.ID), &buf)
			fr.wavMS = append(fr.wavMS, ms(time.Since(s)))
			fail(err)
			out.check(status == http.StatusOK && riffOK(buf.Bytes()), "GET /files/%d/wav: HTTP %d, %d bytes", fi.ID, status, buf.Len())
		})
		if n := buf.Len() - wavHeader; n > 0 {
			fr.servedSeconds += float64(n) / mote.DefaultSampleRate
		}
		if i%8 == 0 {
			wavs[fi.ID] = append([]byte(nil), buf.Bytes()...)
		}
	}
	fr.wall = time.Since(start).Seconds()
	fr.serverCPU = procCPU(srv.pid()) - cpu0
	if firstErr != nil {
		return fr, firstErr
	}

	// Output checks, outside the timing: the listing holds exactly the
	// files the tours brought back, and every eighth body equals the
	// oracle's rendering of the mules' own chunks.
	oracle := longestCopies(collected)
	out.check(len(listing) == len(oracle), "/files lists %d files, the tours collected %d", len(listing), len(oracle))
	for id, body := range wavs {
		out.check(bytes.Equal(body, oracleWAV(id, oracle[id])), "/files/%d/wav differs from the oracle", id)
	}
	fr.files = len(listing)
	if fr.stats, err = serverStats(client, srv.url); err != nil {
		return fr, err
	}
	if tr != nil {
		if fr.served, err = scrapeURL(client, srv.url); err != nil {
			return fr, err
		}
	}
	fr.spaceAmp = float64(fr.stats.SegmentBytes) / float64(fr.stats.Bytes)
	fr.rss = procPeakRSS(os.Getpid()) + procPeakRSS(srv.pid())
	return fr, nil
}

// longestCopies groups the tours' chunks by file, keeping for each
// (file, origin, seq) the longest copy and, among equals, the first —
// the archive's own rule.
func longestCopies(tours [][]*flash.Chunk) map[flash.FileID][]*flash.Chunk {
	type key struct {
		file   flash.FileID
		origin int32
		seq    uint32
	}
	at := make(map[key]int)
	out := make(map[flash.FileID][]*flash.Chunk)
	for _, tour := range tours {
		for _, c := range tour {
			k := key{c.File, c.Origin, c.Seq}
			if i, seen := at[k]; seen {
				if len(c.Data) > len(out[c.File][i].Data) {
					out[c.File][i] = c
				}
				continue
			}
			at[k] = len(out[c.File])
			out[c.File] = append(out[c.File], c)
		}
	}
	return out
}
