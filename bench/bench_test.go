package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
}

// The highest percentile reported is the highest with ten samples beyond it.
func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// 6000 samples: p99 has 60 beyond it and is reported; p99.9 has 6 and is not.
	samples := make([]sample, 6000)
	for i := range samples {
		samples[i] = sample{Due: time.Duration(i) * time.Millisecond, Lat: time.Duration(i+1) * time.Microsecond, OK: true}
	}
	st := summarize(samples, 6*time.Second, 5)
	if st.P99 == 0 || st.P999 != 0 {
		t.Errorf("6000 samples: p99 = %v, p99.9 = %v; want p99 reported and p99.9 withheld", st.P99, st.P999)
	}
}

// A stall that covers a fifth of the slices moves neither the quiet end
// of the latencies nor the quiet end of the rates.
func TestSummarizeReportsTheQuietSlices(t *testing.T) {
	var samples []sample
	for i := 0; i < 5000; i++ {
		due := time.Duration(i) * time.Millisecond
		lat := time.Millisecond
		if due >= 2*time.Second && due < 3*time.Second {
			lat = 500 * time.Millisecond // four of twenty slices stall
		}
		samples = append(samples, sample{Due: due, Lat: lat, OK: i != 7})
	}
	st := summarize(samples, 5*time.Second, slicesFor(len(samples), 5*time.Second))
	if st.N != 5000 || st.Failed != 1 {
		t.Errorf("N, Failed = %d, %d; want 5000, 1", st.N, st.Failed)
	}
	if st.P50.N != 20 || st.P50.Low != 1 || st.P90.Low != 1 || st.P50.Max != 500 || st.P50.High != 500 {
		t.Errorf("p50 %+v p90 %+v: want twenty slices, first decile 1 ms, last decile and maximum 500 ms", st.P50, st.P90)
	}
	if st.RPS.High != 1000 || st.RPS.Median != 1000 || st.RPS.Min != 996 {
		t.Errorf("rate %+v, want 1000/s but for the slice with the failure", st.RPS)
	}
	if st.WholeP50 != 1 || st.WholeP90 != 500 {
		t.Errorf("over all samples p50 %v p90 %v, want 1 and 500", st.WholeP50, st.WholeP90)
	}
	// A slice holds a hundred samples or more, so a thin phase gets fewer.
	for _, c := range []struct {
		n     int
		phase time.Duration
		want  int
	}{{8000, 8 * time.Second, 32}, {200, 8 * time.Second, 2}, {450, 450 * time.Millisecond, 1}, {0, time.Second, 1}} {
		if got := slicesFor(c.n, c.phase); got != c.want {
			t.Errorf("slicesFor(%d, %v) = %d, want %d", c.n, c.phase, got, c.want)
		}
	}
}

func TestSpreadDeciles(t *testing.T) {
	xs := make([]float64, 32)
	for i := range xs {
		xs[i] = float64(32 - i)
	}
	if sp := spreadOf(xs); sp.Low != 4 || sp.High != 29 || sp.Min != 1 || sp.Max != 32 || sp.Median != 16.5 || sp.N != 32 {
		t.Errorf("spread of 1..32 = %+v", sp)
	}
	if sp := spreadOf([]float64{3, 7}); sp.Low != 3 || sp.High != 7 {
		t.Errorf("spread of two = %+v, want the lesser and the greater", sp)
	}
	if sp := spreadOf(nil); sp != (spread{}) {
		t.Errorf("spread of nothing = %+v", sp)
	}
}

func TestQuietestTakesEachReadingAtItsLeast(t *testing.T) {
	got := quietest([][]float64{{3, 9, 4}, {5, 2, 4, 8}, {6, 7, 1}})
	if len(got) != 3 || got[0] != 3 || got[1] != 2 || got[2] != 1 {
		t.Errorf("quietest = %v, want [3 2 1]", got)
	}
	if quietest(nil) != nil {
		t.Error("quietest of no reps is not empty")
	}
}

// sliceUse reads the total at every boundary and hands back what each
// slice used.
func TestSliceUse(t *testing.T) {
	clk := &fakeClock{}
	total := 0.0
	use := sliceUse(clk, time.Second, 4, func() float64 {
		total += clk.Now().Seconds() // reads 0, then 0.25, 0.5, 0.75, 1 more
		return total
	})()
	want := []float64{0.25, 0.5, 0.75, 1}
	for i := range want {
		if len(use) != len(want) || math.Abs(use[i]-want[i]) > 1e-9 {
			t.Fatalf("slices used %v, want %v", use, want)
		}
	}
}

// fakeClock advances only when someone sleeps or the fake server takes
// time, so a stall can be scripted exactly.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
}

// A server that stalls for 200 ms must inflate the latency of every
// request that came due during the stall, not only of the one that was
// in flight: the regression test for coordinated omission.
func TestOpenLoopChargesAStallToTheRequestsDueDuringIt(t *testing.T) {
	const (
		service    = time.Millisecond
		stallStart = time.Second
		stallEnd   = stallStart + 200*time.Millisecond
	)
	clk := &fakeClock{}
	server := func(worker, i int) bool {
		clk.mu.Lock()
		defer clk.mu.Unlock()
		if clk.now >= stallStart && clk.now < stallEnd {
			clk.now = stallEnd
		}
		clk.now += service
		return true
	}
	samples := openLoop(clk, 1, 100, 2*time.Second, 9, 0, server)
	if len(samples) != 200 {
		t.Fatalf("%d samples, want 200", len(samples))
	}
	inflated := 0
	for _, s := range samples {
		switch {
		case s.Due >= stallStart && s.Due < stallEnd:
			if want := stallEnd - s.Due; s.Lat < want {
				t.Errorf("request due at %v waited out the stall but reports %v, want at least %v", s.Due, s.Lat, want)
			}
			inflated++
		case s.Due < stallStart:
			// Two arrivals may fall within one service time of each other.
			if s.Lat-s.Lag != service || s.Lag >= service {
				t.Errorf("request due at %v before the stall: latency %v lag %v, want %v over a lag under it", s.Due, s.Lat, s.Lag, service)
			}
		}
	}
	if inflated < 19 || inflated > 21 {
		t.Errorf("%d requests came due during the stall, want 20 give or take the jitter", inflated)
	}
	// The generator caught up: the last request was sent on time.
	if last := samples[len(samples)-1]; last.Lag != 0 {
		t.Errorf("last request was %v late; the backlog should have drained", last.Lag)
	}
}

// A server too slow for the rate ends the phase with the unsent
// requests counted as failed instead of running on.
func TestOpenLoopGivesUpOnAGrowingBacklog(t *testing.T) {
	clk := &fakeClock{}
	slow := func(worker, i int) bool {
		clk.mu.Lock()
		defer clk.mu.Unlock()
		clk.now += 100 * time.Millisecond
		return true
	}
	st := summarize(openLoop(clk, 1, 100, time.Second, 9, 0, slow), time.Second, 1)
	if st.N != 100 || st.Failed == 0 || st.Failed == st.N {
		t.Errorf("N %d failed %d: want 100 requests, some sent and the rest given up", st.N, st.Failed)
	}
	if clk.Now() > 3*time.Second {
		t.Errorf("the phase ran to %v; it should stop about one phase length after its end", clk.Now())
	}
}

func TestClosedLoopEndsWithThePhaseOrTheFlag(t *testing.T) {
	clk := &fakeClock{}
	n := 0
	var stop atomic.Bool
	server := func(worker, i int) bool {
		if i != 5+n {
			t.Errorf("request %d numbered %d", n, i)
		}
		n++
		stop.Store(n == 30)
		clk.SleepUntil(clk.Now() + 10*time.Millisecond)
		return true
	}
	if got := len(closedLoop(clk, 1, time.Second, nil, 5, server)); got != 100 {
		t.Errorf("%d requests in 1 s at 10 ms each, want 100", got)
	}
	clk, n = &fakeClock{}, 0
	if got := len(closedLoop(clk, 1, time.Hour, &stop, 5, server)); got != 30 {
		t.Errorf("%d requests before the stop flag, want 30", got)
	}
}

// The same seed gives byte-identical chunk streams and request
// schedules; another seed gives others.
func TestGeneratorIsDeterministic(t *testing.T) {
	type prints struct{ preload, sched, stream uint32 }
	gen := func(seed int64) prints {
		set := newDataset(seed, 50, 1)
		bodies, err := set.ingestBodies(set.files, 256)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := newTourStream(seed, 20000, 256, 1)
		if err != nil {
			t.Fatal(err)
		}
		return prints{streamHash(bodies), scheduleHash(set, newSchedule(seed, 4096, len(set.files))), streamHash(ts.bodies)}
	}
	a, again, b := gen(7), gen(7), gen(8)
	if a != again {
		t.Errorf("seed 7 twice: %+v then %+v", a, again)
	}
	if a.preload == b.preload || a.sched == b.sched || a.stream == b.stream {
		t.Errorf("seeds 7 and 8 share a fingerprint: %+v and %+v", a, b)
	}
}

func TestScheduleMix(t *testing.T) {
	sched := newSchedule(3, 8000, 100)
	var kinds [4]int
	origins, zipf := 0, 0
	for _, r := range sched {
		kinds[r.Kind]++
		if r.Origins {
			origins++
		}
		if r.Rank >= 0 {
			zipf++
		}
		if i := r.fileIndex(100); i < 0 || i >= 100 {
			t.Fatalf("file index %d out of range", i)
		}
		if i := r.fileIndex(3); i < 0 || i >= 3 {
			t.Fatalf("file index %d out of range of 3 readable files", i)
		}
	}
	if kinds != [4]int{4000, 2000, 1000, 1000} || origins != 500 || zipf != 4000 {
		t.Errorf("mix %v, %d with origins, %d Zipf; want 4000/2000/1000/1000, 500, 4000", kinds, origins, zipf)
	}
}

func TestTourStreamShares(t *testing.T) {
	ts, err := newTourStream(1, 100000, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	dup, sup := float64(ts.duplicates)/float64(ts.chunks), float64(ts.supersedes)/float64(ts.chunks)
	if math.Abs(dup-dupShare) > 0.01 || math.Abs(sup-supersedeShare) > 0.01 {
		t.Errorf("duplicates %.3f supersessions %.3f of %d chunks, want %.2f and %.2f", dup, sup, ts.chunks, dupShare, supersedeShare)
	}
	if ts.readable[len(ts.readable)-1] != len(ts.set.files) {
		t.Errorf("the last body leaves %d of %d files readable", ts.readable[len(ts.readable)-1], len(ts.set.files))
	}
	for b := 1; b < len(ts.readable); b++ {
		if ts.readable[b] < ts.readable[b-1] {
			t.Fatalf("readable files shrink at body %d", b)
		}
	}
}

// The query oracle agrees with a brute-force reading of its definition.
func TestQueryCount(t *testing.T) {
	set := newDataset(2, 200, 1)
	from := set.files[0].Start
	to := from.Add(queryWindow)
	if n := set.queryCount(from, to, nil); n < 1 {
		t.Errorf("window starting at file 1's start holds %d files", n)
	}
	if n := set.queryCount(from, to, set.files[0].Origins); n < 1 {
		t.Errorf("narrowed to file 1's origins the window holds %d files", n)
	}
	if n := set.queryCount(from, to, []int32{-1}); n != 0 {
		t.Errorf("no file has origin -1, got %d", n)
	}
}

// The pprof reducer charges every row to one layer, so shares sum to 1.
func TestReduceTopSharesSumToOne(t *testing.T) {
	for file, must := range map[string][]string{
		"pprof_top_sim.txt":    {"sim", "acoustics", "runtime.gc"},
		"pprof_top_server.txt": {"archive", "net_http", "syscall", "trace"},
	} {
		f, err := os.Open(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		shares, err := reduceTop(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if sum := sharesSum(shares); math.Abs(sum-1) > 0.01 {
			t.Errorf("%s: shares sum to %v", file, sum)
		}
		for _, l := range must {
			if shares[l] <= 0 {
				t.Errorf("%s: layer %s has no share: %v", file, l, shares)
			}
		}
		known := map[string]bool{}
		for _, l := range cpuLayers {
			known[l] = true
		}
		for l := range shares {
			if !known[l] {
				t.Errorf("%s: share charged to %q, which is not a reported layer", file, l)
			}
		}
	}
	if _, err := reduceTop(strings.NewReader("no table here\n")); err == nil {
		t.Error("text without a pprof table was accepted")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"enviromic/internal/sim.(*eventHeap).pop":               "sim",
		"enviromic/internal/archive.(*Store).File":              "archive",
		"enviromic/internal/compress.Encode":                    "other",
		"encoding/json.(*encodeState).marshal":                  "json",
		"net/http.(*conn).serve":                                "net_http",
		"internal/runtime/syscall.Syscall6":                     "syscall",
		"runtime.scanobject":                                    "runtime.gc",
		"runtime.findRunnable":                                  "runtime.sched",
		"runtime.mallocgc":                                      "runtime.other",
		"runtime.heapSetTypeSmallHeader (inline)":               "runtime.gc",
		"main.(*readMix).do":                                    "bench",
		"math.archHypot":                                        "other",
		"enviromic/internal/federation.(*Station).fanout.func1": "federation",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSpansKeepParentLinks(t *testing.T) {
	tr := newTracer()
	endRoot, root := tr.begin(3, 0, "bench", "rep")
	endChild, child := tr.begin(3, root, "core", "Network.Run")
	endChild()
	endRoot()
	if root != 1 || child != 2 || tr.spans[1].Parent != root || tr.spans[1].Trace != 3 {
		t.Errorf("spans %+v", tr.spans)
	}
	if tr.spans[0].End < tr.spans[1].End || tr.spans[1].End < tr.spans[1].Start {
		t.Errorf("span times out of order: %+v", tr.spans)
	}
	var none *tracer
	end, id := none.begin(1, 0, "x", "y") // tracing off
	end()
	if id != 0 {
		t.Errorf("a nil tracer handed out span %d", id)
	}
}

func TestScrapeSinceAndSum(t *testing.T) {
	before := scrape{{Name: "a_total", Labels: map[string]string{"endpoint": "/x"}, Value: 3}}
	after := scrape{
		{Name: "a_total", Labels: map[string]string{"endpoint": "/x"}, Value: 10},
		{Name: "a_total", Labels: map[string]string{"endpoint": "/y"}, Value: 4},
	}
	d := after.since(before)
	if v, ok := d.sum("a_total"); !ok || v != 11 {
		t.Errorf("sum over the interval = %v, %v; want 11", v, ok)
	}
	if v, ok := d.sum("a_total", "endpoint", "/x"); !ok || v != 7 {
		t.Errorf("sum for /x = %v, %v; want 7", v, ok)
	}
	if _, ok := d.sum("b_total"); ok {
		t.Error("an absent series was reported present")
	}
}

// BENCHMARK.json at the root of the repository is what -declare prints,
// and stays inside the limits the benchmark contract sets.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(declaration()) {
		t.Error("BENCHMARK.json differs from `go run -C bench . -declare`")
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics: outside 2-8, 1-16, 1-128", len(workloads), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") || d.Bound > 0.25 {
			t.Errorf("metric %+v: duplicate, over-long, without direction or over-wide bound", d)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
}

// The quick mode end to end: build the harness and the server, run all
// six workloads as child processes, every output check on. Skipped
// under -short.
func TestQuickRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("boots child servers and simulates six workloads")
	}
	bin := filepath.Join(t.TempDir(), "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-quick", "-trace", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("bench -quick -trace 1: %v\n%s", err, out)
	}
	// A zero exit already says every child ran and reported correct; the
	// table's last row says how many checks each made.
	text := string(out)
	row := ""
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "failed/attempted") {
			row = line
		}
	}
	cells := strings.Fields(strings.TrimPrefix(row, "failed/attempted"))
	if len(cells) != len(workloads) {
		t.Fatalf("table row %q does not have a cell per workload\n%s", row, text)
	}
	for i, cell := range cells {
		if !strings.HasPrefix(cell, "0/") || cell == "0/0" {
			t.Errorf("%s: failed/attempted = %s", workloads[i].name, cell)
		}
	}
	for _, w := range workloads {
		if _, err := os.Stat(filepath.Join("out", "trace-"+w.name+".json")); err != nil {
			t.Errorf("no span file for %s: %v", w.name, err)
		}
	}
	for _, want := range []string{"serial reference digest equal: true", "stages account for", "bench.trace_overhead"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q", want)
		}
	}
}
