// Command bench is the repository's one benchmark: six named workloads
// that between them price both halves of EnviroMic — the mote simulator
// (city-serial, city-sharded), the basestation service (archive-read,
// archive-mixed, federation-read) and the pipeline that joins them
// (field-to-wav). README.md in this directory says what each workload
// and metric means and why it was chosen.
//
//	go run -C bench .                      # all six workloads, tracing off
//	go run -C bench . -trace 1             # then each again with spans and profiling on
//	go run -C bench . -workload archive-read -seed 3 -seconds 16
//	go run -C bench . -quick               # seconds, not minutes; what the test drives
//	go run -C bench . -aa                  # the full set twice; differences against the bounds
//
// Run with -workload, the last line of standard output is one JSON
// object: correct, attempted, failed and the metrics — the end-to-end
// ones with -trace 0, the per-layer ones with -trace 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
	"time"
)

// metricDef names one reported metric. Better and Bound are meaningful
// for end-to-end metrics only and must agree with BENCHMARK.json.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

// The end-to-end metrics: what a user of either half would see. Every
// workload reports every one of them; README.md gives the definition
// per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"cpu_s", "s", "lower", 0.25},
	{"rate_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p90_ms", "ms", "lower", 0.25},
	{"recovered_audio_ratio", "ratio", "higher", 0.15},
	{"space_amp", "ratio", "lower", 0.05},
}

// runSeconds is the measuring time the committed numbers were taken at.
const runSeconds = 16

// declaration renders BENCHMARK.json from the tables in this package, so
// the file at the root of the repository cannot drift from the program
// (a test compares them).
func declaration() []byte {
	type workloadDecl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eDecl struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerDecl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	decl := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadDecl `json:"workloads"`
		EndToEnd   []e2eDecl      `json:"end_to_end"`
		PerLayer   []layerDecl    `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		decl.Workloads = append(decl.Workloads, workloadDecl{w.name, w.why})
	}
	for _, d := range endToEnd {
		decl.EndToEnd = append(decl.EndToEnd, e2eDecl{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		decl.PerLayer = append(decl.PerLayer, layerDecl{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(decl, "", "  ")
	if err != nil {
		panic(err) // the tables hold only strings and numbers
	}
	return append(out, '\n')
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object a single-workload run ends with.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run is everything a workload needs to know about this invocation.
type run struct {
	env      *env
	host     hostInfo
	workload string
	seed     int64
	seconds  time.Duration
	size     sizes
	// tr is non-nil in the traced run: spans are recorded, profiles
	// taken and counters scraped. The untraced run measures with all of
	// that off.
	tr *tracer
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	// e2e holds every end-to-end metric; layers holds the per-layer
	// metrics this workload's layers produced (the rest report 0: the
	// layer did no work here).
	e2e, layers map[string]float64
	// lines are the human-readable report: the workload's own names for
	// its figures, with sample counts and ranges, the digest, the checks.
	lines []string
}

func (o *outcome) printf(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// check counts one output check and records a failure line if it did
// not hold.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.printf("FAIL: "+format, args...)
	}
}

// invalid marks a run whose measurement cannot be trusted (generator
// behind schedule); it fails the run like a failed check. A -quick run
// is a smoke test on whatever host runs the tests, so there it only
// says so.
func (o *outcome) invalid(lenient bool, format string, args ...any) {
	if lenient {
		o.printf("not a valid measurement: "+format, args...)
		return
	}
	o.check(false, "invalid run: "+format, args...)
}

// workloads in the order they run. The names are fixed: later issues
// refer to them.
var workloads = []struct {
	name string
	why  string
	fn   func(*run) (*outcome, error)
}{
	{"city-serial", "10k-mote city on the serial engine: scheduler, radio, acoustics and protocol handlers do all the work; the service does none", cityWorkload},
	{"city-sharded", "the same city on the sharded engine: windows, deposit lanes and barriers, checked bit-identical against serial", cityWorkload},
	{"field-to-wav", "the only workload that crosses the mule: record, tour, /ingest, then /wav for every file, with each stage's share", fieldToWav},
	{"archive-read", "read mix on one server with a working set 3x the cache and a hot set that fits: index, reassembly, stitch, encode, HTTP", archiveRead},
	{"archive-mixed", "a fixed tour stream with duplicates and supersessions: paced beside paced reads, then back to back, then compaction and a crash", archiveMixed},
	{"federation-read", "the read mix on three replicating stations' federated endpoints: fan-out, manifest merge and the shared stitch/encode tail", federationRead},
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and end with its JSON result (default: run all six, each in a child process)")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 0, "measuring time per workload (default 16, or 4 with -quick)")
		trace    = flag.Int("trace", 0, "1: record spans, take profiles and report the per-layer metrics")
		quick    = flag.Bool("quick", false, "small inputs and short phases: a smoke run, not a measurement")
		aa       = flag.Bool("aa", false, "run the full set twice and compare every end-to-end metric against its bound")
		declare  = flag.Bool("declare", false, "print BENCHMARK.json as this program defines it and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *declare {
		os.Stdout.Write(declaration())
		return
	}
	if *seconds <= 0 {
		if *seconds = runSeconds; *quick {
			*seconds = 4
		}
	}
	e, err := newEnv()
	if err != nil {
		fatal(err)
	}
	e.cleanupOnSignal()
	code := 0
	switch {
	case *workload != "":
		code = runOne(e, *workload, *seed, *seconds, *trace == 1, *quick)
	case *aa:
		code = runAA(e, *seed, *seconds, *quick)
	default:
		code = runAll(e, *seed, *seconds, *trace == 1, *quick)
	}
	e.close()
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runOne runs a single workload in this process and prints its report.
func runOne(e *env, name string, seed int64, seconds float64, traced, quick bool) int {
	r := &run{env: e, host: readHostInfo(e.benchDir), workload: name, seed: seed,
		seconds: time.Duration(seconds * float64(time.Second)), size: fullSizes}
	if quick {
		r.size = quickSizes
	}
	if traced {
		r.tr = newTracer()
	}
	var fn func(*run) (*outcome, error)
	for _, w := range workloads {
		if w.name == name {
			fn = w.fn
		}
	}
	if fn == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	fmt.Printf("== %s seed=%d seconds=%g trace=%v quick=%v\n   %s\n", name, seed, seconds, traced, quick, r.host)
	out, err := fn(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	if traced {
		path := fmt.Sprintf("%s/trace-%s.json", e.outDir, name)
		if err := r.tr.write(path, r.host, name); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		out.printf("spans written to %s", path)
	}
	for _, l := range out.lines {
		fmt.Println("   " + l)
	}
	rep := report{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	defs, values := endToEnd, out.e2e
	if traced {
		defs, values = perLayer, out.layers
	}
	var absent []string
	for _, d := range defs {
		v, present := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.Metrics[d.Name] = metricValue{v, d.Unit}
		if present {
			fmt.Printf("   %-28s %14.6g %s\n", d.Name, v, d.Unit)
		} else {
			absent = append(absent, d.Name)
		}
	}
	if len(absent) > 0 {
		fmt.Printf("   absent here (the layer does no work in this workload, or the series is not exposed): %s\n", strings.Join(absent, " "))
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	fmt.Println(string(line))
	if out.failed > 0 {
		return 1
	}
	return 0
}

// child runs one workload in a fresh process — so resident memory,
// collector state and page cache do not leak from one workload into the
// next — passes its output through, and returns its final report.
func child(name string, seed int64, seconds float64, traced, quick bool) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", tr}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	last, err := passThrough(pipe, os.Stdout)
	werr := cmd.Wait()
	if err != nil {
		return nil, err
	}
	// A child whose checks failed exits non-zero after its report; one
	// that could not run at all leaves no report.
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		fmt.Println(last)
		return nil, fmt.Errorf("%s: %v, and its last line is not a report", name, werr)
	}
	return &rep, nil
}

// passThrough copies lines to w, holding back the last one (the JSON
// report), which it returns.
func passThrough(r io.Reader, w io.Writer) (string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	last, have := "", false
	for sc.Scan() {
		if have {
			fmt.Fprintln(w, last)
		}
		last, have = sc.Text(), true
	}
	return last, sc.Err()
}

// refuseIfBusy declines to measure on a loaded host. It applies to the
// commands a person runs (all workloads, -aa), not to a single
// -workload run: a driver that runs those back to back keeps the
// one-minute average high with the benchmark's own load.
func refuseIfBusy(h hostInfo) error {
	if limit := float64(h.Cores) / 2; h.Load1 > limit {
		return fmt.Errorf("1-minute load average %.2f exceeds %.1f (half of %d cores): the host is busy, timings would not be this program's; try again when it is idle",
			h.Load1, limit, h.Cores)
	}
	return nil
}

// runSet runs every workload once (and once more traced, if asked),
// returning the untraced reports by workload.
func runSet(seed int64, seconds float64, traced, quick bool) (map[string]*report, bool) {
	ok := true
	reports := make(map[string]*report)
	for _, w := range workloads {
		rep, err := child(w.name, seed, seconds, false, quick)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ok = false
			continue
		}
		reports[w.name] = rep
		ok = ok && rep.Correct
		if traced {
			rep, err := child(w.name, seed, seconds, true, quick)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				ok = false
				continue
			}
			ok = ok && rep.Correct
		}
	}
	return reports, ok
}

func runAll(e *env, seed int64, seconds float64, traced, quick bool) int {
	host := readHostInfo(e.benchDir)
	if err := refuseIfBusy(host); err != nil && !quick {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	reports, ok := runSet(seed, seconds, traced, quick)
	printTable(reports)
	if !ok {
		fmt.Println("FAILED: at least one workload failed or reported an incorrect output")
		return 1
	}
	return 0
}

// printTable prints every end-to-end metric of every workload side by
// side.
func printTable(reports map[string]*report) {
	fmt.Printf("\n%-24s", "metric")
	for _, w := range workloads {
		fmt.Printf(" %15s", w.name)
	}
	fmt.Println()
	for _, d := range endToEnd {
		fmt.Printf("%-24s", d.Name+" ["+d.Unit+"]")
		for _, w := range workloads {
			if rep := reports[w.name]; rep != nil {
				fmt.Printf(" %15.5g", rep.Metrics[d.Name].Value)
			} else {
				fmt.Printf(" %15s", "-")
			}
		}
		fmt.Println()
	}
	fmt.Printf("%-24s", "failed/attempted")
	for _, w := range workloads {
		if rep := reports[w.name]; rep != nil {
			fmt.Printf(" %15s", fmt.Sprintf("%d/%d", rep.Failed, rep.Attempted))
		} else {
			fmt.Printf(" %15s", "-")
		}
	}
	fmt.Println()
}

// runAA is the second acceptance test kept as a command: the same code
// measured twice must agree with itself within every metric's bound.
func runAA(e *env, seed int64, seconds float64, quick bool) int {
	host := readHostInfo(e.benchDir)
	if err := refuseIfBusy(host); err != nil && !quick {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	first, ok1 := runSet(seed, seconds, false, quick)
	second, ok2 := runSet(seed, seconds, false, quick)
	if !ok1 || !ok2 {
		fmt.Println("FAILED: a workload failed; no comparison made")
		return 1
	}
	fmt.Printf("\n%-16s %-22s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	excess := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := first[w.name].Metrics[d.Name].Value, second[w.name].Metrics[d.Name].Value
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = (a - b) / a
			}
			flag := ""
			if worse > d.Bound {
				flag = "  EXCEEDS"
				excess++
			}
			fmt.Printf("%-16s %-22s %12.5g %12.5g %8.1f%% %6.0f%%%s\n", w.name, d.Name, a, b, 100*worse, 100*d.Bound, flag)
		}
	}
	if excess > 0 {
		fmt.Printf("FAILED: %d metric(s) differ between two runs of the same code by more than their bound\n", excess)
		return 1
	}
	return 0
}

// layerValues starts a workload's per-layer map with its CPU shares.
func layerValues(shares map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for l, share := range shares {
		out[shareMetric(l)] = share
	}
	out["bench.cpu_share_sum"] = sharesSum(shares)
	return out
}

// shareMetric names a layer's share metric: "<layer>.cpu_share", except
// that the runtime's parts read runtime.gc_cpu_share and so on.
func shareMetric(layer string) string {
	if strings.HasPrefix(layer, "runtime.") {
		return layer + "_cpu_share"
	}
	return layer + ".cpu_share"
}
