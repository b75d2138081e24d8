package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// request or rep share Trace; Parent is the ID of the span that caused
// this one (0 for a root). Times are nanoseconds since the tracer
// started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  int    `json:"trace"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer
// records nothing, which is how the untraced run is measured.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it and the
// span's ID for children to name as their parent.
func (t *tracer) begin(trace, parent int, layer, name string) (end func(), id int) {
	if t == nil {
		return func() {}, 0
	}
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Layer: layer, Name: name, Start: start})
	id = len(t.spans)
	t.mu.Unlock()
	return func() {
		now := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = now
		t.mu.Unlock()
	}, id
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string, host hostInfo, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Host     string `json:"host"`
		Spans    []span `json:"spans"`
	}{workload, host.String(), t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// cpuLayers are the layers a CPU profile is reduced to: the repository's
// packages by name, the parts of the Go runtime and standard library
// the service spends time in, and "other" for the rest, so the shares
// of one profile sum to 1.
var cpuLayers = []string{
	"sim", "radio", "netstack", "group", "task", "storage", "flash", "acoustics", "mote",
	"timesync", "metrics", "geometry", "core", "retrieval", "archive", "trace", "wav",
	"federation", "telemetry", "json", "net_http", "syscall", "runtime.gc", "runtime.sched",
	"runtime.other", "bench", "other",
}

// Prefixes of runtime function names charged to the collector and to
// the goroutine scheduler; the rest of the runtime (allocation, maps,
// memmove) is runtime.other.
var (
	gcFuncs = []string{"gc", "scan", "mark", "sweep", "grey", "bgsweep", "bgscavenge", "wb", "(*gcWork)",
		"(*gcBits", "(*mspan).sweep", "(*sweepLocked)", "(*mheap).reclaim", "typePointers", "heapSetType",
		"(*gcControllerState)", "(*limiterEvent)", "(*gcCPULimiterState)", "spanOf", "findObject", "(*mspan).markBits",
		"(*markBits)", "(*activeSweep)", "(*scavenge"}
	schedFuncs = []string{"schedule", "findRunnable", "park", "gopark", "goready", "ready", "futex", "note",
		"mcall", "stealWork", "runq", "wakep", "startm", "stopm", "execute", "gosched", "goexit", "usleep",
		"osyield", "netpoll", "epoll", "checkTimers", "(*timers)", "(*timer)", "resetspinning", "pidle", "mPark",
		"chansend", "chanrecv", "send", "recv", "selectgo", "sellock", "selunlock", "acquireSudog", "releaseSudog",
		"lock", "unlock", "semasleep", "semawakeup", "sema", "casgstatus", "(*randomEnum)", "(*randomOrder)", "nanotime"}
)

// layerOf maps a fully qualified Go function name to its layer.
func layerOf(fn string) string {
	fn = strings.TrimSuffix(fn, " (inline)")
	const internal = "enviromic/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		pkg := fn[len(internal):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range cpuLayers {
			if l == pkg {
				return pkg
			}
		}
		return "other"
	case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "enviromic/bench"):
		return "bench"
	case strings.HasPrefix(fn, "encoding/json."):
		return "json"
	case strings.HasPrefix(fn, "net/") || strings.HasPrefix(fn, "net.") || strings.HasPrefix(fn, "bufio.") ||
		strings.HasPrefix(fn, "internal/poll.") || strings.HasPrefix(fn, "mime/") || strings.HasPrefix(fn, "io."):
		return "net_http"
	case strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/runtime/syscall.") ||
		strings.HasPrefix(fn, "internal/syscall/"):
		return "syscall"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal/") ||
		strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "internal/abi.") ||
		strings.HasPrefix(fn, "internal/bytealg.") || fn == "gcWriteBarrier" || strings.HasPrefix(fn, "gcWriteBarrier"):
		name := fn[strings.Index(fn, ".")+1:]
		if strings.HasPrefix(fn, "gcWriteBarrier") || hasAnyPrefix(name, gcFuncs) {
			return "runtime.gc"
		}
		if hasAnyPrefix(name, schedFuncs) {
			return "runtime.sched"
		}
		return "runtime.other"
	}
	return "other"
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// reduceTop turns the text of `go tool pprof -top -unit=ms` into each
// layer's share of the flat samples. Every row is charged to exactly
// one layer, so the shares sum to 1 (or the map is empty when the
// profile holds no samples).
func reduceTop(r io.Reader) (map[string]float64, error) {
	flat := make(map[string]float64)
	var total float64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", sc.Text(), err)
		}
		flat[layerOf(strings.Join(f[5:], " "))] += v
		total += v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inTable {
		return nil, fmt.Errorf("no pprof -top table found")
	}
	if total == 0 {
		return map[string]float64{}, nil
	}
	for l := range flat {
		flat[l] /= total
	}
	return flat, nil
}

// profileShares reduces CPU profiles on disk (merged, if several) with
// the toolchain's own pprof.
func profileShares(profiles ...string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000", "-nodefraction=0"}, profiles...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -top %v: %v", profiles, err)
	}
	return reduceTop(strings.NewReader(string(out)))
}

// sharesSum adds the shares up, for the "sum to 1" check.
func sharesSum(shares map[string]float64) float64 {
	var s float64
	for _, share := range shares {
		s += share
	}
	return s
}
