package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"enviromic/internal/telemetry"
)

// env is where this invocation lives on disk: the benchmark's own
// directory, its out/ directory for reports and logs, a scratch
// directory under out/ that is removed on exit, and .bench_build/ at the
// root of the checkout for the program's binary. Everything the harness
// writes stays inside the checkout.
type env struct {
	benchDir, outDir, tmpDir string
	serverBin                string

	mu    sync.Mutex
	procs []*server
}

const benchModule = "module enviromic/bench"

// newEnv finds the benchmark directory (the working directory under
// `go run -C bench .` and `go test`, or ./bench from the repository
// root) and creates out/ and the scratch directory.
func newEnv() (*env, error) {
	dir := ""
	for _, cand := range []string{".", "bench"} {
		if mod, err := os.ReadFile(filepath.Join(cand, "go.mod")); err == nil && bytes.HasPrefix(mod, []byte(benchModule)) {
			dir = cand
			break
		}
	}
	if dir == "" {
		return nil, errors.New("run from the repository root or from bench/: no go.mod of module enviromic/bench found")
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	e := &env{benchDir: abs, outDir: filepath.Join(abs, "out"),
		serverBin: filepath.Join(filepath.Dir(abs), ".bench_build", "bin", "enviromic-archive")}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	if e.tmpDir, err = os.MkdirTemp(e.outDir, "tmp-"); err != nil {
		return nil, err
	}
	return e, nil
}

// profilePath is where the traced run keeps a CPU profile.
func (e *env) profilePath(workload, process string) string {
	return filepath.Join(e.outDir, "profile-"+workload+"-"+process+".pb.gz")
}

// cleanupOnSignal kills the children and removes the scratch directory
// when the harness is interrupted, then exits non-zero.
func (e *env) cleanupOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		e.close()
		os.Exit(130)
	}()
}

// close stops every child still running and removes the scratch
// directory. It is safe to call more than once.
func (e *env) close() {
	e.mu.Lock()
	procs := e.procs
	e.procs = nil
	e.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	os.RemoveAll(e.tmpDir)
}

// buildServer compiles the program under test, cmd/enviromic-archive,
// from the module this one replaces `enviromic` with — the checkout the
// harness itself was built from. The binary lives at a fixed path so
// that the toolchain relinks it only when a source file changed.
func (e *env) buildServer() error {
	cmd := exec.Command("go", "build", "-o", e.serverBin, "enviromic/cmd/enviromic-archive")
	cmd.Dir = e.benchDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build enviromic/cmd/enviromic-archive: %v\n%s", err, out)
	}
	return nil
}

// cpuSet is a CPU affinity mask as sched_setaffinity(2) takes it.
type cpuSet [16]uint64

func (m *cpuSet) add(cpu int) { m[cpu/64] |= 1 << (cpu % 64) }

// last returns the highest-numbered CPU in the set, or -1.
func (m *cpuSet) last() int {
	for cpu := 64*len(m) - 1; cpu >= 0; cpu-- {
		if m[cpu/64]&(1<<(cpu%64)) != 0 {
			return cpu
		}
	}
	return -1
}

// oneCore confines this process, and with it every server it starts
// from now on, to a single core: the last one it may run on. A service
// workload is a generator and one to three servers passing requests back
// and forth. Spread over the cores of a shared virtual machine, every
// hand-over is an inter-processor interrupt and, when the other core has
// gone idle, a wake-up by the host, and what those cost depends on the
// host's other tenants. Measured on two cores with archive-read's fixed
// open-loop load: left to the scheduler, 3.9 s of server CPU with a
// quartile distance of 12 % of the median across ten runs; generator on
// one core and server on the other, 2.8 s and 8 %; both on one core,
// 2.4 s and 4 %. One core prices the program's own work and leaves the
// host's scheduler out of it. (What it cannot show is how the servers
// scale over cores.) Each process sizes its GOMAXPROCS to the one core.
func oneCore() error {
	var all, one cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(all), uintptr(unsafe.Pointer(&all))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	one.add(all.last())
	runtime.GOMAXPROCS(1)
	// The mask is per thread, and a thread the runtime starts later
	// inherits its starter's; the second pass catches one started during
	// the first.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one)))
			if errno != 0 && errno != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity: %w", errno)
			}
		}
	}
	return nil
}

// freePorts reserves n loopback ports by binding and releasing them.
// Stations must be told each other's addresses before any of them
// starts, so letting each pick its own (:0) will not do.
func freePorts(n int) ([]int, error) {
	var ports []int
	var held []net.Listener
	defer func() {
		for _, ln := range held {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		held = append(held, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// server is one enviromic-archive child.
type server struct {
	name, dir, url string
	cmd            *exec.Cmd
	log            *os.File
	done           chan struct{} // closed when Wait returns
}

// startServer launches enviromic-archive on the port with a fresh
// archive directory and returns once /stats answers. Stderr and stdout
// go to out/<workload>-<name>.log.
func (e *env) startServer(workload, name string, port int, extra ...string) (*server, error) {
	dir, err := os.MkdirTemp(e.tmpDir, name+"-")
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(e.outDir, workload+"-"+name+".log"))
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	s := &server{name: name, dir: dir, url: "http://" + addr, log: logf, done: make(chan struct{})}
	s.cmd = exec.Command(e.serverBin, append([]string{"-dir", dir, "-http", addr}, extra...)...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// If the harness dies without cleaning up, the kernel kills the child.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		s.cmd.Wait()
		close(s.done)
	}()
	e.mu.Lock()
	e.procs = append(e.procs, s)
	e.mu.Unlock()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return nil, fmt.Errorf("%s exited during start-up; see %s", name, logf.Name())
		default:
		}
		if resp, err := http.Get(s.url + "/stats"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.kill()
	return nil, fmt.Errorf("%s never answered /stats; see %s", name, logf.Name())
}

// kill sends SIGKILL (the server has no shutdown path; a crash is also
// what archive-mixed wants to test) and waits for the process to end.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
	s.log.Close()
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// procCPU returns the CPU seconds a process has consumed so far: the
// on-CPU nanoseconds of its threads from /proc/<pid>/task/*/schedstat
// (a thread that has exited takes its share with it, but a Go server
// keeps its threads), or, where the kernel keeps no such count, user+
// system time from /proc/<pid>/stat, which ticks in hundredths.
func procCPU(pid int) float64 {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var ns float64
	for _, t := range tasks {
		raw, err := os.ReadFile(t)
		if err != nil {
			continue // the thread ended between the listing and the read
		}
		if f := strings.Fields(string(raw)); len(f) > 0 {
			v, _ := strconv.ParseFloat(f[0], 64)
			ns += v
		}
	}
	if ns > 0 {
		return ns / 1e9
	}
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name may contain spaces; fields resume after ')'.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) / 100 // USER_HZ is 100 on every Linux ABI Go supports
}

// procPeakRSS returns the process's peak resident set (VmHWM) in MB.
func procPeakRSS(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS starts this process's peak resident set (VmHWM) again
// from its current size, so that each rep has its own peak. Where the
// kernel does not offer that, the peak stays the whole process's.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// selfCPU returns this process's CPU seconds from its CPU-time clock,
// which counts nanoseconds where getrusage counts scheduler ticks.
func selfCPU() float64 {
	const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// hostInfo describes the machine and the code, recorded with every run.
type hostInfo struct {
	Cores          int
	GoVersion      string
	Kernel, Commit string
	Load1          float64
}

func readHostInfo(benchDir string) hostInfo {
	h := hostInfo{Cores: runtime.NumCPU(), GoVersion: runtime.Version(), Kernel: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			h.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = benchDir
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

func (h hostInfo) String() string {
	return fmt.Sprintf("cores=%d go=%s kernel=%s commit=%s load1=%.2f", h.Cores, h.GoVersion, h.Kernel, h.Commit, h.Load1)
}

// scrape is a parsed Prometheus exposition, from a server's /metrics or
// from an in-process registry.
type scrape []telemetry.Sample

func scrapeURL(client *http.Client, url string) (scrape, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("%s/metrics: HTTP %d", url, resp.StatusCode)
	}
	return telemetry.ParseText(resp.Body)
}

func scrapeRegistry(reg *telemetry.Registry) scrape {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil
	}
	s, _ := telemetry.ParseText(&buf)
	return s
}

func seriesKey(s telemetry.Sample) string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	for _, k := range keys {
		b.WriteString("|" + k + "=" + s.Labels[k])
	}
	return b.String()
}

// since returns this scrape minus an earlier one, series by series, so
// counters and histogram buckets cover only the interval between them.
// (Gauges are read from the later scrape directly, not from the result.)
func (s scrape) since(before scrape) scrape {
	prev := make(map[string]float64, len(before))
	for _, b := range before {
		prev[seriesKey(b)] = b.Value
	}
	out := make(scrape, len(s))
	for i, a := range s {
		a.Value -= prev[seriesKey(a)]
		out[i] = a
	}
	return out
}

// sum adds every series of the family whose labels include `match`.
// The second result is false when no such series exists, which the
// report shows as "absent" rather than as zero work.
func (s scrape) sum(name string, match ...string) (float64, bool) {
	var total float64
	found := false
	for _, smp := range s {
		if smp.Name == name && labelsMatch(smp, match) {
			total += smp.Value
			found = true
		}
	}
	return total, found
}

// quantile estimates quantile q of a histogram family from its _bucket
// series.
func (s scrape) quantile(q float64, name string, match ...string) (float64, bool) {
	var buckets []telemetry.Sample
	for _, smp := range s {
		if smp.Name == name+"_bucket" && labelsMatch(smp, match) {
			buckets = append(buckets, smp)
		}
	}
	return telemetry.HistogramQuantile(q, buckets)
}

// labelsMatch reports whether the sample carries every key, value pair
// of match.
func labelsMatch(s telemetry.Sample, match []string) bool {
	for i := 0; i+1 < len(match); i += 2 {
		if s.Labels[match[i]] != match[i+1] {
			return false
		}
	}
	return true
}
