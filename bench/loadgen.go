package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock is the generator's view of time, as offsets from the start of a
// phase; tests substitute a fake so a stall can be scripted.
type clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

// wallClock paces with nanosleep(2). Go's timers go through netpoll,
// which rounds a sub-millisecond sleep up to a millisecond — half a
// millisecond of generator lateness on a 0.3 ms service time. Nanosleep
// holds an OS thread for the wait, which is fine for a worker or two.
type wallClock struct{ start time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.start) }

func (c wallClock) SleepUntil(t time.Duration) {
	for {
		d := t - c.Now()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		// EINTR just means look at the clock again.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// doFunc performs request i of the schedule on the given worker's
// connection and reports whether it succeeded.
type doFunc func(worker, i int) bool

// closedLoop runs `conns` connections for `phase`, or until `stop` is
// set if it is given: each sends its next request when the previous one
// completes, so a slow server receives less load. Requests are numbered
// from `first` in the order they were claimed.
func closedLoop(clk clock, conns int, phase time.Duration, stop *atomic.Bool, first int, do doFunc) []sample {
	next := atomic.Int64{}
	next.Store(int64(first))
	per := make([][]sample, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				sent := clk.Now()
				if sent >= phase || (stop != nil && stop.Load()) {
					return
				}
				ok := do(w, int(next.Add(1)-1))
				per[w] = append(per[w], sample{Due: sent, Lat: clk.Now() - sent, OK: ok})
			}
		}(w)
	}
	wg.Wait()
	return flatten(per)
}

// openLoop sends rate×phase requests served by `workers` connections.
// Arrival i is due at a seeded point inside the i-th interval of the
// phase: the rate is exact over any stretch, and no arrival keeps step
// with the request mix's pattern or the kernel's timer tick. A worker
// claims the next arrival, sleeps until it is due and sends it; when
// every worker is still busy the arrival waits, and because latency
// runs from the due time that wait is charged to the request (no
// coordinated omission). Once the backlog is a whole phase long the rest
// of the schedule is abandoned and counted as failed, so an overloaded
// server ends the run instead of stretching it.
func openLoop(clk clock, workers int, rate float64, phase time.Duration, seed int64, first int, do doFunc) []sample {
	n := int(rate * phase.Seconds())
	interval := float64(time.Second) / rate
	rng := rand.New(rand.NewSource(seed))
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration((float64(i) + rng.Float64()) * interval)
	}
	var next atomic.Int64
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := dues[i]
				clk.SleepUntil(due)
				sent := clk.Now()
				if sent > due+phase {
					per[w] = append(per[w], sample{Due: due, Lag: sent - due, Lat: sent - due})
					continue
				}
				ok := do(w, first+i)
				per[w] = append(per[w], sample{Due: due, Lag: sent - due, Lat: clk.Now() - due, OK: ok})
			}
		}(w)
	}
	wg.Wait()
	return flatten(per)
}

// sliceUse reads a running total (the servers' CPU seconds) at the
// boundaries of `slices` equal slices of a phase on clk, and returns a
// function that waits for the last boundary and gives what each slice
// used.
func sliceUse(clk clock, phase time.Duration, slices int, read func() float64) func() []float64 {
	at := make([]float64, slices+1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := range at {
			clk.SleepUntil(phase * time.Duration(k) / time.Duration(slices))
			at[k] = read()
		}
	}()
	return func() []float64 {
		<-done
		use := make([]float64, slices)
		for k := range use {
			use[k] = at[k+1] - at[k]
		}
		return use
	}
}

func flatten(per [][]sample) []sample {
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}
