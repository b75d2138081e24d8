package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of an ascending
// slice by nearest rank: the smallest value with at least p% of the
// samples at or below it. An empty slice gives 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value (mean of the two middle values for an
// even count) without disturbing xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quietest returns, index by index, the least of the reps' readings.
// Reps of a simulation do the same work in the same order, so reading i
// of each is the same piece of work timed again, and the least of them
// is that piece as the host's neighbours least disturbed it. Reps that
// disagree on the number of readings are compared over the shortest.
func quietest(reps [][]float64) []float64 {
	if len(reps) == 0 {
		return nil
	}
	n := len(reps[0])
	for _, r := range reps {
		if len(r) < n {
			n = len(r)
		}
	}
	out := append([]float64(nil), reps[0][:n]...)
	for _, r := range reps[1:] {
		for i := range out {
			out[i] = math.Min(out[i], r[i])
		}
	}
	return out
}

// percentileLadder is the set of percentiles the harness ever reports,
// in per mille so that the rule below is exact integer arithmetic.
var percentileLadder = []int{500, 900, 990, 999}

// highestPercentile is the choosing-metrics rule: the highest percentile
// of the ladder that still has at least ten samples beyond it, so a tail
// figure never rests on a handful of requests. With fewer than twenty
// samples even the median has under ten beyond it; the median is
// returned all the same, as the least any timing reports.
func highestPercentile(n int) float64 {
	best := percentileLadder[0]
	for _, pm := range percentileLadder {
		if n*(1000-pm)/1000 >= 10 {
			best = pm
		}
	}
	return float64(best) / 10
}

// spread is one figure taken many times over, once per slice of a phase
// or once per rep: the median, the range, the first and the last decile
// (by nearest rank) and how many there were.
type spread struct {
	Median, Min, Max float64
	Low, High        float64
	N                int
}

func spreadOf(xs []float64) spread {
	if len(xs) == 0 {
		return spread{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return spread{Median: median(s), Min: s[0], Max: s[len(s)-1], Low: percentile(s, 10), High: percentile(s, 90), N: len(s)}
}

// sample is one generated request. Due is when it was scheduled to be
// sent, as an offset from the start of its phase (for a closed loop,
// when it was sent); Lat runs from Due to the last response byte, so an
// open-loop request that waited behind a stall carries the wait; Lag is
// how late the generator itself sent it.
type sample struct {
	Due, Lat, Lag time.Duration
	OK            bool
}

// phaseStats summarizes one load phase.
type phaseStats struct {
	N, Failed int
	// RPS, P50 and P90 are taken per slice of the phase, in 1/s and ms.
	// What a workload reports is the quiet end of each: the last decile of
	// the slices' rates, the first decile of their latencies. A shared
	// host's neighbours only ever slow the program down, by a fifth or more
	// and in bursts from milliseconds to minutes long; the mean or the
	// median of a run moves with how many of its slices they hit, while
	// the slices they left alone read the same from run to run (measured
	// with a fixed loop on this host: quartile distance over 16 s windows
	// 9-11 % of the median for means and medians, 3-5 % for the first
	// decile of 40 ms samples).
	RPS, P50, P90 spread
	// Whole-phase figures (ms), the tails each 0 unless ten samples lie
	// beyond it.
	WholeP50, WholeP90 float64
	P99, P999          float64
	LagP50, LagP99     float64 // ms
	Achieved           float64 // completed requests ÷ phase length
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const (
	// sliceLen is how finely a phase is cut, and minPerSlice the fewest
	// samples a slice may hold: with a hundred its 90th percentile still
	// has ten samples beyond it, so a thinly loaded phase gets longer
	// slices.
	sliceLen    = 250 * time.Millisecond
	minPerSlice = 100
)

// slicesFor is how many equal slices a phase of n requests is cut into.
func slicesFor(n int, phase time.Duration) int {
	slices := int(phase / sliceLen)
	if most := n / minPerSlice; slices > most {
		slices = most
	}
	if slices < 1 {
		slices = 1
	}
	return slices
}

// summarize splits the phase's samples by due time into equal slices and
// reports each slice's rate and percentiles. Failed requests count toward
// N and Failed and toward no latency or rate.
func summarize(samples []sample, phase time.Duration, slices int) phaseStats {
	st := phaseStats{N: len(samples)}
	byslice := make([][]float64, slices)
	var all, lag []float64
	for _, s := range samples {
		if !s.OK {
			st.Failed++
			continue
		}
		k := int(int64(s.Due) * int64(slices) / int64(phase))
		if k < 0 {
			k = 0
		}
		if k >= slices {
			k = slices - 1
		}
		byslice[k] = append(byslice[k], ms(s.Lat))
		all = append(all, ms(s.Lat))
		lag = append(lag, ms(s.Lag))
	}
	var rps, p50, p90 []float64
	for _, ls := range byslice {
		rps = append(rps, float64(len(ls))/(phase.Seconds()/float64(slices)))
		if len(ls) == 0 {
			continue
		}
		sort.Float64s(ls)
		p50 = append(p50, percentile(ls, 50))
		p90 = append(p90, percentile(ls, 90))
	}
	st.RPS, st.P50, st.P90 = spreadOf(rps), spreadOf(p50), spreadOf(p90)
	sort.Float64s(all)
	sort.Float64s(lag)
	st.WholeP50, st.WholeP90 = percentile(all, 50), percentile(all, 90)
	if top := highestPercentile(len(all)); top >= 99 {
		st.P99 = percentile(all, 99)
		if top >= 99.9 {
			st.P999 = percentile(all, 99.9)
		}
	}
	st.LagP50, st.LagP99 = percentile(lag, 50), percentile(lag, 99)
	st.Achieved = float64(len(all)) / phase.Seconds()
	return st
}
