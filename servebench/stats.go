package main

import (
	"math"
	"sort"
	"time"
)

// windows is how many equal slices the timed phase is cut into. Every
// end-to-end latency and throughput figure is the median over the windows
// of that window's own figure, so a stall of the shared host that lasts a
// second or two moves one window, not the reported value.
const windows = 10

// windowMedian is the median over the windows of span of each window's
// p-th percentile latency. A sample sent after span counts in the last
// window.
func windowMedian(samples []sample, span time.Duration, p float64) float64 {
	buckets := make([][]float64, windows)
	for _, s := range samples {
		i := min(int(s.at*windows/span), windows-1)
		buckets[i] = append(buckets[i], s.ms)
	}
	var per []float64
	for _, b := range buckets {
		if len(b) > 0 {
			per = append(per, percentile(b, p))
		}
	}
	return median(per)
}

// throughput is the median over the windows of span of each window's
// completion rate: the sessions that completed in it after its first one,
// over the time from its first completion to its last. Sessions that ended
// after span, in the drain that lets started dialogues finish, are left
// out.
func throughput(sessions []sessionResult, span time.Duration) float64 {
	type window struct {
		n           int
		first, last time.Duration
	}
	ws := make([]window, windows)
	for _, s := range sessions {
		if !s.ok || s.closed >= span {
			continue
		}
		w := &ws[int(s.closed*windows/span)]
		if w.n == 0 || s.closed < w.first {
			w.first = s.closed
		}
		w.last = max(w.last, s.closed)
		w.n++
	}
	var per []float64
	for _, w := range ws {
		if w.n > 1 && w.last > w.first {
			per = append(per, float64(w.n-1)/(w.last-w.first).Seconds())
		}
	}
	return median(per)
}

// percentile returns the nearest-rank p-th percentile (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(float64(len(s))*p/100)) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median returns the middle value, or the mean of the two middle values
// (0 for no values).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
