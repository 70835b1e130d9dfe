package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule: the smallest sample with at least q·n samples at
// or below it. It returns the value and how many samples lie strictly
// above the reported rank, so a caller can refuse a tail that fewer
// than ten samples support.
func percentile(samples []float64, q float64) (value float64, beyond int) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n - rank
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailOK reports whether n samples support the q-quantile with at
// least minTail samples beyond it.
func tailOK(n int, q float64) bool {
	return n > 0 && n-int(math.Ceil(q*float64(n))) >= minTail
}

func median(samples []float64) float64 {
	v, _ := percentile(samples, 0.5)
	return v
}

func mean(samples []float64) float64 {
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// windows books completed work into fixed-length windows of the
// measurement, so throughput is reported as the median window rather
// than one long average that a single stall on a shared host can skew.
// An op that spans several windows is shared between them in
// proportion to its overlap, so slow ops do not quantize the rate.
type windows struct {
	mu     sync.Mutex
	start  time.Time
	length time.Duration
	ops    []float64
	insts  []float64
}

func newWindows(start time.Time, total time.Duration, n int) *windows {
	return &windows{start: start, length: total / time.Duration(n),
		ops: make([]float64, n), insts: make([]float64, n)}
}

// add books ops completed over [from, to) with insts simulated
// instructions; the part outside the measurement is dropped.
func (w *windows) add(from, to time.Time, ops, insts float64) {
	span := to.Sub(from)
	if span <= 0 {
		span = 1
		to = from.Add(1)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.ops {
		lo := w.start.Add(time.Duration(i) * w.length)
		hi := lo.Add(w.length)
		a, b := maxTime(from, lo), minTime(to, hi)
		if !b.After(a) {
			continue
		}
		share := float64(b.Sub(a)) / float64(span)
		w.ops[i] += share * ops
		w.insts[i] += share * insts
	}
}

// rates returns the median per-second op and simulated-MIPS rates
// across windows.
func (w *windows) rates() (opsPerS, mips float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	secs := w.length.Seconds()
	ops := make([]float64, len(w.ops))
	mi := make([]float64, len(w.insts))
	for i := range w.ops {
		ops[i] = w.ops[i] / secs
		mi[i] = w.insts[i] / secs / 1e6
	}
	return median(ops), median(mi)
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
