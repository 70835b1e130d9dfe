package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[len(s)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, tc := range []struct {
		q      float64
		want   float64
		beyond int
	}{
		{0.5, 50, 50},
		{0.9, 90, 10},
		{0.99, 99, 1},
		{0.01, 1, 99},
	} {
		got, beyond := percentile(s, tc.q)
		if got != tc.want || beyond != tc.beyond {
			t.Errorf("q=%v: got %v with %d beyond, want %v with %d", tc.q, got, beyond, tc.want, tc.beyond)
		}
	}
	if s[0] != 100 {
		t.Fatal("percentile reordered its input")
	}
	if v, n := percentile(nil, 0.9); v != 0 || n != 0 {
		t.Errorf("empty: got %v, %d", v, n)
	}
}

// A reported tail needs at least ten samples beyond it: p90 needs 100
// samples, p99 needs 1000.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{99, 0.9, false},
		{100, 0.9, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{0, 0.5, false},
	} {
		if got := tailOK(tc.n, tc.q); got != tc.want {
			t.Errorf("tailOK(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

func TestWindowsShareOpsByOverlap(t *testing.T) {
	t0 := time.Unix(1000, 0)
	w := newWindows(t0, 4*time.Second, 4)
	// One op spanning the second half of window 0 and the first half
	// of window 1, with 1000 instructions.
	w.add(t0.Add(500*time.Millisecond), t0.Add(1500*time.Millisecond), 1, 1000)
	// Two ops entirely in window 2; one after the measurement.
	w.add(t0.Add(2100*time.Millisecond), t0.Add(2200*time.Millisecond), 2, 0)
	w.add(t0.Add(5*time.Second), t0.Add(6*time.Second), 1, 0)
	want := []float64{0.5, 0.5, 2, 0}
	for i := range want {
		if math.Abs(w.ops[i]-want[i]) > 1e-9 {
			t.Errorf("window %d: %v ops, want %v", i, w.ops[i], want[i])
		}
	}
	if w.insts[0] != 500 || w.insts[1] != 500 {
		t.Errorf("instructions %v, want 500 in windows 0 and 1", w.insts)
	}
	ops, _ := w.rates()
	if ops != 0.5 {
		t.Errorf("median rate %v, want 0.5", ops)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	edges := []float64{1, 2, 4, math.Inf(1)}
	counts := []float64{0, 10, 10, 0}
	if v, n := histQuantile(edges, counts, 0.5); v != 2 || n != 20 {
		t.Errorf("p50 = %v (n=%d), want 2", v, n)
	}
	if v, _ := histQuantile(edges, counts, 0.75); v != 3 {
		t.Errorf("p75 = %v, want 3", v)
	}
}

func TestBudgetSelfTimesSumToWall(t *testing.T) {
	tr := newTracer()
	o := tr.begin("op", time.Now())
	for _, name := range []string{"client.load", "client.start", "core.run"} {
		if _, err := o.call(name, func() error { time.Sleep(time.Millisecond); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	o.end()
	if tr.badOps != 0 || tr.maxRes > budgetTolerance {
		t.Fatalf("residual %v over %d bad ops", tr.maxRes, tr.badOps)
	}
	sum := tr.selfShare("harness") + tr.selfShare("client") + tr.selfShare("core")
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("self shares sum to %v, want 1", sum)
	}
	if got := len(tr.durations("client.load")); got != 1 {
		t.Errorf("%d client.load durations, want 1", got)
	}
}

// The probe reports a positive speed, and reference time scales CPU
// time by the host's speed relative to the reference host's.
func TestProbeAndReferenceTime(t *testing.T) {
	if s := probe(); !(s > 0) || math.IsInf(s, 0) {
		t.Fatalf("probe speed %v", s)
	}
	if got := refDuration(time.Second, probeRefSpeed/2); got != 500*time.Millisecond {
		t.Fatalf("refDuration at half the reference speed: %v, want 500ms", got)
	}
	if got := refDuration(time.Second, probeRefSpeed); got != time.Second {
		t.Fatalf("refDuration at the reference speed: %v, want 1s", got)
	}
}
