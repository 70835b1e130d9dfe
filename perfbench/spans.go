package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"liquidarch/internal/tracing"
)

// maxKeptSpans bounds the spans kept for the Chrome export; the
// per-op budget and the per-call timings still cover every op.
const maxKeptSpans = 60_000

// budgetTolerance is how far the self times of one op's spans may sum
// away from the op's wall time. Spans are read from one monotonic
// clock on the op's goroutine and children never overlap, so any
// residual beyond clock rounding means the span tree is malformed.
const budgetTolerance = time.Microsecond

// tracer records the traced run's spans: one trace id per op, a root
// span for the op and one child span around each call the op makes
// into a layer. Child names are "<layer>.<call>". A nil *tracer is
// the untraced run: ops still execute their calls, but nothing is
// timed or kept.
type tracer struct {
	ids atomic.Uint64

	mu      sync.Mutex
	kept    []tracing.Span
	dropped int
	ops     int
	wall    time.Duration
	self    map[string]time.Duration // self time by layer; "harness" is op glue
	calls   map[string][]float64     // call durations in ms by span name
	maxRes  time.Duration
	badOps  int // ops whose self times missed the wall by more than budgetTolerance
}

func newTracer() *tracer {
	return &tracer{self: map[string]time.Duration{}, calls: map[string][]float64{}}
}

// op is one traced operation in flight, owned by one goroutine.
type op struct {
	t        *tracer
	id       uint64
	name     string
	start    time.Time
	children []tracing.Span
}

// begin opens an op whose wall time starts at start (the due time of
// an open-loop request, otherwise now).
func (t *tracer) begin(name string, start time.Time) *op {
	if t == nil {
		return nil
	}
	return &op{t: t, id: t.ids.Add(1), name: name, start: start}
}

// call runs fn as one call into a layer, recording it as a child span
// of the op. It returns fn's wall time (zero when untraced).
func (o *op) call(name string, fn func() error) (time.Duration, error) {
	if o == nil {
		return 0, fn()
	}
	start := time.Now()
	err := fn()
	d := time.Since(start)
	o.children = append(o.children, tracing.Span{
		Name: name, Trace: o.id, ID: uint64(len(o.children) + 2), Parent: 1,
		Start: start, Dur: d, Source: "perfbench",
	})
	return d, err
}

// end closes the op and books its self-time budget: the op's own self
// time (wall minus the union of its children) is the harness share,
// each child's duration is its layer's share, and together they must
// sum to the op's wall time.
func (o *op) end() {
	if o == nil {
		return
	}
	wall := time.Since(o.start)
	end := o.start.Add(wall)
	covered := unionWithin(o.children, o.start, end)
	sum := wall - covered
	for _, c := range o.children {
		sum += c.Dur
	}
	res := sum - wall
	if res < 0 {
		res = -res
	}
	root := tracing.Span{Name: o.name, Trace: o.id, ID: 1, Start: o.start, Dur: wall, Source: "perfbench"}

	t := o.t
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	t.wall += wall
	t.self["harness"] += wall - covered
	for _, c := range o.children {
		t.self[layerOf(c.Name)] += c.Dur
		t.calls[c.Name] = append(t.calls[c.Name], ms(c.Dur))
	}
	if res > t.maxRes {
		t.maxRes = res
	}
	if res > budgetTolerance {
		t.badOps++
	}
	if len(t.kept)+1+len(o.children) <= maxKeptSpans {
		t.kept = append(t.kept, root)
		t.kept = append(t.kept, o.children...)
	} else {
		t.dropped += 1 + len(o.children)
	}
}

func layerOf(span string) string {
	layer, _, _ := strings.Cut(span, ".")
	return layer
}

// unionWithin returns how much of [lo, hi) the spans cover.
func unionWithin(spans []tracing.Span, lo, hi time.Time) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := maxTime(s.Start, lo), minTime(s.Start.Add(s.Dur), hi)
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// durations returns the recorded wall times (ms) of every call named
// name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.calls[name]...)
}

// selfShare returns layer's share of all ops' wall time.
func (t *tracer) selfShare(layer string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wall == 0 {
		return 0
	}
	return float64(t.self[layer]) / float64(t.wall)
}

// writeChrome exports the kept spans as Chrome trace-event JSON to
// path and checks the file with the program's own validator.
func (t *tracer) writeChrome(path string) (spans int, err error) {
	t.mu.Lock()
	byID := map[uint64]*tracing.TraceData{}
	var order []uint64
	for _, s := range t.kept {
		td := byID[s.Trace]
		if td == nil {
			td = &tracing.TraceData{ID: s.Trace}
			byID[s.Trace] = td
			order = append(order, s.Trace)
		}
		td.Spans = append(td.Spans, s)
	}
	t.mu.Unlock()
	traces := make([]tracing.TraceData, 0, len(order))
	for _, id := range order {
		traces = append(traces, *byID[id])
	}
	data, err := tracing.ChromeJSON(traces)
	if err != nil {
		return 0, fmt.Errorf("chrome export: %w", err)
	}
	n, err := tracing.ValidateChrome(data)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	return n, os.WriteFile(path, data, 0o644)
}
