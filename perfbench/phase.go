package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// windowCount is how many windows a measured phase is cut into for
// the median throughput.
const windowCount = 30

// maxFailureNotes bounds the failure descriptions a phase keeps.
const maxFailureNotes = 20

// phase is one timed stretch of a run: warm-up, the untraced
// measurement or the traced measurement. Each phase restarts the
// workload's seeded sequences, so the ops a phase runs depend only on
// the seed and the phase number.
type phase struct {
	seed  int64
	index int64
	start time.Time
	until time.Time
	tr    *tracer
	win   *windows

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	lat       []float64 // the workload's primary latency samples, ms

	// passOps and passMips are the op and simulated-MIPS rates of each
	// pass of a workload timed in reference time (clock.go), and
	// passRaw the op rate on the plain process CPU clock. probes are
	// the host speeds probed during the phase.
	passOps, passMips, passRaw, probes []float64
}

func newPhase(seed, index int64, d time.Duration, tr *tracer) *phase {
	now := time.Now()
	return &phase{seed: seed, index: index, start: now, until: now.Add(d), tr: tr,
		win: newWindows(now, d, windowCount)}
}

// rng returns a source for stream of this phase: the same seed, phase
// and stream always give the same sequence.
func (p *phase) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(p.seed*1_000_003 + p.index*10_007 + stream))
}

func (p *phase) done() bool { return !time.Now().Before(p.until) }

// check books one attempted op; a non-nil err marks it failed.
func (p *phase) check(err error) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err == nil {
		return true
	}
	p.failed++
	if len(p.failures) < maxFailureNotes {
		p.failures = append(p.failures, err.Error())
	}
	return false
}

// latency books one primary-latency sample.
func (p *phase) latency(d time.Duration) {
	p.mu.Lock()
	p.lat = append(p.lat, ms(d))
	p.mu.Unlock()
}

// probed books one host-speed probe taken during the phase.
func (p *phase) probed(speed float64) {
	p.mu.Lock()
	p.probes = append(p.probes, speed)
	p.mu.Unlock()
}

// pass books one pass of ops with insts simulated instructions that
// used cpu of process CPU time while the host ran the probe at speed.
func (p *phase) pass(ops, insts float64, cpu time.Duration, speed float64) {
	secs := cpu.Seconds()
	ref := refDuration(cpu, speed).Seconds()
	p.mu.Lock()
	p.passOps = append(p.passOps, ops/ref)
	p.passMips = append(p.passMips, insts/ref/1e6)
	p.passRaw = append(p.passRaw, ops/secs)
	p.probes = append(p.probes, speed)
	p.mu.Unlock()
}

// summary is a phase's end-to-end figures.
type summary struct {
	ops, mips float64   // median op rate (1/s) and simulated MIPS
	n         int       // samples behind the medians
	lat       []float64 // primary latency samples, ms
}

func mismatch(what string, got, want any) error {
	return fmt.Errorf("%s: got %v, want %v", what, got, want)
}
