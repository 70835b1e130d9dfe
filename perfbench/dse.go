package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"liquidarch/internal/cache"
	"liquidarch/internal/core"
	"liquidarch/internal/cpu"
	"liquidarch/internal/leon"
	"liquidarch/internal/metrics"
)

// Kernel sizes for the sweep: each run is a few ms of host time, so a
// design-point visit is dominated by stepping, yet a full swap is
// still a visible share of it.
const (
	dseFig7Iters  = 10_000
	dseDotPasses  = 10
	dseICachePass = 40
)

// point is one configuration of the design space.
type point struct {
	name  string
	cfg   leon.Config
	assoc bool // associative instruction cache
}

// dsePoints is the swept space: D-cache 1-16 KB (Fig. 8) × three
// I-caches on both sides of the direct-mapped/associative split, plus
// points that differ outside the caches and so force a full swap.
// The base has the MAC unit on so the __mac kernel runs everywhere
// but on the point that removes it.
func dsePoints(base leon.Config) []point {
	base.CPU.MAC = true
	icaches := []struct {
		name string
		c    cache.Config
	}{
		{"i1k-dm", cache.Config{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 1}},
		{"i1k-2way", cache.Config{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 2}},
		{"i4k-4way", cache.Config{SizeBytes: 4 << 10, LineBytes: 32, Assoc: 4}},
	}
	var pts []point
	for _, kb := range []int{1, 2, 4, 8, 16} {
		for _, ic := range icaches {
			cfg := base
			cfg.ICache = ic.c
			cfg.DCache = cache.Config{SizeBytes: kb << 10, LineBytes: 32, Assoc: 1}
			pts = append(pts, point{fmt.Sprintf("d%dk-%s", kb, ic.name), cfg, ic.c.Assoc > 1})
		}
	}
	full := func(name string, mod func(*leon.Config)) {
		cfg := base
		mod(&cfg)
		pts = append(pts, point{name, cfg, cfg.ICache.Assoc > 1})
	}
	full("writeback-i1k-dm", func(c *leon.Config) { c.DCache.Write = cache.WriteBack })
	full("depth7-i1k-2way", func(c *leon.Config) {
		c.CPU.PipelineDepth = 7
		c.CPU.Timing = cpu.TimingForDepth(7)
		c.ICache = icaches[1].c
	})
	full("no-mac-i4k-4way", func(c *leon.Config) { c.CPU.MAC = false; c.ICache = icaches[2].c })
	full("burst8-i1k-dm", func(c *leon.Config) { c.BurstWords = 8 })
	return pts
}

// dse is the dse-sweep workload: one in-process core.System, serial,
// visiting every point in a seeded order per pass and running every
// program at each point, in the shape of the Fig. 1 / AutoTune loop.
type dse struct {
	sys    *core.System
	pts    []point
	progs  []program
	cycles map[[2]int]uint64 // (point, program) → simulated cycles
	known  map[[2]int]uint64 // cycles recorded by an earlier run of the same binary and seed
	first  map[int]uint32    // program → exit value under the first configuration that ran it
	record string            // where this run's cycles are recorded
	st     *dseStats
	closed bool
}

type dseStats struct {
	before, after metrics.Snapshot
	runNs         [2]time.Duration // host time in System.Run, by [assoc]
	runInsts      [2]uint64
	runMs         []float64
	visitMs       []float64 // per visit, in reference time
	partialMs     []float64
	fullMs        []float64
	canon         map[[2]int]simStats // first run of each (point, program) in the phase
}

// simStats are simulated counts: instructions and cache read hits and
// misses.
type simStats struct {
	insts, iHits, iMiss, dHits, dMiss uint64
}

// simDelta is one run's simulated counts: its instructions and the
// growth of the node registry's cache gauges across it.
func simDelta(insts uint64, before, after metrics.Snapshot) simStats {
	d := func(name string) uint64 { return uint64(gaugeDelta(before, after, name)) }
	return simStats{insts, d("liquid_icache_hits"), d("liquid_icache_misses"), d("liquid_dcache_hits"), d("liquid_dcache_misses")}
}

func (s *simStats) add(o simStats) {
	s.insts += o.insts
	s.iHits += o.iHits
	s.iMiss += o.iMiss
	s.dHits += o.dHits
	s.dMiss += o.dMiss
}

// metrics reports the counts over n runs.
func (s simStats) metrics(n int) []metric {
	return []metric{
		{"cpu.instructions", float64(s.insts), "count", n},
		{"cache.icache_miss_ratio", ratio(float64(s.iMiss), float64(s.iHits+s.iMiss)), "ratio", n},
		{"cache.dcache_miss_ratio", ratio(float64(s.dMiss), float64(s.dHits+s.dMiss)), "ratio", n},
	}
}

func buildDSE(seed int64, outdir string) (workload, *toolchain, error) {
	base, err := serverConfig()
	if err != nil {
		return nil, nil, err
	}
	pts := dsePoints(base)
	cfgs := make([]leon.Config, len(pts))
	for i, p := range pts {
		cfgs[i] = p.cfg
	}
	mgr := newManager()
	if err := mgr.Pregenerate(cfgs); err != nil {
		return nil, nil, fmt.Errorf("pregenerate: %w", err)
	}
	sys, err := core.New(pts[0].cfg, core.Options{Manager: mgr})
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	progs := []program{
		fig7Program(rng, dseFig7Iters),
		dotProgram(rng, dseDotPasses, false),
		dotProgram(rng, dseDotPasses, true),
		icacheProgram(rng, dseICachePass),
	}
	tc := &toolchain{}
	for i := range progs {
		if err := tc.build(&progs[i], stackTopFor(pts[0].cfg)); err != nil {
			sys.Close()
			return nil, nil, err
		}
	}
	w := &dse{sys: sys, pts: pts, progs: progs, cycles: map[[2]int]uint64{}, first: map[int]uint32{}}
	w.record, w.known, err = loadCycleRecord(outdir, "dse-sweep", seed)
	if err != nil {
		sys.Close()
		return nil, nil, err
	}
	return w, tc, nil
}

func (w *dse) measure(p *phase) error {
	w.st = &dseStats{canon: map[[2]int]simStats{}}
	if p.tr != nil {
		w.st.before = w.sys.Metrics().Snapshot()
	}
	rng := p.rng(0)
	before := probe()
	for !p.done() {
		// One pass visits every point once, so every complete pass
		// does the same work: its rate is one throughput sample and
		// its time one latency sample. A probe on each side of the
		// pass gives the host speed it ran at.
		var results, insts uint64
		var visits []time.Duration
		complete := true
		cpu0 := processCPU()
		for _, pi := range rng.Perm(len(w.pts)) {
			if p.done() {
				complete = false
				break
			}
			r, n, d, err := w.visit(p, pi)
			if err != nil {
				return err
			}
			results += r
			insts += n
			visits = append(visits, d)
		}
		cpu := processCPU() - cpu0
		// A phase too short for one complete pass books its partial
		// pass, so it still reports a rate.
		if !complete && (len(p.passOps) > 0 || results == 0) {
			break
		}
		after := probe()
		speed := (before + after) / 2
		p.pass(float64(results), float64(insts), cpu, speed)
		p.latency(refDuration(cpu, speed))
		for _, d := range visits {
			w.st.visitMs = append(w.st.visitMs, ms(refDuration(d, speed)))
		}
		before = after
	}
	if p.tr != nil {
		w.st.after = w.sys.Metrics().Snapshot()
	}
	return w.saveCycleRecord()
}

// visit reconfigures to point pi and runs every program it supports,
// returning how many results it produced, the instructions it
// simulated and the process CPU time it took. An error return is a
// harness failure; output mismatches are booked on the phase.
func (w *dse) visit(p *phase, pi int) (results, insts uint64, cpu time.Duration, err error) {
	pt := w.pts[pi]
	start, cpu0 := time.Now(), processCPU()
	o := p.tr.begin("visit:"+pt.name, start)
	d, err := o.call("core.reconfigure", func() error {
		_, err := w.sys.Reconfigure(pt.cfg)
		return err
	})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("reconfigure to %s: %w", pt.name, err)
	}
	if p.tr != nil {
		if w.sys.LastReconfigureWasPartial() {
			w.st.partialMs = append(w.st.partialMs, ms(d))
		} else {
			w.st.fullMs = append(w.st.fullMs, ms(d))
		}
	}
	for gi := range w.progs {
		prog := &w.progs[gi]
		if prog.needsMAC && !pt.cfg.CPU.MAC {
			continue
		}
		key := [2]int{pi, gi}
		_, first := w.st.canon[key]
		first = !first && p.tr != nil
		var before metrics.Snapshot
		if first {
			before = w.sys.Metrics().Snapshot()
		}
		var res leon.RunResult
		d, err := o.call("core.run", func() error {
			var err error
			res, err = w.sys.Run(prog.img, 0)
			return err
		})
		if err != nil {
			return 0, 0, 0, fmt.Errorf("run %s at %s: %w", prog.name, pt.name, err)
		}
		insts += res.Instructions
		results++
		var got uint32
		if !res.Faulted {
			got, err = w.sys.ExitValue(prog.img)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("exit value of %s at %s: %w", prog.name, pt.name, err)
			}
		}
		p.check(w.checkRun(pt, prog, key, res, got))
		if p.tr != nil {
			a := 0
			if pt.assoc {
				a = 1
			}
			w.st.runNs[a] += d
			w.st.runInsts[a] += res.Instructions
			w.st.runMs = append(w.st.runMs, ms(d))
		}
		if first {
			w.st.canon[key] = simDelta(res.Instructions, before, w.sys.Metrics().Snapshot())
		}
	}
	o.end()
	return results, insts, processCPU() - cpu0, nil
}

// checkRun applies the sweep's output checks: the same result under
// every configuration, equal to the exit value Go computed, and
// simulated cycles that repeat exactly for a (point, program) pair
// across passes and across runs of the same binary and seed.
func (w *dse) checkRun(pt point, prog *program, key [2]int, res leon.RunResult, got uint32) error {
	if res.Faulted {
		return fmt.Errorf("%s at %s: trap %#x at pc %#x", prog.name, pt.name, res.TT, res.FaultPC)
	}
	if v, ok := w.first[key[1]]; ok && v != got {
		return mismatch(prog.name+" at "+pt.name+": result differs across configurations", got, v)
	}
	w.first[key[1]] = got
	if got != prog.want {
		return mismatch(prog.name+" at "+pt.name+": exit value", got, prog.want)
	}
	if c, ok := w.cycles[key]; ok && c != res.Cycles {
		return mismatch(prog.name+" at "+pt.name+": cycles across passes", res.Cycles, c)
	}
	w.cycles[key] = res.Cycles
	if c, ok := w.known[key]; ok && c != res.Cycles {
		return mismatch(prog.name+" at "+pt.name+": cycles across runs", res.Cycles, c)
	}
	return nil
}

// summary is the medians over the phase's passes, in reference time.
func (w *dse) summary(p *phase) summary {
	p.mu.Lock()
	defer p.mu.Unlock()
	return summary{median(p.passOps), median(p.passMips), len(p.passOps), p.lat}
}

func (w *dse) named(p *phase) []metric {
	s := w.summary(p)
	n := s.n
	return []metric{
		{"sweep_points_per_s", s.ops, "1/s", n},
		{"sim_mips", s.mips, "MIPS", n},
		latencyMetric("pass_p50_ms", p.lat, 0.5),
		latencyMetric("pass_p90_ms", p.lat, 0.9),
		latencyMetric("visit_p50_ms", w.st.visitMs, 0.5),
		latencyMetric("visit_p90_ms", w.st.visitMs, 0.9),
		{"sweep_points_per_cpu_s", median(p.passRaw), "1/s", n},
		{"probe_speed", median(p.probes), "Msteps/s", n},
	}
}

func (w *dse) layers(p *phase) []metric {
	st := w.st
	var canon simStats
	for _, s := range st.canon {
		canon.add(s)
	}
	insts := st.runInsts[0] + st.runInsts[1]
	nsPer := func(d time.Duration, n uint64) float64 { return ratio(float64(d), float64(n)) }
	full, partial := float64(len(st.fullMs)), float64(len(st.partialMs))
	hits := gaugeDelta(st.before, st.after, "liquid_reconfig_cache_hits")
	misses := gaugeDelta(st.before, st.after, "liquid_reconfig_cache_misses")
	return append(canon.metrics(len(st.canon)),
		metric{"cpu.ns_per_inst", nsPer(st.runNs[0]+st.runNs[1], insts), "ns", len(st.runMs)},
		metric{"cpu.ns_per_inst.icache_dm", nsPer(st.runNs[0], st.runInsts[0]), "ns", len(st.runMs)},
		metric{"cpu.ns_per_inst.icache_assoc", nsPer(st.runNs[1], st.runInsts[1]), "ns", len(st.runMs)},
		metric{"cpu.assoc_icache_inst_share", ratio(float64(st.runInsts[1]), float64(insts)), "ratio", len(st.runMs)},
		latencyMetric("core.run_ms.p50", st.runMs, 0.5),
		latencyMetric("core.reconfigure_partial_ms.p50", st.partialMs, 0.5),
		latencyMetric("core.reconfigure_full_ms.p50", st.fullMs, 0.5),
		metric{"core.full_swap_share", ratio(full, full+partial), "ratio", int(full + partial)},
		metric{"reconfig.hit_ratio", 1 - ratio(misses, hits+misses), "ratio", int(hits + misses)},
		metric{"reconfig.synth_runs", gaugeDelta(st.before, st.after, "liquid_reconfig_synth_runs"), "count", 1},
	)
}

func (w *dse) close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.sys.Close()
	return nil
}

// cycleRecord persists a run's simulated cycles per (point, program)
// keyed by seed and benchmark binary, so a later run of the same
// binary and seed checks that its cycles repeat exactly.
type cycleRecord struct {
	Cycles map[string]uint64 `json:"cycles"`
}

// binaryID fingerprints the running benchmark binary.
var binaryID = sync.OnceValues(func() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
})

func loadCycleRecord(outdir, name string, seed int64) (string, map[[2]int]uint64, error) {
	id, err := binaryID()
	if err != nil {
		return "", nil, err
	}
	path := filepath.Join(outdir, "cycles", fmt.Sprintf("%s-seed%d-%s.json", name, seed, id))
	known := map[[2]int]uint64{}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return path, known, nil
	}
	if err != nil {
		return "", nil, err
	}
	var rec cycleRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return "", nil, fmt.Errorf("%s: %w", path, err)
	}
	for k, v := range rec.Cycles {
		var key [2]int
		if _, err := fmt.Sscanf(k, "%d/%d", &key[0], &key[1]); err != nil {
			return "", nil, fmt.Errorf("%s: key %q: %w", path, k, err)
		}
		known[key] = v
	}
	return path, known, nil
}

func (w *dse) saveCycleRecord() error {
	rec := cycleRecord{Cycles: map[string]uint64{}}
	for k, v := range w.known {
		rec.Cycles[fmt.Sprintf("%d/%d", k[0], k[1])] = v
	}
	for k, v := range w.cycles {
		rec.Cycles[fmt.Sprintf("%d/%d", k[0], k[1])] = v
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(w.record), 0o755); err != nil {
		return err
	}
	return os.WriteFile(w.record, data, 0o644)
}
