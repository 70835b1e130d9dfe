package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"liquidarch/internal/client"
	"liquidarch/internal/metrics"
	"liquidarch/internal/netproto"
)

// canonOps is how many board-0 ops of a traced phase the simulated
// counts (cpu.instructions, cache miss ratios) cover; each phase
// starts from cold caches and a seeded op sequence, so these counts
// repeat exactly for a seed.
const canonOps = 64

// queueSampleEvery paces the traced phase's server queue-depth sampler.
const queueSampleEvery = 10 * time.Millisecond

// remote is the network side of remote-sessions: a 2-board node on
// loopback UDP, its clients, and the per-layer accounting of a traced
// phase.
type remote struct {
	node    *node
	clients []*client.Client
	st      *remoteStats
	closed  bool
}

type remoteStats struct {
	mu        sync.Mutex
	ops       int // sessions completed in the phase
	runMs     []float64
	runNs     time.Duration // StartAsync → WaitResult wall
	runInsts  uint64
	canon     simStats
	canonDone int
	qmax      float64

	nodeBefore, nodeAfter []metrics.Snapshot
	cliBefore, cliAfter   []metrics.Snapshot
}

func (r *remote) close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	var errs []error
	for _, c := range r.clients {
		errs = append(errs, c.Close())
	}
	if r.node != nil {
		errs = append(errs, r.node.close())
	}
	return errors.Join(errs...)
}

// summary is the phase's median window rates and its latencies,
// converted from wall time to reference time by the mean of the
// wall-clock probes taken during the phase: the mean, not the median,
// so the time the host took the cores away counts in proportion.
func (r *remote) summary(p *phase) summary {
	ops, mips := p.win.rates()
	p.mu.Lock()
	defer p.mu.Unlock()
	f := mean(p.probes) / probeRefSpeed // reference time per wall second
	lat := make([]float64, len(p.lat))
	for i, v := range p.lat {
		lat[i] = v * f
	}
	return summary{ops / f, mips / f, len(p.win.ops), lat}
}

func (r *remote) snapshots() (nodes, clients []metrics.Snapshot) {
	for _, s := range r.node.systems {
		nodes = append(nodes, s.Metrics().Snapshot())
	}
	for _, c := range r.clients {
		clients = append(clients, c.Metrics().Snapshot())
	}
	return nodes, clients
}

// beginPhase resets every board to cold caches (a partial swap to its
// own configuration) so the phase's simulated counts do not depend on
// where the previous phase stopped, and, for a traced phase, starts
// the registry accounting and the queue-depth sampler. The returned
// function ends the phase.
func (r *remote) beginPhase(p *phase) (func(), error) {
	for i, s := range r.node.systems {
		if _, err := s.Reconfigure(s.Config()); err != nil {
			return nil, fmt.Errorf("board %d cache reset: %w", i, err)
		}
	}
	r.st = &remoteStats{}
	if p.tr == nil {
		return func() {}, nil
	}
	r.st.nodeBefore, r.st.cliBefore = r.snapshots()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(queueSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				q := r.node.systems[0].Metrics().Snapshot().Gauges["liquid_server_queue_depth"]
				r.st.mu.Lock()
				r.st.qmax = max(r.st.qmax, q)
				r.st.mu.Unlock()
			}
		}
	}()
	return func() {
		close(stop)
		wg.Wait()
		r.st.nodeAfter, r.st.cliAfter = r.snapshots()
	}, nil
}

// runRemote starts and collects one run on c's board inside op o,
// returning the report. For the first canonOps board-0 runs of a
// traced phase it also books the run's simulated counts.
func (r *remote) runRemote(p *phase, o *op, c *client.Client, entry uint32) (netproto.RunReport, error) {
	var canonBefore metrics.Snapshot
	canon := false
	if p.tr != nil && c.Board == 0 {
		r.st.mu.Lock()
		canon = r.st.canonDone < canonOps
		r.st.mu.Unlock()
	}
	sys := r.node.systems[c.Board]
	if canon {
		canonBefore = sys.Metrics().Snapshot()
	}
	t0 := time.Now()
	if _, err := o.call("client.start", func() error { return c.StartAsync(entry, 0) }); err != nil {
		return netproto.RunReport{}, fmt.Errorf("start: %w", err)
	}
	var rep netproto.RunReport
	if _, err := o.call("client.wait", func() error {
		var err error
		rep, err = c.WaitResult()
		return err
	}); err != nil {
		return rep, fmt.Errorf("wait: %w", err)
	}
	wall := time.Since(t0)
	if p.tr != nil {
		r.st.mu.Lock()
		r.st.runMs = append(r.st.runMs, ms(wall))
		r.st.runNs += wall
		r.st.runInsts += rep.Instructions
		r.st.mu.Unlock()
	}
	if canon {
		d := simDelta(rep.Instructions, canonBefore, sys.Metrics().Snapshot())
		r.st.mu.Lock()
		r.st.canon.add(d)
		r.st.canonDone++
		r.st.mu.Unlock()
	}
	if rep.Status != netproto.StatusOK {
		return rep, fmt.Errorf("run ended with status %d (trap %#x at %#x)", rep.Status, rep.TT, rep.FaultPC)
	}
	return rep, nil
}

// readWord reads one big-endian word from the board inside op o.
func readWord(o *op, c *client.Client, addr uint32) (uint32, error) {
	var b []byte
	_, err := o.call("client.read", func() error {
		var err error
		b, err = c.ReadMemory(addr, 4)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("read: %w", err)
	}
	if len(b) != 4 {
		return 0, fmt.Errorf("read: %d bytes, want 4", len(b))
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
}

// layers computes the per-layer metrics shared by the network
// workloads from the phase's spans and registry deltas.
func (r *remote) layers(p *phase) []metric {
	st := r.st
	tr := p.tr
	ops := float64(st.ops)
	nodeD := func(name string) float64 {
		var v float64
		for i := range st.nodeAfter {
			v += counterDelta(st.nodeBefore[i], st.nodeAfter[i], name)
		}
		return v
	}
	cliD := func(name string) float64 {
		var v float64
		for i := range st.cliAfter {
			v += counterDelta(st.cliBefore[i], st.cliAfter[i], name)
		}
		return v
	}
	n0b, n0a := st.nodeBefore[0], st.nodeAfter[0]
	requests := cliD("liquid_client_requests_total")
	holds := cliD("liquid_client_wait_holds_total")
	commands := nodeD("liquid_fpx_commands_total")
	full := nodeD(`liquid_core_reconfigurations_total{kind="full"}`)
	partial := nodeD(`liquid_core_reconfigurations_total{kind="partial"}`)
	hits := gaugeDelta(n0b, n0a, "liquid_reconfig_cache_hits")
	misses := gaugeDelta(n0b, n0a, "liquid_reconfig_cache_misses")

	var rttE, rttC []float64
	for i := range st.cliAfter {
		e, c := histDelta(st.cliBefore[i], st.cliAfter[i], "liquid_client_rtt_seconds")
		if rttE == nil {
			rttE, rttC = e, c
			continue
		}
		for j := range c {
			rttC[j] += c[j]
		}
	}
	rtt, rttN := histQuantile(rttE, rttC, 0.5)
	hE, hC := histDelta(n0b, n0a, "liquid_server_handled_duration_seconds")
	handled, handledN := histQuantile(hE, hC, 0.5)

	return append(st.canon.metrics(st.canonDone), []metric{
		latencyMetric("core.run_ms.p50", st.runMs, 0.5),
		{"core.remote_ns_per_inst", ratio(float64(st.runNs), float64(st.runInsts)), "ns", len(st.runMs)},
		latencyMetric("leon.start_ms.p50", tr.durations("client.start"), 0.5),
		{"core.full_swap_share", ratio(full, full+partial), "ratio", int(full + partial)},
		{"reconfig.hit_ratio", 1 - ratio(misses, hits+misses), "ratio", int(hits + misses)},
		{"reconfig.synth_runs", gaugeDelta(n0b, n0a, "liquid_reconfig_synth_runs"), "count", 1},
		latencyMetric("client.load_ms.p50", tr.durations("client.load"), 0.5),
		latencyMetric("client.load_ms.p90", tr.durations("client.load"), 0.9),
		latencyMetric("client.wait_ms.p50", tr.durations("client.wait"), 0.5),
		latencyMetric("client.read_ms.p50", tr.durations("client.read"), 0.5),
		{"client.rtt_ms.p50", rtt * 1e3, "ms", rttN},
		{"client.retries_per_1k_requests", 1000 * ratio(cliD("liquid_client_retries_total"), requests), "count", int(requests)},
		{"client.timeouts", cliD("liquid_client_timeouts_total"), "count", int(requests)},
		{"client.wait_hold_share", ratio(holds, requests), "ratio", int(requests)},
		{"server.datagrams_per_session", ratio(counterDelta(n0b, n0a, "liquid_server_datagrams_in_total")+counterDelta(n0b, n0a, "liquid_server_datagrams_out_total"), ops), "count", st.ops},
		{"server.bytes_per_session", ratio(counterDelta(n0b, n0a, "liquid_server_bytes_in_total")+counterDelta(n0b, n0a, "liquid_server_bytes_out_total"), ops), "bytes", st.ops},
		{"server.handled_ms.p50", handled * 1e3, "ms", handledN},
		{"server.queue_depth.max", st.qmax, "count", 1},
		{"server.drops", counterDelta(n0b, n0a, "liquid_server_drops_total"), "count", st.ops},
		{"server.waits_parked_share", ratio(counterDelta(n0b, n0a, "liquid_server_waits_parked_total"), holds), "ratio", int(holds)},
		{"fpx.commands_per_session", ratio(commands, ops), "count", st.ops},
		{"fpx.chunks_per_session", ratio(nodeD("liquid_fpx_load_chunks_total"), ops), "count", st.ops},
		{"fpx.dup_request_share", ratio(nodeD("liquid_fpx_dup_requests_total"), commands), "ratio", int(commands)},
	}...)
}
