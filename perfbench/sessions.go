package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// sessionMaxChunks bounds the seeded image sizes of remote-sessions.
const sessionMaxChunks = 32

// probeEvery paces the host-speed probes of a remote-sessions phase.
const probeEvery = time.Second

// sessions is the remote-sessions workload: one closed-loop client
// per board of a 2-board node, each session a complete remote
// round: load an image of 1-32 chunks (or, for a seeded quarter of
// sessions, re-run the loaded one), start, wait, read the result back.
type sessions struct {
	remote
	progs []program // progs[k-1] spans k chunks
	// gate is held shared by every session; a probe takes it alone,
	// so it runs between sessions on an idle node.
	gate sync.RWMutex
}

func buildSessions(seed int64, outdir string) (workload, *toolchain, error) {
	cfg, err := serverConfig()
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	tc := &toolchain{}
	w := &sessions{}
	for k := 1; k <= sessionMaxChunks; k++ {
		p, err := sessionProgram(rng, k, stackTopFor(cfg), tc)
		if err != nil {
			return nil, nil, err
		}
		w.progs = append(w.progs, p)
	}
	if w.node, err = startNode(cfg, 2, outdir); err != nil {
		return nil, nil, err
	}
	for b := 0; b < 2; b++ {
		c, err := w.node.dial(b)
		if err != nil {
			w.close()
			return nil, nil, err
		}
		w.clients = append(w.clients, c)
	}
	return w, tc, nil
}

func (w *sessions) measure(p *phase) error {
	end, err := w.beginPhase(p)
	if err != nil {
		return err
	}
	p.probed(wallProbe())
	stop := make(chan struct{})
	var wg, pw sync.WaitGroup
	pw.Add(1)
	go func() {
		defer pw.Done()
		w.probeLoop(p, stop)
	}()
	for i := range w.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w.loop(p, i)
		}(i)
	}
	wg.Wait()
	close(stop)
	pw.Wait()
	end()
	return nil
}

// probeLoop probes the host's speed every probeEvery, between
// sessions, until stop closes.
func (w *sessions) probeLoop(p *phase, stop <-chan struct{}) {
	t := time.NewTicker(probeEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			w.gate.Lock()
			s := wallProbe()
			w.gate.Unlock()
			p.probed(s)
		}
	}
}

// loop is one client's closed loop of sessions. The first session of
// a phase always loads, so the phase's sequence depends only on the
// seed.
func (w *sessions) loop(p *phase, board int) {
	c := w.clients[board]
	rng := p.rng(int64(board))
	var loaded *program
	runs := 0 // runs of the loaded image since its load
	for !p.done() {
		rerun := loaded != nil && rng.Intn(4) == 0
		if !rerun {
			loaded = &w.progs[rng.Intn(len(w.progs))]
			runs = 0
		}
		prog := loaded
		w.gate.RLock()
		start := time.Now()
		o := p.tr.begin("session:"+prog.name, start)
		err := func() error {
			if !rerun {
				if _, err := o.call("client.load", func() error { return c.LoadProgram(prog.img.Origin, prog.img.Code) }); err != nil {
					return fmt.Errorf("load: %w", err)
				}
			}
			rep, err := w.runRemote(p, o, c, prog.img.Entry)
			if err != nil {
				return err
			}
			runs++
			got, err := readWord(o, c, prog.resultAddr())
			if err != nil {
				return err
			}
			if want := prog.want + uint32(runs); got != want {
				return mismatch(fmt.Sprintf("board %d %s run %d: result read back", board, prog.name, runs), got, want)
			}
			p.win.add(start, time.Now(), 1, float64(rep.Instructions))
			return nil
		}()
		o.end()
		if err != nil {
			// A failed session leaves the board's state unknown:
			// reload next time.
			loaded = nil
		}
		if p.check(err) {
			p.latency(time.Since(start))
		}
		w.gate.RUnlock()
		w.st.mu.Lock()
		w.st.ops++
		w.st.mu.Unlock()
	}
}

func (w *sessions) named(p *phase) []metric {
	s := w.summary(p)
	wallOps, _ := p.win.rates()
	p.mu.Lock()
	defer p.mu.Unlock()
	return []metric{
		{"sessions_per_s", s.ops, "1/s", s.n},
		{"sim_mips", s.mips, "MIPS", s.n},
		latencyMetric("session_p50_ms", s.lat, 0.5),
		latencyMetric("session_p90_ms", s.lat, 0.9),
		{"sessions_per_wall_s", wallOps, "1/s", len(p.win.ops)},
		{"probe_speed", mean(p.probes), "Msteps/s", len(p.probes)},
	}
}
