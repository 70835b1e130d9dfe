package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/client"
	"liquidarch/internal/fpx"
	"liquidarch/internal/leon"
	"liquidarch/internal/netproto"
	"liquidarch/internal/sim"
	"liquidarch/internal/tracing"
)

// These are the simulated-fabric ports of the chaos acceptance tests:
// the same programs, the same fault intensities, the same assertions —
// but the storm runs on sim.Network under a virtual clock, so every
// retransmission timeout costs microseconds of real time instead of
// milliseconds, and the whole pinned-seed matrix runs here. The real-UDP
// TestControlPlaneUnderChaos and TestWindowedLoadUnderLoss keep one
// smoke seed each to prove the production socket path and the chaos
// proxy still survive a storm.

// simStorm is the headline fault mix on the fabric: 20% loss plus
// reordering and duplication, with sub-millisecond link latency so
// delivery rides the virtual timeline.
func simStorm() sim.LinkParams {
	return sim.LinkParams{
		Drop: 0.2, Reorder: 0.1, Dup: 0.1,
		Latency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond,
	}
}

// cleanLink is latency-only: the fault-free baseline path.
func cleanLink() sim.LinkParams {
	return sim.LinkParams{Latency: 200 * time.Microsecond}
}

// simBoard boots one LEON platform on the virtual clock.
func simBoard(t testing.TB, clk sim.Clock, ip [4]byte) *fpx.Platform {
	t.Helper()
	restoreGOMAXPROCS(t)
	soc, err := leon.New(leon.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := leon.NewController(soc)
	if err := ctrl.Boot(); err != nil {
		t.Fatal(err)
	}
	actrl := leon.NewAsyncController(ctrl)
	actrl.SetClock(clk)
	t.Cleanup(actrl.Close)
	return fpx.New(actrl, ip, 5001)
}

// startSimNode boots an n-board node on the world's fabric and serves
// it until cleanup, returning the node's fabric address.
func startSimNode(t testing.TB, w *sim.World, n int) net.Addr {
	t.Helper()
	boards := make([]*fpx.Platform, n)
	for i := range boards {
		boards[i] = simBoard(t, w.Clock, [4]byte{10, 0, 0, byte(2 + i)})
	}
	return serveSimNode(t, w, nil, boards...)
}

// serveSimNode serves platforms as one node on the world's fabric until
// cleanup, tracing it into col when col is non-nil, and returns the
// node's fabric address.
func serveSimNode(t testing.TB, w *sim.World, col *tracing.Collector, platforms ...*fpx.Platform) net.Addr {
	t.Helper()
	pc, err := w.Net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewNodeConn(pc, w.Clock, platforms...)
	if err != nil {
		t.Fatal(err)
	}
	if col != nil {
		srv.EnableTracing(col)
	}
	serveNode(t, srv)
	return pc.LocalAddr()
}

// simEmulator serves one emulated board (no LEON: instant runs) on the
// world's fabric and returns it with the node's address.
func simEmulator(t testing.TB, w *sim.World) (*fpx.Platform, net.Addr) {
	t.Helper()
	emu := fpx.NewEmulator()
	emu.Clock = w.Clock
	platform := fpx.New(emu, [4]byte{10, 0, 0, 2}, 5001)
	return platform, serveSimNode(t, w, nil, platform)
}

// dialSim connects a client across the fabric with the chaos retry
// schedule (tuned to virtual milliseconds) and the given fault params
// installed on both directions of its link.
func dialSim(t testing.TB, w *sim.World, remote net.Addr, seed int64, p sim.LinkParams) (*client.Client, *sim.Conn) {
	t.Helper()
	conn, err := w.Net.Dial(remote)
	if err != nil {
		t.Fatal(err)
	}
	w.Net.SetLink(conn.LocalAddr(), remote, p)
	w.Net.SetLink(remote, conn.LocalAddr(), p)
	c := client.New(conn, w.Clock)
	t.Cleanup(func() { c.Close() })
	c.Timeout = 50 * time.Millisecond
	c.MaxTimeout = 400 * time.Millisecond
	c.Retries = 10
	c.PollInterval = time.Millisecond
	c.WaitTimeout = 60 * time.Second
	c.WaitHold = 20 * time.Millisecond
	c.SetSeed(seed)
	return c, conn
}

// simTotals are the storm-raged counters of one simulated run.
type simTotals struct {
	drops, reorders, retries uint64
}

// runNodeSim executes one full storm on a fresh world: an n-board node,
// one client per board, each driving load→start→result→readback of the
// same program through its own lossy link. Returns every board's final
// report and loaded-image head plus the aggregated fault counters.
func runNodeSim(t *testing.T, seed int64, n int, obj *asm.Object, p sim.LinkParams) ([]netproto.RunReport, [][]byte, simTotals) {
	t.Helper()
	w := sim.NewWorld(seed)
	t.Cleanup(w.Close)
	addr := startSimNode(t, w, n)

	clients := make([]*client.Client, n)
	conns := make([]*sim.Conn, n)
	for b := 0; b < n; b++ {
		clients[b], conns[b] = dialSim(t, w, addr, seed+int64(b), p)
		clients[b].Board = uint8(b)
	}

	var wg sync.WaitGroup
	reps := make([]netproto.RunReport, n)
	heads := make([][]byte, n)
	errs := make([]error, n)
	for b := 0; b < n; b++ {
		wg.Add(1)
		go func(b int, c *client.Client) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[b] = fmt.Errorf("panic: %v", r)
				}
			}()
			if err := c.LoadProgram(obj.Origin, obj.Code); err != nil {
				errs[b] = fmt.Errorf("load: %w", err)
				return
			}
			rep, err := c.Start(obj.Origin, 0)
			if err != nil {
				errs[b] = fmt.Errorf("start: %w", err)
				return
			}
			reps[b] = rep
			heads[b], errs[b] = c.ReadMemory(obj.Origin, 64)
		}(b, clients[b])
	}
	wg.Wait()
	for b := 0; b < n; b++ {
		if errs[b] != nil {
			t.Fatalf("board %d: %v", b, errs[b])
		}
	}

	var tot simTotals
	for b := 0; b < n; b++ {
		up := w.Net.LinkStats(conns[b].LocalAddr(), addr)
		down := w.Net.LinkStats(addr, conns[b].LocalAddr())
		tot.drops += up.Dropped + down.Dropped
		tot.reorders += up.Reordered + down.Reordered
		tot.retries += clients[b].Metrics().Snapshot().Counters["liquid_client_retries_total"]
	}
	return reps, heads, tot
}

// TestControlPlaneUnderChaosSim is the fabric port of the headline
// acceptance test: a full load→start→result cycle completes
// bit-identically under 20% loss plus reordering and duplication, for
// every pinned seed — and, because the fault schedule is a pure
// function of the seed, two executions of the same seed agree
// bit-for-bit with each other as well.
func TestControlPlaneUnderChaosSim(t *testing.T) {
	iters := 100_000
	if raceEnabled || testing.Short() {
		iters = 20_000
	}
	// Pad the image to ~11 chunks so the storm has enough traffic to
	// provably rage on every pinned seed.
	obj := assembleAt(t, countProg(iters)+"\t.space 8000\n")

	// Clean-path baseline on the same fabric.
	baseReps, baseHeads, _ := runNodeSim(t, 0, 1, obj, cleanLink())
	wantRep, wantHead := baseReps[0], baseHeads[0]
	if wantRep.Status != netproto.StatusOK || wantRep.Cycles == 0 {
		t.Fatalf("baseline report = %+v", wantRep)
	}

	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			start := time.Now()
			reps1, heads1, tot1 := runNodeSim(t, seed, 1, obj, simStorm())
			reps2, heads2, tot2 := runNodeSim(t, seed, 1, obj, simStorm())
			tot := simTotals{
				drops:    tot1.drops + tot2.drops,
				reorders: tot1.reorders + tot2.reorders,
				retries:  tot1.retries + tot2.retries,
			}
			t.Logf("two simulated storms in %v (drops=%d reorders=%d retries=%d)",
				time.Since(start), tot.drops, tot.reorders, tot.retries)

			if reps1[0] != wantRep {
				t.Errorf("report diverged under chaos:\n got %+v\nwant %+v", reps1[0], wantRep)
			}
			if string(heads1[0]) != string(wantHead) {
				t.Errorf("loaded image diverged under chaos")
			}
			// Same seed, same storm: the second run must agree bit-for-bit.
			if reps1[0] != reps2[0] {
				t.Errorf("same seed, different reports:\n run1 %+v\n run2 %+v", reps1[0], reps2[0])
			}
			if string(heads1[0]) != string(heads2[0]) {
				t.Errorf("same seed, different loaded images")
			}
			// The storm must actually have raged.
			if tot.drops == 0 {
				t.Error("fabric injected no drops — test proved nothing")
			}
			if tot.reorders == 0 {
				t.Error("fabric injected no reorders — test proved nothing")
			}
			if tot.retries == 0 {
				t.Error("client never retried under 20% loss")
			}
		})
	}
}

// TestNodeUnderChaosSim is the fabric port of the deterministic soak: a
// 4-board node, four concurrent clients through four independently
// faulted links, every board's result bit-identical to the clean
// baseline — and the whole storm re-run to prove two executions of a
// seed agree. Runs the full matrix even in -short: virtual time makes
// the soak cheap.
func TestNodeUnderChaosSim(t *testing.T) {
	const boards = 4
	iters := 20_000
	obj := assembleAt(t, countProg(iters))

	baseReps, baseHeads, _ := runNodeSim(t, 0, 1, obj, cleanLink())
	wantRep, wantHead := baseReps[0], baseHeads[0]
	if wantRep.Status != netproto.StatusOK {
		t.Fatalf("baseline report = %+v", wantRep)
	}

	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			start := time.Now()
			reps1, heads1, tot := runNodeSim(t, seed, boards, obj, simStorm())
			reps2, heads2, _ := runNodeSim(t, seed, boards, obj, simStorm())
			t.Logf("two %d-board storms in %v (drops=%d reorders=%d)",
				boards, time.Since(start), tot.drops, tot.reorders)
			for b := 0; b < boards; b++ {
				if reps1[b] != wantRep {
					t.Errorf("board %d report diverged:\n got %+v\nwant %+v", b, reps1[b], wantRep)
				}
				if string(heads1[b]) != string(wantHead) {
					t.Errorf("board %d loaded image diverged", b)
				}
				if reps1[b] != reps2[b] {
					t.Errorf("board %d: same seed, different reports:\n run1 %+v\n run2 %+v", b, reps1[b], reps2[b])
				}
				if string(heads1[b]) != string(heads2[b]) {
					t.Errorf("board %d: same seed, different loaded images", b)
				}
			}
			if tot.drops == 0 {
				t.Error("fabric injected no drops — test proved nothing")
			}
		})
	}
}

// TestWindowedLoadUnderLossSim is the fabric port of the pipelining
// acceptance test: a 32-chunk sliding-window load through 20% loss plus
// reordering lands bit-identical to a clean stop-and-wait load, the
// client's chunk accounting closes, and two runs of a seed agree.
func TestWindowedLoadUnderLossSim(t *testing.T) {
	const chunks = 32
	img := make([]byte, (chunks-1)*netproto.MaxChunkData+317)
	for i := range img {
		img[i] = byte(i*13 + i>>9)
	}

	// runLoad pushes img through a lossy link on a fresh world, then
	// reads the board's memory back over a clean link.
	runLoad := func(t *testing.T, seed int64, p sim.LinkParams, window int) ([]byte, *client.Client, simTotals) {
		t.Helper()
		w := sim.NewWorld(seed)
		t.Cleanup(w.Close)
		addr := startSimNode(t, w, 1)
		c, conn := dialSim(t, w, addr, seed, p)
		if window > 0 {
			c.Window = window
		}
		if err := c.LoadProgram(leon.DefaultLoadAddr, img); err != nil {
			t.Fatalf("load under loss: %v", err)
		}
		check, _ := dialSim(t, w, addr, seed, cleanLink())
		got, err := check.ReadMemory(leon.DefaultLoadAddr, len(img))
		if err != nil {
			t.Fatalf("readback: %v", err)
		}
		up := w.Net.LinkStats(conn.LocalAddr(), addr)
		down := w.Net.LinkStats(addr, conn.LocalAddr())
		return got, c, simTotals{
			drops:    up.Dropped + down.Dropped,
			reorders: up.Reordered + down.Reordered,
			retries:  c.Metrics().Snapshot().Counters["liquid_client_retries_total"],
		}
	}

	// Clean stop-and-wait baseline.
	want, _, _ := runLoad(t, 0, cleanLink(), 1)
	if string(want) != string(img) {
		t.Fatal("baseline load did not faithfully store the image")
	}

	lossy := sim.LinkParams{
		Drop: 0.2, Reorder: 0.1,
		Latency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond,
	}
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			start := time.Now()
			got1, c, tot := runLoad(t, seed, lossy, 0)
			got2, _, _ := runLoad(t, seed, lossy, 0)
			t.Logf("two windowed loads in %v (drops=%d retries=%d)", time.Since(start), tot.drops, tot.retries)

			if string(got1) != string(want) {
				t.Error("windowed load under loss diverged from the clean stop-and-wait image")
			}
			if string(got1) != string(got2) {
				t.Error("same seed, different loaded images")
			}
			if tot.drops == 0 {
				t.Error("fabric injected no drops — test proved nothing")
			}

			// Accounting closes: chunks requested once each, resends all
			// visible in both counters.
			csnap := c.Metrics().Snapshot()
			loadReqs := csnap.Counter(`liquid_client_requests_total{cmd="load"}`)
			skipped := csnap.Counters["liquid_client_load_chunks_skipped_total"]
			if loadReqs+skipped != chunks {
				t.Errorf("requests{load}=%d + skipped=%d != %d chunks", loadReqs, skipped, chunks)
			}
			resends := csnap.Counters["liquid_client_load_chunk_resends_total"]
			retries := csnap.Counters["liquid_client_retries_total"]
			if resends == 0 {
				t.Error("no chunk resends under 20% loss — window never recovered anything")
			}
			if resends != retries {
				t.Errorf("chunk resends (%d) != retries (%d): a retransmission escaped the accounting", resends, retries)
			}
		})
	}
}

// TestLoadInterruptedResumes is the resume acceptance test: a load
// black-holed from chunk 4 onward fails with partial progress, and a
// fresh client (a reconnect) finishes the load by resuming from the
// server's advertised gap — never re-sending chunks the board already
// holds. The server-side apply counter must equal the chunk total:
// every chunk applied exactly once, across both attempts.
func TestLoadInterruptedResumes(t *testing.T) {
	w := sim.NewWorld(1)
	t.Cleanup(w.Close)
	platform, addr := simEmulator(t, w)

	up, _, err := sim.ParseScript("up:load@4+=drop")
	if err != nil {
		t.Fatal(err)
	}

	img := make([]byte, 3*netproto.MaxChunkData+500) // 4 chunks
	for i := range img {
		img[i] = byte(i * 7)
	}
	chunks := len(netproto.ChunkImage(leon.DefaultLoadAddr, img))

	// Attempt 1, through the black hole: chunks 1-3 are acked, chunk 4
	// (and every retransmission of it) vanishes.
	c1, conn := dialSim(t, w, addr, 1, cleanLink())
	blackHole := cleanLink()
	blackHole.Script = up
	w.Net.SetLink(conn.LocalAddr(), addr, blackHole)
	c1.Timeout = 50 * time.Millisecond
	c1.Retries = 2
	err = c1.LoadProgram(leon.DefaultLoadAddr, img)
	var le *client.LoadError
	if !errors.As(err, &le) {
		t.Fatalf("interrupted load returned %v, want *LoadError", err)
	}
	if le.ChunksAcked != 3 || le.ChunksTotal != chunks {
		t.Fatalf("partial progress = %d/%d, want 3/%d", le.ChunksAcked, le.ChunksTotal, chunks)
	}
	if !errors.Is(err, client.ErrBoardUnreachable) {
		t.Fatalf("LoadError does not unwrap to ErrBoardUnreachable: %v", err)
	}

	// Attempt 2, clean path: the load resumes from chunk 4.
	c2, _ := dialSim(t, w, addr, 1, cleanLink())
	if err := c2.LoadProgram(leon.DefaultLoadAddr, img); err != nil {
		t.Fatalf("resumed load: %v", err)
	}

	snap := platform.Metrics().Snapshot()
	if got := snap.Counters["liquid_fpx_load_chunks_applied_total"]; got != uint64(chunks) {
		t.Errorf("chunks applied = %d, want exactly %d (no chunk applied twice)", got, chunks)
	}
	if snap.Counters["liquid_fpx_load_chunks_dup_total"] == 0 {
		t.Error("resume probe not counted as a duplicate chunk")
	}
	if snap.Counters["liquid_fpx_loads_completed_total"] != 1 {
		t.Error("load did not complete exactly once")
	}
	csnap := c2.Metrics().Snapshot()
	if csnap.Counters["liquid_client_loads_resumed_total"] != 1 {
		t.Error("client did not count the resume")
	}
	if got := csnap.Counters["liquid_client_load_chunks_skipped_total"]; got != 2 {
		t.Errorf("client skipped %d chunks, want 2 (chunks 2-3 already held)", got)
	}
}
