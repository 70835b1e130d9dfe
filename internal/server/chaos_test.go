package server

import (
	"fmt"
	"testing"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/chaos"
	"liquidarch/internal/client"
	"liquidarch/internal/fpx"
	"liquidarch/internal/metrics"
	"liquidarch/internal/netproto"
	"liquidarch/internal/sim"
)

// chaosSeeds are the pinned fault-sequence seeds the CI suite replays.
// Each seed produces one reproducible storm of drops, dups and
// reorders. The full matrix runs on the simulated fabric
// (sim_chaos_test.go); the real-UDP tests below keep one smoke seed
// each, through the chaos proxy, to prove the production socket path
// still survives a storm (`liquid-chaos -seed N` replays one against a
// real deployment).
var chaosSeeds = []int64{1, 7, 42}

// smokeSeeds is the real-UDP slice of the matrix.
var smokeSeeds = chaosSeeds[:1]

// chaosProxy starts a fault-injecting relay in front of addr, wired
// for cleanup.
func chaosProxy(t testing.TB, addr string, cfg chaos.Config) *chaos.Proxy {
	t.Helper()
	p, err := chaos.NewProxy("127.0.0.1:0", addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Serve() }()
	t.Cleanup(func() {
		p.Close()
		if err := <-done; err != nil {
			t.Errorf("chaos proxy: %v", err)
		}
	})
	return p
}

// scripted is a proxy config that applies the fault script s (see
// sim.ParseScript) and no random faults.
func scripted(t testing.TB, s string) chaos.Config {
	t.Helper()
	up, down, err := sim.ParseScript(s)
	if err != nil {
		t.Fatal(err)
	}
	return chaos.Config{Seed: 1, Up: sim.LinkParams{Script: up}, Down: sim.LinkParams{Script: down}}
}

// dialChaos dials through addr with the retry schedule tuned for a
// stormy transport: short first timeout, generous retry budget, jitter
// pinned to seed so the whole retransmission schedule is reproducible.
func dialChaos(t testing.TB, addr string, seed int64) *client.Client {
	t.Helper()
	c := dial(t, addr)
	c.Timeout = 100 * time.Millisecond
	c.MaxTimeout = time.Second
	c.Retries = 10
	c.SetSeed(seed)
	return c
}

// runCycle drives one full load→start→result cycle plus a load-image
// readback, and returns everything the transport could have corrupted.
func runCycle(t testing.TB, c *client.Client, obj *asm.Object) (netproto.RunReport, []byte) {
	t.Helper()
	if err := c.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatalf("load: %v", err)
	}
	rep, err := c.Start(obj.Origin, 0)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	head, err := c.ReadMemory(obj.Origin, 64)
	if err != nil {
		t.Fatalf("readback: %v", err)
	}
	return rep, head
}

// TestControlPlaneUnderChaos is the real-UDP smoke slice of the
// headline acceptance test: a full load→start→result cycle completes
// bit-identically under 20% loss plus reordering and duplication. The
// simulator is deterministic, so any divergence from the clean-path
// baseline is a transport-hardening bug: a lost chunk, a doubly
// applied start, a stale result accepted. The full pinned-seed matrix
// runs on the simulated fabric in TestControlPlaneUnderChaosSim.
func TestControlPlaneUnderChaos(t *testing.T) {
	iters := 100_000
	if raceEnabled || testing.Short() {
		iters = 20_000
	}
	obj := assembleAt(t, countProg(iters))

	// Clean-path baseline.
	_, addr := startServer(t)
	wantRep, wantHead := runCycle(t, dial(t, addr), obj)
	if wantRep.Status != netproto.StatusOK || wantRep.Cycles == 0 {
		t.Fatalf("baseline report = %+v", wantRep)
	}

	for _, seed := range smokeSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			_, addr := startServer(t)
			reg := metrics.NewRegistry()
			storm := sim.LinkParams{Drop: 0.2, Reorder: 0.1, Dup: 0.1}
			proxy := chaosProxy(t, addr, chaos.Config{
				Seed:     seed,
				Up:       storm,
				Down:     storm,
				Registry: reg,
			})
			c := dialChaos(t, proxy.Addr().String(), seed)
			rep, head := runCycle(t, c, obj)
			if rep != wantRep {
				t.Errorf("report diverged under chaos:\n got %+v\nwant %+v", rep, wantRep)
			}
			if string(head) != string(wantHead) {
				t.Errorf("loaded image diverged under chaos")
			}
			// The storm must actually have raged: injected loss and
			// reordering, and the hardened client visibly retried.
			snap := reg.Snapshot()
			drops := snap.Counter(`liquid_chaos_injected_total{event="up_drop"}`) +
				snap.Counter(`liquid_chaos_injected_total{event="down_drop"}`)
			reorders := snap.Counter(`liquid_chaos_injected_total{event="up_reorder"}`) +
				snap.Counter(`liquid_chaos_injected_total{event="down_reorder"}`)
			if drops == 0 {
				t.Error("chaos injected no drops — test proved nothing")
			}
			if reorders == 0 {
				t.Error("chaos injected no reorders — test proved nothing")
			}
			csnap := c.Metrics().Snapshot()
			if csnap.Counters["liquid_client_retries_total"] == 0 {
				t.Error("client never retried under 20% loss")
			}
		})
	}
}

// TestDuplicateResponsesSuppressed: with every status ack duplicated
// by the relay, the stray copy left in the socket buffer is discarded
// by the next exchange's seq filter instead of being mistaken for its
// answer.
func TestDuplicateResponsesSuppressed(t *testing.T) {
	platform := fpx.New(fpx.NewEmulator(), [4]byte{10, 0, 0, 2}, 5001)
	srv, err := New(platform, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := serveNode(t, srv)

	proxy := chaosProxy(t, addr, scripted(t, "down:status=dup"))

	c := dial(t, proxy.Addr().String())
	for i := 0; i < 3; i++ {
		if _, err := c.Status(); err != nil {
			t.Fatalf("status %d: %v", i, err)
		}
	}
	snap := c.Metrics().Snapshot()
	if snap.Counters["liquid_client_dup_responses_total"] == 0 {
		t.Error("duplicated acks were never suppressed")
	}
}

// TestRetransmittedStartNotReapplied: the server's dedup window must
// re-ack a duplicated start instead of starting the board twice — a
// double apply would re-run the program and corrupt the cycle report.
func TestRetransmittedStartNotReapplied(t *testing.T) {
	iters := 50_000
	if raceEnabled || testing.Short() {
		iters = 20_000
	}
	obj := assembleAt(t, countProg(iters))

	srv, addr := startServer(t)
	proxy := chaosProxy(t, addr, scripted(t, "up:start=dup, up:result=dup"))
	c := dial(t, proxy.Addr().String())

	if err := c.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Start(obj.Origin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != netproto.StatusOK || rep.Cycles == 0 {
		t.Fatalf("report = %+v", rep)
	}
	snap := srv.Metrics().Snapshot()
	if snap.Counters["liquid_fpx_dup_requests_total"] == 0 {
		t.Error("duplicated requests never hit the dedup window")
	}
}
