package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/core"
	"liquidarch/internal/fpx"
	"liquidarch/internal/leon"
	"liquidarch/internal/netproto"
	"liquidarch/internal/sim"
	"liquidarch/internal/synth"
)

// TestCompatMatrix runs the current client against a node as it ships
// on the simulated fabric: two full load→start→wait cycles plus a
// readback. Both cycles must report the same cycle count, and runs
// must resolve through server-held waits that the server visibly
// parks, with zero CmdResult polls on the wire. (The paper's v1
// dialect is covered by TestPaperDialect.) The one cell keeps its name
// from the old revision matrix: the current dialect carries the last
// command-set revision, v6.
func TestCompatMatrix(t *testing.T) {
	t.Run("server=v6/client=v6", compatCell)
}

func compatCell(t *testing.T) {
	img := make([]byte, 2*netproto.MaxChunkData+100) // 3 chunks
	for i := range img {
		img[i] = byte(i*31 + 5)
	}
	w := sim.NewWorld(6<<8 | 6)
	t.Cleanup(w.Close)

	// Emulated hardware on the virtual clock: every run stays Running
	// for exactly 30 ms of virtual time and reports a cycle count that
	// is a pure function of the image.
	em := fpx.NewEmulator()
	em.AsyncDelay = 30 * time.Millisecond
	em.Clock = w.Clock
	plat := fpx.New(em, [4]byte{10, 0, 0, 2}, 5001)

	pc, err := w.Net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewNodeConn(pc, w.Clock, plat)
	if err != nil {
		t.Fatal(err)
	}
	serveNode(t, srv)

	c, _ := dialSim(t, w, pc.LocalAddr(), 606, cleanLink())

	wantCycles := uint64(len(img)) * 10 // emulator: CyclesPerByte * image
	for cycle := 0; cycle < 2; cycle++ {
		if err := c.LoadProgram(leon.DefaultLoadAddr, img); err != nil {
			t.Fatalf("cycle %d load: %v", cycle, err)
		}
		rep, err := c.Start(leon.DefaultLoadAddr, 0)
		if err != nil {
			t.Fatalf("cycle %d start: %v", cycle, err)
		}
		if rep.Status != netproto.StatusOK || rep.Cycles != wantCycles {
			t.Fatalf("cycle %d report = %+v, want OK with %d cycles", cycle, rep, wantCycles)
		}
	}
	head, err := c.ReadMemory(leon.DefaultLoadAddr, 64)
	if err != nil {
		t.Fatalf("readback: %v", err)
	}
	if !bytes.Equal(head, img[:64]) {
		t.Error("loaded image diverged")
	}

	csnap := c.Metrics().Snapshot()
	if csnap.Counters["liquid_client_wait_holds_total"] == 0 {
		t.Error("the current client never used a held wait")
	}
	if polls := csnap.Counter(`liquid_client_requests_total{cmd="result"}`); polls != 0 {
		t.Errorf("held waits still needed %d CmdResult polls", polls)
	}
	if srv.Metrics().Snapshot().Counters["liquid_server_waits_parked_total"] == 0 {
		t.Error("the node parked no waits server-side")
	}
}

// TestCompatReconfigureAcrossServerRevs: the client's Reconfigure lands
// against a core-backed node. The server acks immediately and the
// client follows the asynchronous conversation to its terminal state;
// the board's active configuration must then reflect the requested
// spec. The case keeps its name from the old per-revision table.
func TestCompatReconfigureAcrossServerRevs(t *testing.T) {
	t.Run("server=v6", compatReconfigureCase)
}

func compatReconfigureCase(t *testing.T) {
	w := sim.NewWorld(6)
	t.Cleanup(w.Close)

	// A core-backed board: reconfiguration is wired, and the modelled
	// ≈1 h synthesis collapses to ~3.6 ms of clock time.
	opts := synth.Options{BitstreamBytes: 256, TimeScale: 1e-6, Clock: w.Clock}
	sys, err := core.New(leon.DefaultConfig(), core.Options{
		Synth: opts,
		IP:    [4]byte{10, 0, 0, 2},
		Clock: w.Clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)

	pc, err := w.Net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewNodeConn(pc, w.Clock, sys.Platform())
	if err != nil {
		t.Fatal(err)
	}
	serveNode(t, srv)

	c, _ := dialSim(t, w, pc.LocalAddr(), 6, cleanLink())

	spec, err := json.Marshal(core.Spec{DCacheBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Reconfigure(spec); err != nil {
		t.Fatalf("reconfigure: %v", err)
	}
	blob, err := c.GetConfig()
	if err != nil {
		t.Fatalf("get config: %v", err)
	}
	if !strings.Contains(string(blob), "8192") {
		t.Errorf("active config does not reflect the 8 KiB D-cache: %s", blob)
	}
}

// TestPaperDialect speaks the paper's §2.6 protocol to a 2-board node
// in raw v1 datagrams — no board byte, no exchange seq: status, a
// multi-chunk load, start (acked StatusRunning), CmdStatus polls until
// the board leaves Running, then read memory. The run must report the
// same cycle count and memory bytes as the current client gets for the
// same image on board 0, and board 1 must stay untouched.
func TestPaperDialect(t *testing.T) {
	w := sim.NewWorld(1)
	t.Cleanup(w.Close)
	node := startSimNode(t, w, 2)

	obj, err := asm.AssembleAt(`
_start:
	set 2000, %g2
loop:
	subcc %g2, 1, %g2
	bne loop
	nop
	set 0x1234, %o0
	set result, %g1
	st %o0, [%g1]
	set 0x1000, %g7
	jmp %g7
	nop
result:	.word 0
	.space 3000
`, leon.DefaultLoadAddr)
	if err != nil {
		t.Fatal(err)
	}
	result := mustSym(t, obj, "result")
	chunks := netproto.ChunkImage(obj.Origin, obj.Code)
	if len(chunks) < 3 {
		t.Fatalf("image is %d chunks, want a multi-chunk load", len(chunks))
	}

	conn, err := w.Net.Dial(node)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	w.Net.SetLink(conn.LocalAddr(), node, cleanLink())
	w.Net.SetLink(node, conn.LocalAddr(), cleanLink())
	buf := make([]byte, 64<<10)
	v1 := func(cmd uint8, body []byte) []byte {
		t.Helper()
		raw := netproto.Packet{Command: cmd, Body: body}.Marshal()
		if raw[2] != netproto.Version {
			t.Fatalf("request is not a v1 datagram: % x", raw)
		}
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(w.Clock.Now().Add(time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("%s: %v", netproto.CommandName(cmd), err)
		}
		resp, err := netproto.ParsePacket(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		if buf[2] != netproto.Version || resp.Board != 0 || resp.HasSeq {
			t.Fatalf("%s answered outside the v1 dialect: % x", netproto.CommandName(cmd), buf[:n])
		}
		if resp.Command != cmd|netproto.RespFlag {
			er, _ := netproto.ParseErrorResp(resp.Body)
			t.Fatalf("%s answered %#02x (%s)", netproto.CommandName(cmd), resp.Command, er.Msg)
		}
		return append([]byte(nil), resp.Body...)
	}
	status := func() netproto.StatusResp {
		t.Helper()
		st, err := netproto.ParseStatusResp(v1(netproto.CmdStatus, nil))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	if st := status(); !st.BootOK || leon.State(st.State) != leon.StateIdle {
		t.Fatalf("boot status = %+v", st)
	}
	for i, ch := range chunks {
		ack, err := netproto.ParseRunReport(v1(netproto.CmdLoadProgram, ch.Marshal()))
		if err != nil {
			t.Fatal(err)
		}
		want := netproto.StatusPending
		if i == len(chunks)-1 {
			want = netproto.StatusOK
		}
		if ack.Status != want {
			t.Fatalf("chunk %d ack = %+v, want status %d", i, ack, want)
		}
	}
	ack, err := netproto.ParseRunReport(v1(netproto.CmdStartLEON, netproto.StartReq{}.Marshal()))
	if err != nil || ack.Status != netproto.StatusRunning {
		t.Fatalf("start ack = %+v, %v, want StatusRunning", ack, err)
	}
	st := status()
	for polls := 1; leon.State(st.State) == leon.StateRunning; polls++ {
		if polls > 10_000 {
			t.Fatal("run never left StatusRunning")
		}
		w.Clock.Sleep(time.Millisecond)
		st = status()
	}
	if leon.State(st.State) != leon.StateDone || st.Last.Status != netproto.StatusOK || st.LoadedAddr != obj.Origin {
		t.Fatalf("post-run status = %+v", st)
	}
	mr, err := netproto.ParseMemResp(v1(netproto.CmdReadMemory, netproto.MemReq{Addr: result, Length: 4}.Marshal()))
	if err != nil {
		t.Fatal(err)
	}

	// The current dialect, same image, board 0.
	c, _ := dialSim(t, w, node, 1, cleanLink())
	rep, data, err := c.RunProgram(obj.Origin, obj.Code, obj.Origin, result, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != netproto.StatusOK || st.Last.Cycles != rep.Cycles {
		t.Errorf("v1 run took %d cycles, the current client's %d (report %+v)", st.Last.Cycles, rep.Cycles, rep)
	}
	if !bytes.Equal(mr.Data, data) || be32(data) != 0x1234 {
		t.Errorf("v1 read % x, the current client read % x (want 00 00 12 34)", mr.Data, data)
	}

	// v1 always addresses board 0: board 1 never saw the load.
	c.Board = 1
	if st1, err := c.Status(); err != nil || st1.LoadedAddr != 0 {
		t.Errorf("board 1 status = %+v, %v; want no load", st1, err)
	}
}
