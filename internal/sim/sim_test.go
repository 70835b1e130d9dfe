package sim

import (
	"bytes"
	"net"
	"testing"
	"time"
)

func TestVirtualClockAdvanceFiresInOrder(t *testing.T) {
	c := NewVirtualClock()
	var order []int
	c.AfterFunc(30*time.Millisecond, func() { order = append(order, 3) })
	c.AfterFunc(10*time.Millisecond, func() { order = append(order, 1) })
	c.AfterFunc(20*time.Millisecond, func() { order = append(order, 2) })
	c.AfterFunc(20*time.Millisecond, func() { order = append(order, 4) }) // tie: registration order
	c.Advance(25 * time.Millisecond)
	want := []int{1, 2, 4}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	c.Advance(10 * time.Millisecond)
	if len(order) != 4 || order[3] != 3 {
		t.Fatalf("after second advance fired %v", order)
	}
	if got := c.Since(virtualEpoch); got != 35*time.Millisecond {
		t.Fatalf("virtual now = %v, want 35ms", got)
	}
}

func TestVirtualClockTimerStopReset(t *testing.T) {
	c := NewVirtualClock()
	tm := c.NewTimer(10 * time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop on pending timer returned false")
	}
	c.Advance(20 * time.Millisecond)
	select {
	case <-tm.C:
		t.Fatal("stopped timer fired")
	default:
	}
	tm.Reset(5 * time.Millisecond)
	c.Advance(5 * time.Millisecond)
	select {
	case <-tm.C:
	default:
		t.Fatal("reset timer did not fire")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire returned true")
	}
}

func TestVirtualClockAfterAndSleepUnderStepper(t *testing.T) {
	c := NewVirtualClock().Start()
	defer c.Stop()
	start := c.Now()
	done := make(chan time.Duration, 1)
	go func() {
		c.Sleep(50 * time.Millisecond)
		done <- c.Since(start)
	}()
	select {
	case d := <-done:
		if d != 50*time.Millisecond {
			t.Fatalf("virtual sleep took %v, want exactly 50ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stepper never advanced past the sleep")
	}
	select {
	case now := <-c.After(10 * time.Millisecond):
		if got := now.Sub(start); got != 60*time.Millisecond {
			t.Fatalf("After fired at +%v, want +60ms", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("After never fired")
	}
}

func TestNetworkDeliversAndTimesOut(t *testing.T) {
	w := NewWorld(1)
	defer w.Close()
	srv, err := w.Net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := w.Net.Dial(srv.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, from, err := srv.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "ping" {
		t.Fatalf("got %q", buf[:n])
	}
	if _, err := srv.WriteTo([]byte("pong"), from); err != nil {
		t.Fatal(err)
	}
	cli.SetReadDeadline(w.Clock.Now().Add(time.Second))
	n, err = cli.Read(buf)
	if err != nil || string(buf[:n]) != "pong" {
		t.Fatalf("read %q err %v", buf[:n], err)
	}
	// No more traffic: the deadline must fire on virtual time.
	cli.SetReadDeadline(w.Clock.Now().Add(20 * time.Millisecond))
	_, err = cli.Read(buf)
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("want timeout net.Error, got %v", err)
	}
}

func TestNetworkLatencyRidesVirtualClock(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	srv, _ := w.Net.Listen("")
	cli, _ := w.Net.Dial(srv.LocalAddr())
	w.Net.SetLink(cli.LocalAddr(), srv.LocalAddr(), LinkParams{Latency: 5 * time.Millisecond})
	start := w.Clock.Now()
	cli.Write([]byte("x"))
	buf := make([]byte, 8)
	if _, _, err := srv.ReadFrom(buf); err != nil {
		t.Fatal(err)
	}
	if d := w.Clock.Since(start); d != 5*time.Millisecond {
		t.Fatalf("delivery at +%v, want +5ms", d)
	}
}

// faultTrace runs a fixed unidirectional burst through a lossy fabric
// and returns the delivered payload sequence, the link stats, and how
// many datagrams a reorder still holds once the fabric is quiescent.
func faultTrace(t *testing.T, seed int64) ([]byte, LinkStats, int) {
	t.Helper()
	w := NewWorld(seed)
	defer w.Close()
	srv, _ := w.Net.Listen("")
	cli, _ := w.Net.Dial(srv.LocalAddr())
	lp := LinkParams{Drop: 0.3, Dup: 0.2, Reorder: 0.2, Latency: time.Millisecond}
	w.Net.SetLink(cli.LocalAddr(), srv.LocalAddr(), lp)
	for i := 0; i < 64; i++ {
		cli.Write([]byte{byte(i)})
	}
	var got []byte
	buf := make([]byte, 8)
	for {
		srv.SetReadDeadline(w.Clock.Now().Add(100 * time.Millisecond))
		n, _, err := srv.ReadFrom(buf)
		if err != nil {
			break
		}
		got = append(got, buf[:n]...)
	}
	w.Net.mu.Lock()
	held := len(w.Net.links[cli.LocalAddr().String()+">"+srv.LocalAddr().String()].held)
	w.Net.mu.Unlock()
	return got, w.Net.LinkStats(cli.LocalAddr(), srv.LocalAddr()), held
}

func TestNetworkFaultsDeterministicAcrossRuns(t *testing.T) {
	// The schedules of seeds 42 and 43, recorded before the fabric and
	// the chaos proxy shared one fault core: the delivered payload
	// sequence and Sent/Delivered/Dropped/Reordered must never move.
	// Duped is not pinned from that recording: it then also counted
	// duplicates a reorder hold threw away.
	pinned := map[int64]struct {
		got   []byte
		stats LinkStats
	}{
		42: {[]byte{0x2, 0x4, 0x5, 0x6, 0x9, 0xa, 0xb, 0xc, 0xc, 0xd, 0xd, 0x10, 0x12, 0x11, 0x14, 0x17, 0x15,
			0x16, 0x17, 0x1a, 0x18, 0x19, 0x1b, 0x1b, 0x1c, 0x1d, 0x1f, 0x1f, 0x22, 0x20, 0x24, 0x23, 0x26, 0x25,
			0x26, 0x27, 0x28, 0x29, 0x2a, 0x2b, 0x2d, 0x2e, 0x35, 0x34, 0x38, 0x37, 0x3a, 0x3b, 0x3d, 0x3f, 0x3f},
			LinkStats{Sent: 64, Delivered: 51, Dropped: 20, Reordered: 10}},
		43: {[]byte{0x0, 0x1, 0x5, 0x2, 0x4, 0x9, 0x9, 0xa, 0xc, 0xd, 0x11, 0xe, 0x10, 0x12, 0x12, 0x13, 0x13,
			0x14, 0x14, 0x15, 0x16, 0x17, 0x19, 0x1a, 0x1f, 0x1b, 0x21, 0x24, 0x22, 0x23, 0x24, 0x25, 0x27, 0x28,
			0x28, 0x2a, 0x2b, 0x2d, 0x2c, 0x30, 0x31, 0x32, 0x35, 0x33, 0x34, 0x37, 0x3a, 0x3b, 0x3b, 0x3c, 0x3e, 0x3f},
			LinkStats{Sent: 64, Delivered: 52, Dropped: 19, Reordered: 10}},
	}
	for _, seed := range []int64{42, 43} {
		a, sa, held := faultTrace(t, seed)
		b, sb, _ := faultTrace(t, seed)
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: runs delivered %x vs %x", seed, a, b)
		}
		if sa != sb {
			t.Fatalf("seed %d: stats differ: %+v vs %+v", seed, sa, sb)
		}
		if sa.Dropped == 0 || sa.Duped == 0 || sa.Reordered == 0 {
			t.Fatalf("seed %d: fault schedule inert: %+v", seed, sa)
		}
		want := pinned[seed]
		if !bytes.Equal(a, want.got) {
			t.Errorf("seed %d: delivered %x, pinned %x", seed, a, want.got)
		}
		if got := (LinkStats{Sent: sa.Sent, Delivered: sa.Delivered, Dropped: sa.Dropped, Reordered: sa.Reordered}); got != want.stats {
			t.Errorf("seed %d: stats %+v, pinned %+v", seed, got, want.stats)
		}
		// Every copy put on the wire arrived or is still held.
		if sa.Delivered+uint64(held) != sa.Sent-sa.Dropped+sa.Duped {
			t.Errorf("seed %d: delivered %d + held %d != sent %d - dropped %d + duped %d",
				seed, sa.Delivered, held, sa.Sent, sa.Dropped, sa.Duped)
		}
	}
	a, _, _ := faultTrace(t, 42)
	c, _, _ := faultTrace(t, 43)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestPacketConnCloseUnblocksReader(t *testing.T) {
	w := NewWorld(3)
	defer w.Close()
	srv, _ := w.Net.Listen("")
	errc := make(chan error, 1)
	go func() {
		buf := make([]byte, 8)
		_, _, err := srv.ReadFrom(buf)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // real: let the reader block
	srv.Close()
	select {
	case err := <-errc:
		if err != net.ErrClosed {
			t.Fatalf("want net.ErrClosed, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock ReadFrom")
	}
}
