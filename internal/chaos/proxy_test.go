package chaos

import (
	"bytes"
	"net"
	"testing"
	"time"

	"liquidarch/internal/metrics"
	"liquidarch/internal/netproto"
	"liquidarch/internal/sim"
)

// pkt builds a marshalled control packet carrying cmd, so scripted
// rules (which match on the command label) can see it.
func pkt(cmd uint8, body ...byte) []byte {
	return netproto.Packet{Command: cmd, Body: body}.Marshal()
}

// upScript parses s and returns its up rules.
func upScript(t *testing.T, s string) []sim.Rule {
	t.Helper()
	up, _, err := sim.ParseScript(s)
	if err != nil {
		t.Fatal(err)
	}
	return up
}

// echoServer runs a UDP server that echoes every datagram back with a
// one-byte 0xEE prefix (so a test can tell request from response).
func echoServer(t *testing.T) *net.UDPAddr {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, peer, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			resp := append([]byte{0xEE}, buf[:n]...)
			conn.WriteToUDP(resp, peer) //nolint:errcheck
		}
	}()
	return conn.LocalAddr().(*net.UDPAddr)
}

// startProxy builds and serves a proxy, wired for cleanup.
func startProxy(t *testing.T, target string, cfg Config) *Proxy {
	t.Helper()
	p, err := NewProxy("127.0.0.1:0", target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Serve() }()
	t.Cleanup(func() {
		p.Close()
		if err := <-done; err != nil {
			t.Errorf("proxy serve: %v", err)
		}
	})
	return p
}

func TestProxyRelaysBothWays(t *testing.T) {
	target := echoServer(t)
	p := startProxy(t, target.String(), Config{Seed: 1})
	client, err := net.DialUDP("udp", nil, p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	msg := pkt(netproto.CmdStatus, 0x42)
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := client.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], append([]byte{0xEE}, msg...)) {
		t.Fatalf("echo through proxy = %x", buf[:n])
	}
}

func TestProxyScriptedUpDrop(t *testing.T) {
	target := echoServer(t)
	reg := metrics.NewRegistry()
	p := startProxy(t, target.String(), Config{Seed: 1, Up: sim.LinkParams{Script: upScript(t, "up:status@1=drop")}, Registry: reg})
	client, err := net.DialUDP("udp", nil, p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// First request is scripted away: no echo.
	msg := pkt(netproto.CmdStatus)
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	client.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if n, err := client.Read(buf); err == nil {
		t.Fatalf("scripted-away request was echoed: %x", buf[:n])
	}
	// The retransmission (second occurrence) passes.
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := client.Read(buf); err != nil {
		t.Fatalf("retransmission lost too: %v", err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter(`liquid_chaos_injected_total{event="up_drop"}`); got != 1 {
		t.Fatalf("up_drop counter = %d, want 1", got)
	}
}

func TestProxyDelayedDelivery(t *testing.T) {
	target := echoServer(t)
	p := startProxy(t, target.String(), Config{Seed: 1, Up: sim.LinkParams{Script: upScript(t, "up:status=delay:30ms")}})
	client, err := net.DialUDP("udp", nil, p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	start := time.Now()
	if _, err := client.Write(pkt(netproto.CmdStatus)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := client.Read(buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("delayed packet arrived after only %v", elapsed)
	}
}

func TestProxyConcurrentClients(t *testing.T) {
	target := echoServer(t)
	p := startProxy(t, target.String(), Config{Seed: 1})
	for i := 0; i < 3; i++ {
		client, err := net.DialUDP("udp", nil, p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		msg := pkt(netproto.CmdStatus, byte(i))
		if _, err := client.Write(msg); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1024)
		client.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := client.Read(buf)
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if !bytes.Equal(buf[:n], append([]byte{0xEE}, msg...)) {
			t.Fatalf("client %d got %x", i, buf[:n])
		}
		client.Close()
	}
}

func TestProxyFlushReleasesHeld(t *testing.T) {
	target := echoServer(t)
	p := startProxy(t, target.String(), Config{Seed: 1, Up: sim.LinkParams{Script: upScript(t, "up:status@1=reorder")}})
	client, err := net.DialUDP("udp", nil, p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.Write(pkt(netproto.CmdStatus)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	client.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if _, err := client.Read(buf); err == nil {
		t.Fatalf("held packet was relayed before flush")
	}
	// Give the proxy loop time to register the session, then flush.
	p.Flush()
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := client.Read(buf); err != nil {
		t.Fatalf("flush did not release the held packet: %v", err)
	}
}

func TestProxyCloseIdempotent(t *testing.T) {
	target := echoServer(t)
	p, err := NewProxy("127.0.0.1:0", target.String(), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Serve() }()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve after close: %v", err)
	}
}

func TestProxyRejectsBadFaults(t *testing.T) {
	if _, err := NewProxy("127.0.0.1:0", "127.0.0.1:1", Config{Up: sim.LinkParams{Drop: 2}}); err == nil {
		t.Fatalf("NewProxy accepted drop=2")
	}
	if _, err := NewProxy("127.0.0.1:0", "127.0.0.1:1", Config{Down: sim.LinkParams{Dup: -1}}); err == nil {
		t.Fatalf("NewProxy accepted dup=-1")
	}
}

// TestInjectionMetrics: every packet entering a direction is counted,
// and every injected fault is counted under dir_event.
func TestInjectionMetrics(t *testing.T) {
	target := echoServer(t)
	reg := metrics.NewRegistry()
	p := startProxy(t, target.String(), Config{Seed: 1, Registry: reg,
		Up: sim.LinkParams{Drop: 1, Script: upScript(t, "up:start=dup")}})
	client, err := net.DialUDP("udp", nil, p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.Write(pkt(netproto.CmdStatus)); err != nil { // random drop
		t.Fatal(err)
	}
	if _, err := client.Write(pkt(netproto.CmdStartLEON)); err != nil { // scripted dup
		t.Fatal(err)
	}
	// Both echoes of the duplicated start come back; the dropped
	// status never does.
	buf := make([]byte, 1024)
	for i := 0; i < 2; i++ {
		client.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := client.Read(buf)
		if err != nil {
			t.Fatalf("echo %d: %v", i, err)
		}
		if !bytes.Equal(buf[:n], append([]byte{0xEE}, pkt(netproto.CmdStartLEON)...)) {
			t.Fatalf("echo %d = %x, want the start packet", i, buf[:n])
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counter(`liquid_chaos_packets_total{dir="up"}`); got != 2 {
		t.Fatalf("packets counter = %d, want 2", got)
	}
	if got := snap.Counter(`liquid_chaos_injected_total{event="up_drop"}`); got != 1 {
		t.Fatalf("drop counter = %d, want 1", got)
	}
	if got := snap.Counter(`liquid_chaos_injected_total{event="up_dup"}`); got != 1 {
		t.Fatalf("dup counter = %d, want 1", got)
	}
}
