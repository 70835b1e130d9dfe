// Package chaos is the UDP transport of the platform's one fault core.
// The paper's control plane drives LEON boards over the open Internet
// via UDP (§2.6) — a transport that drops, duplicates, reorders,
// delays and truncates — and Proxy reproduces exactly those faults on
// demand, from a pinned seed, between a real client and a real server
// (integration tests, and the liquid-chaos command for soaking a
// deployment). The fault decisions themselves are sim.Link's, the same
// engine the in-memory fabric (sim.Network) runs, so one seed means
// one fault model on either transport.
//
// Determinism: each direction is one sim.Link, named "up" and "down",
// seeded with Seed ^ fnv64a(name), drawn in packet-arrival order. With
// a fixed seed and a serial packet stream the injected fault sequence
// is bit-identical across runs; with concurrent clients the draw order
// follows arrival order, so the aggregate rates still hold and every
// injected fault is still counted in the metrics registry.
package chaos

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"liquidarch/internal/metrics"
	"liquidarch/internal/sim"
)

// Config assembles a proxy: a seed, the fault parameters of the up
// (client→server, requests) and down (server→client, responses)
// links, and an optional metrics registry receiving the injection
// counters.
type Config struct {
	Seed     int64
	Up, Down sim.LinkParams
	Registry *metrics.Registry // nil → uncounted (nil-safe instruments)
}

// direction is one half of the relay: its fault link and counters,
// behind one mutex so decisions are drawn in arrival order.
type direction struct {
	mu       sync.Mutex
	name     string
	link     *sim.Link
	packets  *metrics.Counter
	injected *metrics.CounterVec
}

func newDirection(name string, seed int64, p sim.LinkParams, reg *metrics.Registry) *direction {
	return &direction{
		name:     name,
		link:     sim.NewLink(name, seed, p),
		packets:  reg.CounterVec("liquid_chaos_packets_total", "Packets entering the chaos layer, by direction.", "dir").With(name),
		injected: reg.CounterVec("liquid_chaos_injected_total", "Faults injected by the chaos layer, by dir_event.", "event"),
	}
}

// send runs one datagram through the link and counts the faults it
// injected.
func (d *direction) send(p []byte) []sim.Delivery {
	d.mu.Lock()
	defer d.mu.Unlock()
	before := d.link.Stats()
	out := d.link.Send(p)
	after := d.link.Stats()
	d.packets.Inc()
	for _, f := range [...]struct {
		event string
		n     uint64
	}{
		{"drop", after.Dropped - before.Dropped},
		{"dup", after.Duped - before.Duped},
		{"reorder", after.Reordered - before.Reordered},
		{"truncate", after.Truncated - before.Truncated},
		{"delay", after.Delayed - before.Delayed},
	} {
		if f.n > 0 {
			d.injected.With(d.name + "_" + f.event).Add(f.n)
		}
	}
	return out
}

func (d *direction) flush() [][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.link.Flush()
}

// Proxy is a standalone UDP chaos relay: clients send control packets
// to the proxy's listen address, the proxy forwards them to the target
// server through the up link, and relays responses back through the
// down link. One proxy serves any number of concurrent clients, each
// over its own upstream socket so the server still sees one source
// address per client.
//
// This is the same layer the liquid-chaos command runs between a real
// liquidctl and a real liquid-server; tests embed it in-process.
type Proxy struct {
	listen *net.UDPConn
	target *net.UDPAddr
	up     *direction
	down   *direction

	mu       sync.Mutex
	sessions map[string]*session
	closed   bool
	wg       sync.WaitGroup
}

// session is one client's relay state.
type session struct {
	peer *net.UDPAddr // the client, on the listen socket
	out  *net.UDPConn // our socket toward the target
}

// NewProxy binds listenAddr (e.g. "127.0.0.1:0") and relays to
// targetAddr with the configured faults.
func NewProxy(listenAddr, targetAddr string, cfg Config) (*Proxy, error) {
	if err := cfg.Up.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Down.Validate(); err != nil {
		return nil, err
	}
	la, err := net.ResolveUDPAddr("udp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("chaos: listen addr: %w", err)
	}
	ta, err := net.ResolveUDPAddr("udp", targetAddr)
	if err != nil {
		return nil, fmt.Errorf("chaos: target addr: %w", err)
	}
	conn, err := net.ListenUDP("udp", la)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	px := &Proxy{
		listen:   conn,
		target:   ta,
		up:       newDirection("up", cfg.Seed, cfg.Up, cfg.Registry),
		down:     newDirection("down", cfg.Seed, cfg.Down, cfg.Registry),
		sessions: make(map[string]*session),
	}
	return px, nil
}

// Addr returns the bound listen address — point clients here.
func (p *Proxy) Addr() *net.UDPAddr { return p.listen.LocalAddr().(*net.UDPAddr) }

// Serve relays datagrams until Close, returning nil on clean shutdown.
func (p *Proxy) Serve() error {
	buf := make([]byte, 64<<10)
	var err error
	for {
		n, peer, rerr := p.listen.ReadFromUDP(buf)
		if rerr != nil {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if !closed && !errors.Is(rerr, net.ErrClosed) {
				err = fmt.Errorf("chaos: read: %w", rerr)
			}
			break
		}
		s, serr := p.sessionFor(peer)
		if serr != nil {
			continue // cannot relay for this peer; drop like the network would
		}
		p.relay(p.up.send(buf[:n]), func(b []byte) { s.out.Write(b) }) //nolint:errcheck // lossy by design
	}
	p.wg.Wait()
	return err
}

// sessionFor returns (or creates) the relay session for a client.
func (p *Proxy) sessionFor(peer *net.UDPAddr) (*session, error) {
	key := peer.String()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("chaos: proxy closed")
	}
	if s, ok := p.sessions[key]; ok {
		return s, nil
	}
	out, err := net.DialUDP("udp", nil, p.target)
	if err != nil {
		return nil, err
	}
	s := &session{peer: peer, out: out}
	p.sessions[key] = s
	p.wg.Add(1)
	go p.downstream(s)
	return s, nil
}

// downstream relays one client's responses back through the down
// link.
func (p *Proxy) downstream(s *session) {
	defer p.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, err := s.out.Read(buf)
		if err != nil {
			return
		}
		p.relay(p.down.send(buf[:n]), func(b []byte) { p.listen.WriteToUDP(b, s.peer) }) //nolint:errcheck // lossy by design
	}
}

// relay writes a link's deliveries: undelayed ones now, the rest from
// timers.
func (p *Proxy) relay(out []sim.Delivery, write func([]byte)) {
	for _, d := range out {
		if d.After <= 0 {
			write(d.Payload)
			continue
		}
		p.wg.Add(1)
		sim.Real.AfterFunc(d.After, func() {
			defer p.wg.Done()
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if !closed {
				write(d.Payload)
			}
		})
	}
}

// Flush releases any reorder-held packets immediately (tail of a
// scripted exchange).
func (p *Proxy) Flush() {
	p.mu.Lock()
	sessions := make([]*session, 0, len(p.sessions))
	for _, s := range p.sessions {
		sessions = append(sessions, s)
	}
	p.mu.Unlock()
	up, down := p.up.flush(), p.down.flush()
	if len(sessions) == 0 {
		return
	}
	for _, b := range up {
		sessions[0].out.Write(b) //nolint:errcheck
	}
	for _, b := range down {
		p.listen.WriteToUDP(b, sessions[0].peer) //nolint:errcheck
	}
}

// Close tears the proxy down; Serve returns afterwards.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	sessions := p.sessions
	p.sessions = make(map[string]*session)
	p.mu.Unlock()
	for _, s := range sessions {
		s.out.Close()
	}
	return p.listen.Close()
}
