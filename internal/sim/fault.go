package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"liquidarch/internal/netproto"
	"liquidarch/internal/tracing"
)

// LinkParams are the seedable fault characteristics of one directed
// link. Probabilities are in [0,1]; Latency/Jitter are delays applied
// to every delivered datagram. The same parameters drive both
// transports: the in-memory fabric (Network) and the UDP chaos proxy.
type LinkParams struct {
	Drop    float64
	Dup     float64
	Reorder float64
	// Truncate cuts the datagram to a random prefix (possibly shorter
	// than the control header), exercising every parser's truncation
	// path.
	Truncate float64
	Latency  time.Duration
	Jitter   time.Duration
	// DupDelay is extra latency added to the duplicated copy of a
	// datagram, making the duplicate arrive *late* — after the original
	// exchange has long completed. Late duplicates are exactly what the
	// server's dedup window exists for: a stale replayed request must be
	// re-acked from the window, never re-executed.
	DupDelay time.Duration
	// Script holds surgical rules (see ParseScript) matched against
	// each control packet before the random rates; a matching rule
	// replaces the random draws for that packet.
	Script []Rule
	// Tracer, when set, annotates every injected fault into the
	// exchange trace named by the datagram it hit: a packet carrying a
	// v4 trace id gets a zero-length "fault:<event>" span (dir and cmd
	// attrs) in that trace. Packets without a trace id are unannotated.
	Tracer *tracing.Collector
}

// Validate rejects out-of-range fault rates and negative delays.
func (p LinkParams) Validate() error {
	for _, v := range []struct {
		name string
		p    float64
	}{{"drop", p.Drop}, {"dup", p.Dup}, {"reorder", p.Reorder}, {"truncate", p.Truncate}} {
		if v.p < 0 || v.p > 1 {
			return fmt.Errorf("sim: %s rate %v outside [0,1]", v.name, v.p)
		}
	}
	if p.Latency < 0 || p.Jitter < 0 || p.DupDelay < 0 {
		return fmt.Errorf("sim: negative latency, jitter or dup delay")
	}
	return nil
}

// LinkStats counts what a directed link actually did to traffic.
// Duped counts only copies put on the wire (a duplicate whose original
// a reorder then holds is never sent), so after quiescence
// Delivered + held == Sent − Dropped + Duped. Delivered is counted by
// the fabric on arrival; the proxy leaves it zero.
type LinkStats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	Duped     uint64
	Reordered uint64
	Truncated uint64
	Delayed   uint64 // scripted delay:D rules that fired
}

// Delivery is one datagram a link puts on the wire, After from now.
type Delivery struct {
	Payload []byte
	After   time.Duration
}

// Link is the one fault engine: one directed path's parameters, its
// seeded RNG, the script's occurrence counters, the reorder hold and
// the counters. It is not safe for concurrent use; callers serialise.
type Link struct {
	name   string
	params LinkParams
	rng    *rand.Rand
	seen   []int    // per-rule occurrence counters, parallel to params.Script
	held   [][]byte // datagrams delayed by a reorder decision
	stats  LinkStats
}

// NewLink builds the link named name. Its RNG is seeded with
// seed ^ fnv64a(name), so links of one seed never mirror each other
// and the fault schedule is a pure function of (seed, name, packet
// order).
func NewLink(name string, seed int64, p LinkParams) *Link {
	h := fnv.New64a()
	h.Write([]byte(name))
	l := &Link{name: name, rng: rand.New(rand.NewSource(seed ^ int64(h.Sum64())))}
	l.setParams(p)
	return l
}

// setParams replaces the link's parameters, restarting the script's
// occurrence counters.
func (l *Link) setParams(p LinkParams) {
	l.params = p
	l.seen = make([]int, len(p.Script))
}

// Stats returns a copy of the link's fault counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Send runs the fault decision for one datagram and returns what goes
// on the wire, in order: the datagram itself, then every datagram a
// reorder held (they ride behind it), then its duplicate. None means
// the datagram was dropped or held. The input is copied: callers may
// reuse their buffer.
//
// Random draws go drop, truncate, dup, reorder, jitter, each guarded by
// its rate being non-zero, so a fault mix that leaves a rate at zero
// keeps the schedule of the mixes without it.
func (l *Link) Send(payload []byte) []Delivery {
	p := append([]byte(nil), payload...)
	l.stats.Sent++
	r := l.params
	var drop, dup, hold bool
	var extra time.Duration
	if rule := l.match(p); rule != nil {
		switch rule.Action {
		case ActDrop:
			drop = true
		case ActDup:
			dup = true
		case ActReorder:
			hold = true
		case ActTruncate:
			l.fault("truncate", p)
			l.stats.Truncated++
			p = p[:min(int(rule.Arg), len(p))]
		case ActDelay:
			l.fault("delay", p)
			l.stats.Delayed++
			extra = time.Duration(rule.Arg)
		}
	} else {
		drop = r.Drop > 0 && l.rng.Float64() < r.Drop
		if !drop && r.Truncate > 0 && l.rng.Float64() < r.Truncate && len(p) > 0 {
			l.fault("truncate", p)
			l.stats.Truncated++
			p = p[:l.rng.Intn(len(p))]
		}
		dup = !drop && r.Dup > 0 && l.rng.Float64() < r.Dup
		hold = !drop && r.Reorder > 0 && l.rng.Float64() < r.Reorder
	}
	switch {
	case drop:
		l.fault("drop", p)
		l.stats.Dropped++
		return nil
	case hold:
		// Held: it rides behind the next datagram that passes. A
		// duplicate drawn for it is never sent.
		l.fault("reorder", p)
		l.stats.Reordered++
		l.held = append(l.held, p)
		return nil
	}
	delay := r.Latency
	if r.Jitter > 0 {
		delay += time.Duration(l.rng.Int63n(int64(r.Jitter)))
	}
	out := make([]Delivery, 0, 2+len(l.held))
	out = append(out, Delivery{Payload: p, After: delay + extra})
	for _, h := range l.held {
		out = append(out, Delivery{Payload: h, After: delay})
	}
	l.held = nil
	if dup {
		l.fault("dup", p)
		l.stats.Duped++
		out = append(out, Delivery{Payload: p, After: delay + r.DupDelay})
	}
	return out
}

// Flush releases every reorder-held datagram, in hold order — for a
// stream that is closing, so a swap at the tail is not silently lost.
func (l *Link) Flush() [][]byte {
	held := l.held
	l.held = nil
	return held
}

// match finds the first script rule matching this datagram, advancing
// the occurrence counter of every rule for its command up to that one.
// Non-Liquid payloads match no rule.
func (l *Link) match(p []byte) *Rule {
	if len(l.params.Script) == 0 {
		return nil
	}
	pkt, err := netproto.ParsePacket(p)
	if err != nil {
		return nil
	}
	cmd := netproto.CommandName(pkt.Command)
	for i := range l.params.Script {
		r := &l.params.Script[i]
		if r.Cmd != cmd {
			continue
		}
		l.seen[i]++
		if r.Nth == 0 || l.seen[i] == r.Nth || r.From && l.seen[i] >= r.Nth {
			return r
		}
	}
	return nil
}

// fault annotates one injected fault into the trace of the datagram it
// hit, when a Tracer is set. p is the payload as it looked when the
// decision was drawn.
func (l *Link) fault(event string, p []byte) {
	if l.params.Tracer == nil {
		return
	}
	pkt, err := netproto.ParsePacket(p)
	if err != nil || !pkt.HasTrace || pkt.TraceID == 0 {
		return
	}
	l.params.Tracer.Trace(pkt.TraceID).Event("fault:"+event,
		tracing.A("dir", l.name),
		tracing.A("cmd", netproto.CommandName(pkt.Command)))
}

// Action is a scripted fault.
type Action uint8

// Scripted actions.
const (
	ActDrop Action = iota
	ActDup
	ActReorder
	ActTruncate // Arg = bytes to keep
	ActDelay    // Arg = nanoseconds, on top of the link latency
)

func (a Action) String() string {
	switch a {
	case ActDrop:
		return "drop"
	case ActDup:
		return "dup"
	case ActReorder:
		return "reorder"
	case ActTruncate:
		return "trunc"
	case ActDelay:
		return "delay"
	default:
		return fmt.Sprintf("Action(%d)", uint8(a))
	}
}

// Rule is one surgical fault: the Nth datagram on a link (1-based;
// 0 = every, From = Nth and onward) carrying control command Cmd
// (netproto.CommandName label, e.g. "load", "start", "result") suffers
// Action. Rules let a test say "drop the 3rd load chunk" or "dup every
// start ack" exactly, with no randomness at all.
type Rule struct {
	Cmd    string
	Nth    int
	From   bool // apply from the Nth occurrence onward
	Action Action
	Arg    int64 // truncate: bytes kept; delay: nanoseconds
}

// ParseScript parses the fault-script mini-DSL: comma-separated rules
// of the form
//
//	dir:cmd[@n[+]]=action[:arg]
//
// where dir is up (client→server) or down (server→client), cmd is a
// control command label ("status", "load", "start", "readmem",
// "writemem", "reconfigure", "getconfig", "trace", "stats", "result",
// "traces", "wait", "reconfigstatus", "waitreconfig", "error"), @n
// selects the nth matching packet (append + for "nth onward"; omit for
// every), and action is drop | dup | reorder | trunc:BYTES |
// delay:DURATION. The rules come back split by direction, ready for
// the Script of the up and down links.
//
// Examples:
//
//	up:load@3=drop          drop the 3rd load chunk the client sends
//	down:start=dup          duplicate every start ack
//	up:load@4+=drop         black-hole the load from chunk 4 onward
//	down:result@1=delay:50ms  delay the first result response
func ParseScript(s string) (up, down []Rule, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil, nil
	}
	for _, part := range strings.Split(s, ",") {
		isUp, r, err := parseRule(strings.TrimSpace(part))
		if err != nil {
			return nil, nil, err
		}
		if isUp {
			up = append(up, r)
		} else {
			down = append(down, r)
		}
	}
	return up, down, nil
}

func parseRule(s string) (up bool, r Rule, err error) {
	lhs, rhs, ok := strings.Cut(s, "=")
	if !ok {
		return false, r, fmt.Errorf("sim: rule %q: missing '='", s)
	}
	dirStr, cmdStr, ok := strings.Cut(lhs, ":")
	if !ok {
		return false, r, fmt.Errorf("sim: rule %q: missing direction", s)
	}
	switch dirStr {
	case "up":
		up = true
	case "down":
	default:
		return false, r, fmt.Errorf("sim: rule %q: direction %q (want up|down)", s, dirStr)
	}
	if cmd, nth, ok := strings.Cut(cmdStr, "@"); ok {
		cmdStr = cmd
		if strings.HasSuffix(nth, "+") {
			r.From = true
			nth = strings.TrimSuffix(nth, "+")
		}
		n, err := strconv.Atoi(nth)
		if err != nil || n < 1 {
			return false, r, fmt.Errorf("sim: rule %q: bad occurrence %q", s, nth)
		}
		r.Nth = n
	}
	if cmdStr == "" {
		return false, r, fmt.Errorf("sim: rule %q: empty command", s)
	}
	r.Cmd = cmdStr

	act, arg, _ := strings.Cut(rhs, ":")
	switch act {
	case "drop":
		r.Action = ActDrop
	case "dup":
		r.Action = ActDup
	case "reorder":
		r.Action = ActReorder
	case "trunc":
		n, err := strconv.Atoi(arg)
		if err != nil || n < 0 {
			return false, r, fmt.Errorf("sim: rule %q: trunc wants a byte count", s)
		}
		r.Action, r.Arg = ActTruncate, int64(n)
	case "delay":
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return false, r, fmt.Errorf("sim: rule %q: delay wants a duration: %v", s, err)
		}
		r.Action, r.Arg = ActDelay, int64(d)
	default:
		return false, r, fmt.Errorf("sim: rule %q: action %q (want drop|dup|reorder|trunc:N|delay:D)", s, act)
	}
	return up, r, nil
}
