package sim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"liquidarch/internal/netproto"
	"liquidarch/internal/tracing"
)

// pkt builds a marshalled control packet carrying cmd, so scripted
// rules (which match on the command label) can see it.
func pkt(cmd uint8, body ...byte) []byte {
	return netproto.Packet{Command: cmd, Body: body}.Marshal()
}

// script parses s and returns its up rules, failing the test on error.
func script(t *testing.T, s string) []Rule {
	t.Helper()
	up, _, err := ParseScript(s)
	if err != nil {
		t.Fatal(err)
	}
	return up
}

// sendSeq runs n packets through a fresh link and returns a compact
// transcript of what came out — the determinism fingerprint.
func sendSeq(seed int64, p LinkParams, n int) string {
	l := NewLink("up", seed, p)
	var out bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&out, "%d:", i)
		for _, d := range l.Send(pkt(netproto.CmdStatus, byte(i), byte(i>>8))) {
			fmt.Fprintf(&out, " %v=%x", d.After, d.Payload)
		}
		out.WriteByte('\n')
	}
	fmt.Fprintf(&out, "flush %x\n", l.Flush())
	return out.String()
}

func TestLinkDeterministic(t *testing.T) {
	p := LinkParams{Drop: 0.2, Dup: 0.1, Reorder: 0.15, Truncate: 0.1,
		Latency: time.Millisecond, Jitter: 4 * time.Millisecond}
	a := sendSeq(42, p, 500)
	if b := sendSeq(42, p, 500); a != b {
		t.Fatalf("same seed produced different fault sequences")
	}
	if c := sendSeq(43, p, 500); a == c {
		t.Fatalf("different seeds produced identical fault sequences")
	}
}

func TestLinksDoNotMirror(t *testing.T) {
	p := LinkParams{Drop: 0.5}
	up, down := NewLink("up", 7, p), NewLink("down", 7, p)
	same := 0
	const n = 200
	for i := 0; i < n; i++ {
		if (len(up.Send(pkt(netproto.CmdStatus))) == 0) == (len(down.Send(pkt(netproto.CmdStatus))) == 0) {
			same++
		}
	}
	if same == n {
		t.Fatalf("up and down links mirrored all %d decisions", n)
	}
}

func TestDropRateApproximate(t *testing.T) {
	l := NewLink("up", 1, LinkParams{Drop: 0.2})
	const n = 10000
	for i := 0; i < n; i++ {
		l.Send(pkt(netproto.CmdStatus))
	}
	if st := l.Stats(); st.Dropped < n/10 || st.Dropped > 3*n/10 {
		t.Fatalf("drop rate 0.2 dropped %d/%d packets", st.Dropped, n)
	}
}

func TestReorderSwapsAdjacent(t *testing.T) {
	// The held first packet rides out right behind the second.
	l := NewLink("up", 1, LinkParams{Script: script(t, "up:status@1=reorder")})
	p1, p2 := pkt(netproto.CmdStatus, 1), pkt(netproto.CmdStatus, 2)
	if out := l.Send(p1); len(out) != 0 {
		t.Fatalf("first packet should be held, got %d payloads", len(out))
	}
	out := l.Send(p2)
	if len(out) != 2 || !bytes.Equal(out[0].Payload, p2) || !bytes.Equal(out[1].Payload, p1) {
		t.Fatalf("expected swapped order [p2 p1], got %v", out)
	}
}

func TestDupDelivesTwice(t *testing.T) {
	l := NewLink("up", 1, LinkParams{Dup: 1})
	p := pkt(netproto.CmdStatus, 9)
	out := l.Send(p)
	if len(out) != 2 || !bytes.Equal(out[0].Payload, p) || !bytes.Equal(out[1].Payload, p) {
		t.Fatalf("dup=1 should deliver twice, got %v", out)
	}
}

func TestSendCopiesInput(t *testing.T) {
	l := NewLink("up", 1, LinkParams{})
	buf := pkt(netproto.CmdStatus, 7)
	out := l.Send(buf)
	want := append([]byte(nil), buf...)
	for i := range buf {
		buf[i] = 0xEE // caller reuses its buffer
	}
	if len(out) != 1 || !bytes.Equal(out[0].Payload, want) {
		t.Fatalf("link aliased the caller's buffer")
	}
}

func TestFlushReleasesHeld(t *testing.T) {
	l := NewLink("up", 1, LinkParams{Reorder: 1})
	p := pkt(netproto.CmdStatus, 3)
	l.Send(p)
	if got := l.Flush(); len(got) != 1 || !bytes.Equal(got[0], p) {
		t.Fatalf("flush returned %x, want held packet", got)
	}
	if got := l.Flush(); got != nil {
		t.Fatalf("second flush returned %x, want nil", got)
	}
}

func TestValidateRejectsBadRates(t *testing.T) {
	if err := (LinkParams{Drop: 1.5}).Validate(); err == nil {
		t.Fatalf("drop=1.5 validated")
	}
	if err := (LinkParams{Truncate: -0.1}).Validate(); err == nil {
		t.Fatalf("truncate=-0.1 validated")
	}
	if err := (LinkParams{Latency: -time.Second}).Validate(); err == nil {
		t.Fatalf("negative latency validated")
	}
	if err := (LinkParams{Drop: 0.2, Dup: 1, Jitter: time.Millisecond}).Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

func TestScriptedRuleOverridesRandom(t *testing.T) {
	// Random rates say drop everything; the scripted dup rule wins for
	// its command.
	l := NewLink("up", 1, LinkParams{Drop: 1, Script: script(t, "up:start=dup")})
	if out := l.Send(pkt(netproto.CmdStartLEON)); len(out) != 2 {
		t.Fatalf("scripted dup should override random drop, got %d payloads", len(out))
	}
	if out := l.Send(pkt(netproto.CmdStatus)); len(out) != 0 {
		t.Fatalf("unscripted command should still hit the random drop")
	}
}

// survivors sends n packets of cmd through l and lists the 1-based
// indices that came out.
func survivors(l *Link, cmd uint8, n int) []int {
	var got []int
	for i := 1; i <= n; i++ {
		if len(l.Send(pkt(cmd))) > 0 {
			got = append(got, i)
		}
	}
	return got
}

func TestScriptNthSemantics(t *testing.T) {
	l := NewLink("up", 1, LinkParams{Script: script(t, "up:load@3=drop")})
	if got, want := fmt.Sprint(survivors(l, netproto.CmdLoadProgram, 5)), fmt.Sprint([]int{1, 2, 4, 5}); got != want {
		t.Fatalf("@3 drop: survived %v, want %v", got, want)
	}
}

func TestScriptFromSemantics(t *testing.T) {
	l := NewLink("up", 1, LinkParams{Script: script(t, "up:load@3+=drop")})
	if got := fmt.Sprint(survivors(l, netproto.CmdLoadProgram, 6)); got != fmt.Sprint([]int{1, 2}) {
		t.Fatalf("@3+ drop: survived %v, want [1 2]", got)
	}
}

func TestScriptDirectionIsolated(t *testing.T) {
	upRules, downRules, err := ParseScript("down:result@1=drop")
	if err != nil {
		t.Fatal(err)
	}
	up := NewLink("up", 1, LinkParams{Script: upRules})
	if out := up.Send(pkt(netproto.CmdResult)); len(out) != 1 {
		t.Fatalf("down rule fired in the up direction")
	}
	down := NewLink("down", 1, LinkParams{Script: downRules})
	if out := down.Send(pkt(netproto.CmdResult | netproto.RespFlag)); len(out) != 0 {
		t.Fatalf("down rule missed the first result response")
	}
}

func TestScriptTruncAndDelay(t *testing.T) {
	l := NewLink("up", 1, LinkParams{Latency: time.Millisecond,
		Script: script(t, "up:writemem=trunc:3, up:readmem=delay:40ms")})
	out := l.Send(pkt(netproto.CmdWriteMemory, 1, 2, 3, 4))
	if len(out) != 1 || len(out[0].Payload) != 3 {
		t.Fatalf("trunc:3 gave %v", out)
	}
	out = l.Send(pkt(netproto.CmdReadMemory))
	if len(out) != 1 || out[0].After != 41*time.Millisecond {
		t.Fatalf("delay:40ms over 1ms latency gave %v", out)
	}
	if st := l.Stats(); st.Truncated != 1 || st.Delayed != 1 {
		t.Fatalf("stats %+v, want one truncation and one delay", st)
	}
}

func TestRandomTruncateKeepsPrefix(t *testing.T) {
	l := NewLink("up", 1, LinkParams{Truncate: 1})
	p := pkt(netproto.CmdWriteMemory, 1, 2, 3, 4, 5, 6, 7, 8)
	for i := 0; i < 100; i++ {
		out := l.Send(p)
		if len(out) != 1 || len(out[0].Payload) >= len(p) || !bytes.HasPrefix(p, out[0].Payload) {
			t.Fatalf("truncate=1 gave %v", out)
		}
	}
	if st := l.Stats(); st.Truncated != 100 {
		t.Fatalf("truncated %d of 100", st.Truncated)
	}
}

func TestJitterBounds(t *testing.T) {
	l := NewLink("up", 1, LinkParams{Latency: 2 * time.Millisecond, Jitter: 6 * time.Millisecond})
	for i := 0; i < 200; i++ {
		out := l.Send(pkt(netproto.CmdStatus))
		if len(out) != 1 {
			t.Fatalf("packet %d: %d deliveries", i, len(out))
		}
		if d := out[0].After; d < 2*time.Millisecond || d >= 8*time.Millisecond {
			t.Fatalf("delay %v outside [2ms,8ms)", d)
		}
	}
}

func TestParseScriptErrors(t *testing.T) {
	for _, bad := range []string{
		"load=drop",          // missing direction
		"sideways:load=drop", // bad direction
		"up:=drop",           // empty command
		"up:load",            // missing '='
		"up:load=explode",    // unknown action
		"up:load@0=drop",     // occurrence < 1
		"up:load@x=drop",     // non-numeric occurrence
		"up:load=trunc:-1",   // negative byte count
		"up:load=trunc:zz",   // non-numeric byte count
		"up:load=delay:soon", // bad duration
	} {
		if _, _, err := ParseScript(bad); err == nil {
			t.Errorf("ParseScript(%q) accepted", bad)
		}
	}
	if up, down, err := ParseScript("  "); err != nil || up != nil || down != nil {
		t.Errorf("blank script: up=%v down=%v err=%v", up, down, err)
	}
	up, down, err := ParseScript("up:load@3=drop, down:start=dup")
	if err != nil || len(up) != 1 || len(down) != 1 {
		t.Fatalf("two-rule script: up=%v down=%v err=%v", up, down, err)
	}
	if up[0].Action.String() != "drop" || down[0].Action.String() != "dup" {
		t.Fatalf("actions %v/%v", up[0].Action, down[0].Action)
	}
}

func TestNonLiquidPayloadBypassesScript(t *testing.T) {
	l := NewLink("up", 1, LinkParams{Script: script(t, "up:status=drop")})
	raw := []byte("not a control packet")
	if out := l.Send(raw); len(out) != 1 || !bytes.Equal(out[0].Payload, raw) {
		t.Fatalf("non-Liquid payload should pass untouched")
	}
}

func TestFaultAnnotatesTrace(t *testing.T) {
	col := tracing.New("chaos")
	l := NewLink("up", 1, LinkParams{Tracer: col, Script: script(t, "up:status=drop")})
	traced := netproto.Packet{Command: netproto.CmdStatus, HasTrace: true, TraceID: 0xabc}.Marshal()
	l.Send(traced)
	l.Send(pkt(netproto.CmdStatus)) // no trace id: unannotated
	var events []string
	for _, td := range col.TakeTrace(0xabc) {
		for _, sp := range td.Spans {
			events = append(events, sp.Name)
		}
	}
	if fmt.Sprint(events) != "[fault:drop]" {
		t.Fatalf("trace 0xabc holds %v, want [fault:drop]", events)
	}
}
