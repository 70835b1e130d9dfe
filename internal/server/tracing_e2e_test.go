package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"liquidarch/internal/fpx"
	"liquidarch/internal/netproto"
	"liquidarch/internal/sim"
	"liquidarch/internal/tracing"
)

// spanCounts tallies span names per source in a Chrome export.
func spanCounts(t *testing.T, data []byte) (map[string]int, map[string]string) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Pid  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	procs := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			procs[ev.Pid] = ev.Args["name"]
		}
	}
	counts := map[string]int{}
	traceIDs := map[string]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		key := procs[ev.Pid] + "/" + ev.Name
		counts[key]++
		traceIDs[ev.Args["trace"]] = ev.Name
	}
	return counts, traceIDs
}

// TestTracedExchangeUnderChaos is the tracing acceptance test: a full
// traced session against a 2-board node behind a stormy fabric link
// (pinned seed, 20% loss + reorder + dup both ways) produces one merged
// Chrome timeline where the client's retries, the server's queue
// waits, the board's run slices and the fault core's annotations all
// share a single trace id — and the client's retry-span count equals
// its retries metric.
func TestTracedExchangeUnderChaos(t *testing.T) {
	iters := 50_000
	if raceEnabled || testing.Short() {
		iters = 20_000
	}
	obj := assembleAt(t, countProg(iters))
	const seed = 42

	// 2-board node, tracing enabled before the first datagram.
	w := sim.NewWorld(seed)
	t.Cleanup(w.Close)
	serverCol := tracing.New("server")
	addr := serveSimNode(t, w, serverCol,
		simBoard(t, w.Clock, [4]byte{10, 0, 0, 2}),
		simBoard(t, w.Clock, [4]byte{10, 0, 0, 3}))

	chaosCol := tracing.New("chaos")
	storm := simStorm()
	storm.Tracer = chaosCol
	c, _ := dialSim(t, w, addr, seed, storm)
	c.Board = 1
	clientCol := tracing.New("client")
	c.Tracer = clientCol
	c.TraceID = clientCol.NewTraceID()

	if err := c.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatalf("load: %v", err)
	}
	rep, err := c.Start(obj.Origin, 0)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	if rep.Status != netproto.StatusOK || rep.Cycles == 0 {
		t.Fatalf("report = %+v", rep)
	}
	retries := c.Metrics().Snapshot().Counters["liquid_client_retries_total"]
	if retries == 0 {
		t.Fatal("client never retried under 20% loss — test proved nothing")
	}

	// Let the world settle before merging the three vantage points: a
	// virtual sleep returns only after every delivery and timer due
	// before it has fired, on the virtual timeline.
	w.Clock.Sleep(50 * time.Millisecond)
	data, err := tracing.ChromeJSON(
		clientCol.TakeTrace(c.TraceID),
		serverCol.TakeTrace(c.TraceID),
		chaosCol.TakeTrace(c.TraceID),
	)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if _, err := tracing.ValidateChrome(data); err != nil {
		t.Fatalf("merged timeline invalid: %v", err)
	}

	counts, traceIDs := spanCounts(t, data)
	if len(traceIDs) != 1 {
		t.Errorf("merged export spans %d trace ids, want exactly 1: %v", len(traceIDs), traceIDs)
	}
	want := fmt.Sprintf("%016x", c.TraceID)
	for id := range traceIDs {
		if id != want {
			t.Errorf("span trace id %s != client id %s", id, want)
		}
	}
	if got := counts["client/retry"]; uint64(got) != retries {
		t.Errorf("retry spans = %d, retries metric = %d — they must agree", got, retries)
	}
	if counts["server/queue"] == 0 {
		t.Error("no server queue-wait spans in the merged timeline")
	}
	if counts["server/slice"] == 0 {
		t.Error("no board run-slice spans in the merged timeline")
	}
	faults := 0
	for key, n := range counts {
		if strings.HasPrefix(key, "chaos/fault:") {
			faults += n
		}
	}
	if faults == 0 {
		t.Error("no fault annotations in the merged timeline")
	}
}

// TestFlightRecordServesFailedExchange is the black-box acceptance
// path: after a forced CmdError, /debug/flightrecord returns a dump
// containing the failed exchange's trace.
func TestFlightRecordServesFailedExchange(t *testing.T) {
	boards := []*fpx.Platform{
		newBoard(t, [4]byte{10, 0, 0, 2}),
		newBoard(t, [4]byte{10, 0, 0, 3}),
	}
	srv, err := NewNode("127.0.0.1:0", boards...)
	if err != nil {
		t.Fatal(err)
	}
	col := tracing.New("server")
	srv.EnableTracing(col)
	fr := &tracing.FlightRecorder{
		Collectors: []*tracing.Collector{col},
		Events:     srv.Events(),
		Dir:        t.TempDir(),
	}
	srv.SetFlightRecorder(fr)
	addr := serveNode(t, srv)

	c := dial(t, addr)
	clientCol := tracing.New("client")
	c.Tracer = clientCol
	c.TraceID = clientCol.NewTraceID()

	// Start with nothing loaded → the platform answers CmdError and the
	// flight recorder dumps.
	if err := c.StartAsync(0, 10); err == nil {
		t.Fatal("start without load unexpectedly succeeded")
	}
	if fr.Dumps() != 1 {
		t.Fatalf("flight dumps = %d, want 1", fr.Dumps())
	}

	h := tracing.NewDebugHandler(nil, fr, srv.Events(), col)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flightrecord", nil))
	var dump tracing.FlightDump
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("/debug/flightrecord: %v", err)
	}
	found := false
	for _, td := range dump.Traces {
		if td.ID == c.TraceID {
			found = true
			for _, sp := range td.Spans {
				if sp.Name == "handle:start" {
					for _, a := range sp.Attrs {
						if a.Key == "status" && a.Value != "error" {
							t.Errorf("failed exchange span status %q, want error", a.Value)
						}
					}
				}
			}
		}
	}
	if !found {
		t.Errorf("failed exchange's trace %#x not in flight record (%d traces)", c.TraceID, len(dump.Traces))
	}
}

// TestRetrySpansMatchRetriesMetric is the fault-count cross-check:
// one traced status exchange at a time under 20% loss each way, for
// every pinned seed — across the whole session the number of "retry"
// spans recorded by the client equals its retries counter, which
// equals the drops the fabric injected on the client's two links (with
// no reorder or dup, each lost datagram costs exactly one retry).
func TestRetrySpansMatchRetriesMetric(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := sim.NewWorld(seed)
			t.Cleanup(w.Close)
			_, addr := simEmulator(t, w)
			c, conn := dialSim(t, w, addr, seed, sim.LinkParams{Drop: 0.2})
			col := tracing.New("client")
			c.Tracer = col
			c.TraceID = col.NewTraceID()

			for i := 0; i < 20; i++ {
				if _, err := c.Status(); err != nil {
					t.Fatalf("status %d: %v", i, err)
				}
			}
			retries := c.Metrics().Snapshot().Counters["liquid_client_retries_total"]

			spans := 0
			for _, td := range col.TakeTrace(c.TraceID) {
				for _, sp := range td.Spans {
					if sp.Name == "retry" {
						spans++
					}
				}
			}
			if uint64(spans) != retries {
				t.Errorf("retry spans = %d, retries metric = %d", spans, retries)
			}
			drops := w.Net.LinkStats(conn.LocalAddr(), addr).Dropped + w.Net.LinkStats(addr, conn.LocalAddr()).Dropped
			if drops != retries {
				t.Errorf("injected drops = %d, retries metric = %d", drops, retries)
			}
			if drops == 0 {
				t.Error("fabric injected no drops — test proved nothing")
			}
		})
	}
}
