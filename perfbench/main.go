// Command perfbench is the repository's benchmark: one seeded run of
// one workload against the liquid system as cmd/liquid-server wires
// it, with every output checked and every metric printed by name with
// its unit and sample count. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload dse-sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 a
// traced run reports the per-layer set and writes its spans as Chrome
// trace-event JSON under --outdir. README.md lists the workloads, the
// metrics and which layer metric should move which end-to-end metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times a run builds its workload; setup_s is
// the median, and the last build is the one measured.
const setupRepeats = 9

// metric is one reported number.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// workload is one built workload, ready to measure.
type workload interface {
	// measure drives the workload over phase p, until p.until.
	measure(p *phase) error
	// layers returns the per-layer metrics of a traced phase.
	layers(p *phase) []metric
	// summary returns phase p's end-to-end figures.
	summary(p *phase) summary
	// named returns the end-to-end metrics of phase p under the
	// workload's own names, for the human-readable report.
	named(p *phase) []metric
	close() error
}

type buildFunc func(seed int64, outdir string) (workload, *toolchain, error)

var workloads = map[string]buildFunc{
	"dse-sweep":       buildDSE,
	"remote-sessions": buildSessions,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: dse-sweep or remote-sessions")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	outdir := fs.String("outdir", filepath.Join(".bench_build", "perfbench"), "directory for traces, flight dumps and cycle records")
	if err := fs.Parse(args); err != nil {
		return err
	}
	build, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		return err
	}

	w, tc, setups, err := setUp(build, *seed, *outdir)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer w.close()

	total := time.Duration(*seconds) * time.Second
	// Warm-up: lazy set-up, Go runtime growth and the first visit of
	// every configuration happen before timing.
	warm := newPhase(*seed, 0, min(total/5, 2*time.Second), nil)
	if err := w.measure(warm); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	var plain, traced *phase
	if *trace == 0 {
		plain = newPhase(*seed, 1, total, nil)
		if err := w.measure(plain); err != nil {
			return err
		}
	} else {
		// The traced run measures half untraced, half traced, so the
		// tracing overhead comes from one process on one host state.
		plain = newPhase(*seed, 1, total/2, nil)
		if err := w.measure(plain); err != nil {
			return err
		}
		traced = newPhase(*seed, 2, total/2, newTracer())
		if err := w.measure(traced); err != nil {
			return err
		}
	}
	if err := w.close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}

	final := plain
	if traced != nil {
		final = traced
	}
	attempted, failed := plain.attempted, plain.failed
	if traced != nil {
		attempted += traced.attempted
		failed += traced.failed
	}
	printHost(*name, *seed, *seconds, *trace)
	for _, f := range append(append([]string{}, plain.failures...), failures(traced)...) {
		fmt.Println("FAIL", f)
	}
	named := append([]metric{
		{"setup_s", median(setups), "s", len(setups)},
		{"error_rate", ratio(float64(failed), float64(attempted)), "ratio", attempted},
		{"max_rss_mb", maxRSSMB(), "MB", 1},
	}, w.named(final)...)
	printMetrics("workload", named)

	var out []metric
	if *trace == 0 {
		s := w.summary(plain)
		out = inOrder(endToEnd, []metric{
			{"setup_s", median(setups), "s", len(setups)},
			{"max_rss_mb", maxRSSMB(), "MB", 1},
			{"ops_per_s", s.ops, "1/s", s.n},
			{"sim_mips", s.mips, "MIPS", s.n},
			latencyMetric("latency_p50_ms", s.lat, 0.5),
			latencyMetric("latency_p90_ms", s.lat, 0.9),
		})
		printMetrics("end-to-end", out)
	} else {
		tr := traced.tr
		path := filepath.Join(*outdir, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		spans, err := tr.writeChrome(path)
		if err != nil {
			return fmt.Errorf("trace export: %w", err)
		}
		fmt.Printf("trace: %d spans of %d ops written to %s (%d dropped by the %d-span cap)\n",
			spans, tr.ops, path, tr.dropped, maxKeptSpans)
		if tr.badOps > 0 {
			failed++
			fmt.Printf("FAIL per-op budget: %d ops' self times missed their wall time by more than %v (max %v)\n",
				tr.badOps, budgetTolerance, tr.maxRes)
		}
		ps, ts := w.summary(plain), w.summary(traced)
		out = inOrder(perLayer, append(w.layers(traced),
			metric{"lcc.compile_ms", ms(tc.compile), "ms", 1},
			metric{"link.build_ms", ms(tc.link), "ms", 1},
			metric{"trace.overhead_ratio", ratio(ps.ops, ts.ops), "ratio", ts.n},
			metric{"budget.max_residual_us", float64(tr.maxRes) / float64(time.Microsecond), "us", tr.ops},
			metric{"budget.self_share.harness", tr.selfShare("harness"), "ratio", tr.ops},
			metric{"budget.self_share.core", tr.selfShare("core"), "ratio", tr.ops},
			metric{"budget.self_share.client", tr.selfShare("client"), "ratio", tr.ops},
		))
		printMetrics("per-layer", out)
	}

	res := map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   jsonMetrics(out),
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if failed > 0 {
		return fmt.Errorf("%d of %d operations failed their output check", failed, attempted)
	}
	return nil
}

// setUp builds the workload setupRepeats times, timing each build in
// reference time by the probes on its two sides, and keeps the last.
// Compile and link times are the median build's.
func setUp(build buildFunc, seed int64, outdir string) (workload, *toolchain, []float64, error) {
	var times []float64
	var tcs []*toolchain
	var w workload
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, nil, nil, err
			}
			w = nil
		}
		// Every build starts from the same heap: the previous one
		// collected and its pages returned to the OS.
		debug.FreeOSMemory()
		before := probe()
		t0 := time.Now()
		nw, tc, err := build(seed, outdir)
		if err != nil {
			return nil, nil, nil, err
		}
		d := time.Since(t0)
		times = append(times, refDuration(d, (before+probe())/2).Seconds())
		tcs = append(tcs, tc)
		w = nw
	}
	sort.Slice(tcs, func(i, j int) bool { return tcs[i].compile+tcs[i].link < tcs[j].compile+tcs[j].link })
	return w, tcs[len(tcs)/2], times, nil
}

func failures(p *phase) []string {
	if p == nil {
		return nil
	}
	return p.failures
}

func latencyMetric(name string, samples []float64, q float64) metric {
	v, _ := percentile(samples, q)
	return metric{name, v, "ms", len(samples)}
}

func printHost(name string, seed int64, seconds, trace int) {
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%d\n", name, seed, seconds, trace)
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func printMetrics(kind string, ms []metric) {
	for _, m := range ms {
		tail := ""
		if strings.HasSuffix(m.name, "_p90_ms") || strings.HasSuffix(m.name, ".p90") || strings.HasSuffix(m.name, ".p99") {
			q := 0.9
			if strings.HasSuffix(m.name, ".p99") {
				q = 0.99
			}
			if !tailOK(m.samples, q) {
				tail = " (fewer than 10 samples beyond this tail)"
			}
		}
		fmt.Printf("%s %-34s %16.10g %-6s n=%d%s\n", kind, m.name, m.value, m.unit, m.samples, tail)
	}
}

func jsonMetrics(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		v := m.value
		if v != v { // NaN is not JSON; it can only come from an empty ratio
			v = 0
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	return out
}

// maxRSSMB is the process's peak resident set (VmHWM), in MB.
func maxRSSMB() float64 {
	kb, _ := procField("/proc/self/status", "VmHWM:")
	return kb * 1024 / 1e6
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// procField reads the first number after key in a /proc file.
func procField(path, key string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				return strconv.ParseFloat(fields[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, key)
}
