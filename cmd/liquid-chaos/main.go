// liquid-chaos is a deterministic UDP fault-injection proxy for the
// §2.6 control plane: put it between liquidctl (or any client) and a
// liquid-server, and it drops, duplicates, reorders, delays and
// truncates control packets at seeded rates — the Internet, bottled.
// The fault decisions are the in-memory simulation fabric's own
// (sim.Link), so a storm soaked here replays the fault model the
// simulated chaos tests run.
// With a pinned -seed the injected fault sequence is reproducible, so
// a soak failure can be replayed exactly.
//
// Usage:
//
//	liquid-chaos -listen 127.0.0.1:5002 -target 127.0.0.1:5001 \
//	    [-seed 1] [-drop 0.2] [-dup 0.05] [-reorder 0.1] \
//	    [-truncate 0.01] [-latency 1ms] [-jitter 5ms] \
//	    [-script 'up:load@3=drop,down:start=dup'] \
//	    [-metrics-addr 127.0.0.1:9091]
//
// The random rates apply symmetrically to both directions unless
// overridden per direction (-up-drop, -down-drop, and so on for every
// fault). -script adds surgical rules on top (see internal/sim
// ParseScript for the grammar). With -metrics-addr the proxy exposes
// its injection counters at /metrics and /statusz, plus /debug/traces:
// when a packet carrying a v4 trace id is hit by a fault, the proxy
// annotates the fault into that trace (source "chaos"), so a merged
// timeline shows exactly which datagram the network ate (-trace=false
// disables the annotations).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"liquidarch/internal/chaos"
	"liquidarch/internal/cliutil"
	"liquidarch/internal/metrics"
	"liquidarch/internal/sim"
	"liquidarch/internal/tracing"
)

func main() {
	fs := flag.NewFlagSet("liquid-chaos", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:5002", "UDP address clients connect to")
	target := fs.String("target", "127.0.0.1:5001", "liquid-server address to relay to")
	seed := fs.Int64("seed", 1, "fault-sequence seed (pin it to replay a soak)")
	script := fs.String("script", "", "surgical rules, e.g. 'up:load@3=drop,down:start=dup'")
	metricsAddr := fs.String("metrics-addr", "", "HTTP address for /metrics and /statusz (empty = disabled)")
	trace := fs.Bool("trace", true, "annotate injected faults into the traces of v4 packets they hit")

	both := symmetricFaults(fs, "", "both directions")
	up := symmetricFaults(fs, "up-", "client→server only (overrides the symmetric rate)")
	down := symmetricFaults(fs, "down-", "server→client only (overrides the symmetric rate)")
	fs.Parse(os.Args[1:])

	upRules, downRules, err := sim.ParseScript(*script)
	if err != nil {
		cliutil.Fatalf("liquid-chaos: %v", err)
	}
	reg := metrics.NewRegistry()
	var col *tracing.Collector
	if *trace {
		col = tracing.New("chaos")
	}
	cfg := chaos.Config{
		Seed:     *seed,
		Up:       overlay(both.value(), up),
		Down:     overlay(both.value(), down),
		Registry: reg,
	}
	cfg.Up.Script, cfg.Down.Script = upRules, downRules
	cfg.Up.Tracer, cfg.Down.Tracer = col, col
	proxy, err := chaos.NewProxy(*listen, *target, cfg)
	if err != nil {
		cliutil.Fatalf("liquid-chaos: %v", err)
	}
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			cliutil.Fatalf("liquid-chaos: metrics listener: %v", err)
		}
		handler := metrics.NewHTTPHandler(reg, nil)
		if col != nil {
			handler = tracing.NewDebugHandler(handler, nil, nil, col)
		}
		go func() {
			if err := http.Serve(ln, handler); err != nil {
				log.Printf("liquid-chaos: metrics server: %v", err)
			}
		}()
		fmt.Printf("liquid-chaos: telemetry on http://%s/metrics\n", ln.Addr())
	}
	fmt.Printf("liquid-chaos: %s → %s  seed=%d  up={%s}  down={%s}  rules=%d\n",
		proxy.Addr(), *target, *seed, rates(cfg.Up), rates(cfg.Down), len(upRules)+len(downRules))
	if err := proxy.Serve(); err != nil {
		cliutil.Fatalf("liquid-chaos: %v", err)
	}
}

// rates renders one direction's random fault mix for the banner.
func rates(p sim.LinkParams) string {
	return fmt.Sprintf("drop=%g dup=%g reorder=%g truncate=%g latency=%v jitter=%v",
		p.Drop, p.Dup, p.Reorder, p.Truncate, p.Latency, p.Jitter)
}

// faultFlags holds one direction's flag set; nil-valued flags fall
// back to the symmetric rate.
type faultFlags struct {
	drop, dup, reorder, truncate *float64
	latency, jitter              *time.Duration
	set                          map[string]bool
	fs                           *flag.FlagSet
	prefix                       string
}

// symmetricFaults registers one direction's fault flags.
func symmetricFaults(fs *flag.FlagSet, prefix, scope string) *faultFlags {
	f := &faultFlags{fs: fs, prefix: prefix}
	f.drop = fs.Float64(prefix+"drop", 0, "drop probability, "+scope)
	f.dup = fs.Float64(prefix+"dup", 0, "duplicate probability, "+scope)
	f.reorder = fs.Float64(prefix+"reorder", 0, "reorder probability, "+scope)
	f.truncate = fs.Float64(prefix+"truncate", 0, "truncate probability, "+scope)
	f.latency = fs.Duration(prefix+"latency", 0, "delay added to every relayed packet, "+scope)
	f.jitter = fs.Duration(prefix+"jitter", 0, "extra random delay in [0, jitter) per packet, "+scope)
	return f
}

// value materializes the direction's LinkParams.
func (f *faultFlags) value() sim.LinkParams {
	return sim.LinkParams{
		Drop:     *f.drop,
		Dup:      *f.dup,
		Reorder:  *f.reorder,
		Truncate: *f.truncate,
		Latency:  *f.latency,
		Jitter:   *f.jitter,
	}
}

// visited reports whether any flag with this prefix+name was set
// explicitly on the command line.
func (f *faultFlags) visited(name string) bool {
	if f.set == nil {
		f.set = make(map[string]bool)
		f.fs.Visit(func(fl *flag.Flag) { f.set[fl.Name] = true })
	}
	return f.set[f.prefix+name]
}

// overlay starts from the symmetric rates and applies any per-direction
// overrides that were set explicitly.
func overlay(base sim.LinkParams, dir *faultFlags) sim.LinkParams {
	out := base
	if dir.visited("drop") {
		out.Drop = *dir.drop
	}
	if dir.visited("dup") {
		out.Dup = *dir.dup
	}
	if dir.visited("reorder") {
		out.Reorder = *dir.reorder
	}
	if dir.visited("truncate") {
		out.Truncate = *dir.truncate
	}
	if dir.visited("latency") {
		out.Latency = *dir.latency
	}
	if dir.visited("jitter") {
		out.Jitter = *dir.jitter
	}
	return out
}
