package main

import (
	"errors"
	"flag"
	"fmt"

	"liquidarch/internal/client"
	"liquidarch/internal/cliutil"
	"liquidarch/internal/core"
	"liquidarch/internal/fpx"
	"liquidarch/internal/leon"
	"liquidarch/internal/metrics/eventlog"
	"liquidarch/internal/reconfig"
	"liquidarch/internal/server"
	"liquidarch/internal/synth"
	"liquidarch/internal/tracing"
)

// serverConfig is the configuration liquid-server boots with when no
// configuration flag is given.
func serverConfig() (leon.Config, error) {
	fs := flag.NewFlagSet("liquid-server", flag.ContinueOnError)
	build := cliutil.ConfigFlags(fs)
	if err := fs.Parse(nil); err != nil {
		return leon.Config{}, err
	}
	return build()
}

// newManager is the node-wide reconfiguration manager liquid-server
// builds: one cache, one synthesis pool, GOMAXPROCS workers.
func newManager() *reconfig.Manager {
	return reconfig.NewManagerWorkers(reconfig.NewCache(0), synth.Options{BitstreamBytes: 65536}, 0)
}

// node is a multi-board liquid node wired as cmd/liquid-server wires
// it: one core.System per board sharing one reconfiguration manager,
// mounted on one UDP socket, with exchange tracing and the flight
// recorder on (the server's -trace default). UART output is discarded
// so the benchmark's standard output stays machine-readable.
type node struct {
	mgr     *reconfig.Manager
	systems []*core.System
	srv     *server.Server
	served  chan error // Serve's result, sent once when it returns
}

func startNode(cfg leon.Config, boards int, flightDir string) (*node, error) {
	n := &node{mgr: newManager()}
	platforms := make([]*fpx.Platform, boards)
	for i := 0; i < boards; i++ {
		sys, err := core.New(cfg, core.Options{Manager: n.mgr, IP: [4]byte{10, 0, 0, byte(2 + i)}})
		if err != nil {
			n.close()
			return nil, fmt.Errorf("board %d: %w", i, err)
		}
		n.systems = append(n.systems, sys)
		platforms[i] = sys.Platform()
	}
	srv, err := server.NewNode("127.0.0.1:0", platforms...)
	if err != nil {
		n.close()
		return nil, err
	}
	n.srv = srv
	srv.Events().MinLevel = eventlog.Info
	col := tracing.New("server")
	srv.EnableTracing(col)
	srv.SetFlightRecorder(&tracing.FlightRecorder{
		Collectors: []*tracing.Collector{col},
		Events:     srv.Events(),
		Dir:        flightDir,
	})
	n.served = make(chan error, 1)
	go func() { n.served <- srv.Serve() }()
	return n, nil
}

// dial opens a stock client (liquidctl's defaults) to one board.
func (n *node) dial(board int) (*client.Client, error) {
	c, err := client.Dial(n.srv.Addr().String())
	if err != nil {
		return nil, err
	}
	c.Board = uint8(board)
	return c, nil
}

// close stops the server, waits for its loop to exit and shuts the
// board actors down.
func (n *node) close() error {
	var err error
	if n.srv != nil {
		err = errors.Join(n.srv.Close(), <-n.served)
	}
	for _, s := range n.systems {
		s.Close()
	}
	return err
}
