package bench

import (
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/leon"
)

// StepKernel is a steady-state mixed kernel (ALU, load, store, taken
// branch + delay slot) that loops forever; the throughput measurements
// step it after the caches and predecode state have warmed up. The
// root-level BenchmarkStepThroughput and ThroughputExperiment share it
// so the testing.B number and the BENCH_throughput.json row describe
// the same workload.
const StepKernel = `
_start:
	set 0x40100000, %g3
	set 0, %g1
loop:
	ld [%g3], %g2
	add %g1, %g2, %g1
	add %g1, 1, %g1
	xor %g1, %g2, %g4
	sub %g4, %g2, %g4
	st %g4, [%g3 + 4]
	and %g1, 255, %g5
	or %g5, %g2, %g5
	ba loop
	nop
`

// ThroughputRow is the simulator-performance record: how fast the host
// steps the simulated machine in the steady state.
type ThroughputRow struct {
	Steps     uint64  // simulated instructions measured
	Cycles    uint64  // simulated cycles they consumed
	WallSecs  float64 // host wall-clock for the measured window
	NsPerStep float64 // host nanoseconds per simulated instruction
	SimMIPS   float64 // simulated million instructions per host second
}

// ThroughputSoC boots a SoC of the given configuration (honoring the
// event-horizon quantum cap, 0 = uncapped), hands off into StepKernel
// and warms the caches, the predecode state and the superblock
// dispatcher, leaving the machine ready for steady-state stepping.
func ThroughputSoC(cfg leon.Config, quantum uint64) (*leon.SoC, error) {
	soc, err := leon.NewWithOptions(cfg, nil, leon.Options{Quantum: quantum})
	if err != nil {
		return nil, err
	}
	ctrl := leon.NewController(soc)
	if err := ctrl.Boot(); err != nil {
		return nil, err
	}
	obj, err := asm.AssembleAt(StepKernel, leon.DefaultLoadAddr)
	if err != nil {
		return nil, err
	}
	if err := ctrl.LoadProgram(obj.Origin, obj.Code); err != nil {
		return nil, err
	}
	if err := ctrl.Start(obj.Origin, 0); err != nil {
		return nil, err
	}
	if _, err := StepSteady(soc, 4096); err != nil { // warm-up
		return nil, err
	}
	return soc, nil
}

// StepSteady advances the kernel by exactly steps instructions through
// the superblock dispatcher — the steady-state inner loop both the
// testing.B benchmark and ThroughputExperiment time. The kernel loops
// forever, so neither the poll address nor a cycle cap can cut a batch
// short.
func StepSteady(soc *leon.SoC, steps uint64) (uint64, error) {
	done := uint64(0)
	for done < steps {
		n, err := soc.StepN(int(steps-done), ^uint64(0), leon.ROMPollAddr)
		if err != nil {
			return done, err
		}
		done += uint64(n)
	}
	return done, nil
}

// ThroughputExperiment measures steady-state stepping speed: it boots a
// default SoC, hands off into StepKernel via the controller's Start
// path, warms the I-cache and the predecode cache, then times steps
// simulated instructions through the superblock dispatcher.
func ThroughputExperiment(steps uint64) (ThroughputRow, error) {
	return ThroughputExperimentQuantum(steps, 0)
}

// ThroughputExperimentQuantum is ThroughputExperiment with a cap on
// the event-horizon batch (liquid-bench -quantum); 0 means uncapped.
func ThroughputExperimentQuantum(steps, quantum uint64) (ThroughputRow, error) {
	if steps == 0 {
		steps = 2_000_000
	}
	soc, err := ThroughputSoC(leon.DefaultConfig(), quantum)
	if err != nil {
		return ThroughputRow{}, err
	}
	startCycles := soc.Cycles()
	start := time.Now()
	if _, err := StepSteady(soc, steps); err != nil {
		return ThroughputRow{}, err
	}
	wall := time.Since(start)
	row := ThroughputRow{
		Steps:    steps,
		Cycles:   soc.Cycles() - startCycles,
		WallSecs: wall.Seconds(),
	}
	if s := wall.Seconds(); s > 0 {
		row.NsPerStep = float64(wall.Nanoseconds()) / float64(steps)
		row.SimMIPS = float64(steps) / s / 1e6
	}
	return row, nil
}
