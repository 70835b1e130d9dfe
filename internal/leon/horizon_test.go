package leon

import (
	"fmt"
	"testing"

	"liquidarch/internal/cache"
)

// Differential tests for event-horizon stepping: SoC.StepN — horizon
// batches, bulk prescaler settlement, superblock dispatch underneath —
// must be bit-identical to the per-step interpreter (soc.Step in a
// loop), for every quantum, including timer underflows, interrupt
// delivery and the boot ROM's poll-loop fast-forward.

// horizonICaches are the instruction caches the design-space sweep
// visits: block dispatch runs out of resident lines of each of them, so
// the differential tests run on every one.
var horizonICaches = []struct {
	name string
	cfg  cache.Config
}{
	{"i1k-dm", cache.Config{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 1}},
	{"i1k-2way", cache.Config{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 2}},
	{"i4k-4way", cache.Config{SizeBytes: 4 << 10, LineBytes: 32, Assoc: 4}},
}

// withICache is the default SoC configuration with the given I-cache.
func withICache(icfg cache.Config) Config {
	cfg := DefaultConfig()
	cfg.ICache = icfg
	return cfg
}

// socDiff compares all CPU-visible state of two systems and the
// statistics of both caches.
func socDiff(a, b *SoC) string {
	ac, bc := a.CPU, b.CPU
	if ac.PC() != bc.PC() || ac.NPC() != bc.NPC() {
		return fmt.Sprintf("pc/npc %#x/%#x vs %#x/%#x", ac.PC(), ac.NPC(), bc.PC(), bc.NPC())
	}
	if ac.PSR() != bc.PSR() {
		return fmt.Sprintf("psr %#x vs %#x", ac.PSR(), bc.PSR())
	}
	if ac.Cycles != bc.Cycles {
		return fmt.Sprintf("cycles %d vs %d", ac.Cycles, bc.Cycles)
	}
	if ac.Stats() != bc.Stats() {
		return fmt.Sprintf("stats %+v vs %+v", ac.Stats(), bc.Stats())
	}
	if a.ICache.Stats() != b.ICache.Stats() {
		return fmt.Sprintf("icache stats %+v vs %+v", a.ICache.Stats(), b.ICache.Stats())
	}
	if a.DCache.Stats() != b.DCache.Stats() {
		return fmt.Sprintf("dcache stats %+v vs %+v", a.DCache.Stats(), b.DCache.Stats())
	}
	return ""
}

// timerIRQProg arms the prescaled timer with interrupts unmasked, then
// burns time in a counted spin — every timer underflow interrupts it.
const timerIRQProg = `
_start:
	set 0x80000094, %g1	! IRQ mask
	set 0xFFFE, %g2
	st %g2, [%g1]
	set 0x80000044, %g1	! timer reload
	mov 200, %g2
	st %g2, [%g1]
	set 0x80000048, %g1	! timer control: enable|reload|load|irq
	mov 0xF, %g2
	st %g2, [%g1]
	set 3000, %g3
spin:
	subcc %g3, 1, %g3
	bne spin
	nop
` + epilogue

// buildSystemQuantum is buildSystem with an event-horizon batch cap.
func buildSystemQuantum(t *testing.T, cfg Config, quantum uint64) *Controller {
	t.Helper()
	soc, err := NewWithOptions(cfg, nil, Options{Quantum: quantum})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(soc)
	if err := ctrl.Boot(); err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// TestHorizonTimerBitIdentical runs the timer-interrupt program on a
// per-step reference machine and on horizon-batched machines at a
// sweep of quanta, for each swept I-cache. Results, cycle counts,
// interrupt counts, cache statistics and all CPU state must match bit
// for bit — the horizon must fire every underflow at exactly the
// instruction boundary the per-step interpreter fired it.
func TestHorizonTimerBitIdentical(t *testing.T) {
	obj := assembleProg(t, timerIRQProg)

	// References: the per-step interpreter all the way through the run.
	type reference struct {
		ctrl *Controller
		res  RunResult
	}
	refs := make([]reference, len(horizonICaches))
	for i, ic := range horizonICaches {
		ref := buildSystem(t, withICache(ic.cfg), nil)
		if err := ref.LoadProgram(obj.Origin, obj.Code); err != nil {
			t.Fatal(err)
		}
		if err := ref.Start(obj.Origin, 0); err != nil {
			t.Fatal(err)
		}
		refSoC := ref.SoC()
		for refSoC.CPU.PC() != ROMPollAddr {
			if err := refSoC.Step(); err != nil {
				t.Fatalf("%s reference step (pc=%#x): %v", ic.name, refSoC.CPU.PC(), err)
			}
		}
		res, err := ref.CollectResult() // already at the poll loop: finalizes only
		if err != nil {
			t.Fatal(err)
		}
		if refSoC.CPU.Stats().Interrupts == 0 {
			t.Fatalf("%s reference run took no timer interrupts — test proves nothing", ic.name)
		}
		refs[i] = reference{ref, res}
	}

	for _, quantum := range []uint64{0, 1, 7, 64, 1024} {
		quantum := quantum
		t.Run(fmt.Sprintf("quantum%d", quantum), func(t *testing.T) {
			for i, ic := range horizonICaches {
				ref := refs[i]
				ctrl := buildSystemQuantum(t, withICache(ic.cfg), quantum)
				if err := ctrl.LoadProgram(obj.Origin, obj.Code); err != nil {
					t.Fatal(err)
				}
				if err := ctrl.Start(obj.Origin, 0); err != nil {
					t.Fatal(err)
				}
				res, err := ctrl.CollectResult()
				if err != nil {
					t.Fatal(err)
				}
				if res != ref.res {
					t.Fatalf("%s: result %+v vs reference %+v", ic.name, res, ref.res)
				}
				if d := socDiff(ctrl.SoC(), ref.ctrl.SoC()); d != "" {
					t.Fatalf("%s: horizon run diverged from per-step reference: %s", ic.name, d)
				}
				if got, want := ctrl.IRQCount(), ref.ctrl.IRQCount(); got != want {
					t.Fatalf("%s: ROM stub IRQ count %d vs %d", ic.name, got, want)
				}
			}
		})
	}
}

// TestHorizonPollIdleBitIdentical parks both machines in the boot
// ROM's mailbox poll loop (Fig. 5) and lets them idle: the batched
// machine fast-forwards the side-effect-free spin, the reference
// emulates every iteration, and after the same number of steps the
// cycle counters, cache statistics and all state must agree exactly —
// fast-forwarded cycles are real simulated time — for each swept
// I-cache.
func TestHorizonPollIdleBitIdentical(t *testing.T) {
	for _, ic := range horizonICaches {
		a := buildSystem(t, withICache(ic.cfg), nil).SoC()
		b := buildSystem(t, withICache(ic.cfg), nil).SoC()
		const steps = 200_000
		const noStop = uint32(1) // never a fetch PC
		n, err := a.StepN(steps, ^uint64(0), noStop)
		if err != nil {
			t.Fatal(err)
		}
		if n != steps {
			t.Fatalf("%s: StepN executed %d of %d idle steps", ic.name, n, steps)
		}
		for i := 0; i < steps; i++ {
			if err := b.Step(); err != nil {
				t.Fatalf("%s: reference step %d: %v", ic.name, i, err)
			}
		}
		if d := socDiff(a, b); d != "" {
			t.Fatalf("%s: idle fast-forward diverged: %s", ic.name, d)
		}
		if pc := a.CPU.PC(); pc < ROMPollAddr || pc > ROMPollAddr+0x20 {
			t.Fatalf("%s: pc drifted to %#x while idle", ic.name, pc)
		}
	}
}

// TestHorizonCycleCapBoundary sweeps StepN's cycle cap across an
// active stretch of the timer program: stopping and resuming at every
// cap must land on the same boundaries the per-step loop observes.
func TestHorizonCycleCapBoundary(t *testing.T) {
	obj := assembleProg(t, timerIRQProg)
	const noStop = uint32(1)
	for cap := uint64(50); cap <= 2000; cap += 111 {
		a := buildSystem(t, DefaultConfig(), nil)
		b := buildSystem(t, DefaultConfig(), nil)
		for _, c := range []*Controller{a, b} {
			if err := c.LoadProgram(obj.Origin, obj.Code); err != nil {
				t.Fatal(err)
			}
			if err := c.Start(obj.Origin, 0); err != nil {
				t.Fatal(err)
			}
		}
		as, bs := a.SoC(), b.SoC()
		limit := as.CPU.Cycles + cap
		n, err := as.StepN(1<<30, limit, noStop)
		if err != nil {
			t.Fatalf("cap %d: %v", cap, err)
		}
		nb := 0
		for bs.CPU.Cycles < limit {
			if err := bs.Step(); err != nil {
				t.Fatalf("cap %d reference: %v", cap, err)
			}
			nb++
		}
		if n != nb {
			t.Fatalf("cap %d: steps %d vs %d", cap, n, nb)
		}
		if d := socDiff(as, bs); d != "" {
			t.Fatalf("cap %d: diverged at boundary: %s", cap, d)
		}
	}
}
