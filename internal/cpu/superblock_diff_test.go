package cpu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"liquidarch/internal/amba"
	"liquidarch/internal/isa"
)

// Differential property tests for the superblock dispatcher: a CPU
// driven through StepN — block dispatch, hoisted interrupt probe,
// deferred accounting, poll-loop fast-forward — must be bit-identical
// to one driven through Step alone: registers, control state, memory,
// cycle count, statistics, fetch counters. Any divergence means a
// scheduling transformation leaked into architectural behaviour.

// lineFlat wraps flatMem with the LineFetcher surface: every fetch is
// a pure 1-cycle resident hit and PeekLine exposes 32-byte lines
// aliased straight into the backing store, exactly as cache.Cache
// aliases its line arrays — so CPU stores are immediately visible to
// the dispatcher, the regime the predecode-invalidation protocol must
// handle.
type lineFlat struct {
	*flatMem
	hits, misses uint64
}

const lineFlatBytes = 32

func (m *lineFlat) FetchWord(addr uint32) (uint32, int, bool, error) {
	if int(addr)+4 > len(m.data) {
		m.misses++
		return 0, 1, false, &amba.BusError{Addr: addr}
	}
	m.hits++
	return binary.BigEndian.Uint32(m.data[addr:]), 1, true, nil
}

func (m *lineFlat) PeekLine(addr uint32, settle uint64) ([]byte, bool) {
	m.hits += settle
	base := int(addr) &^ (lineFlatBytes - 1)
	if base+lineFlatBytes > len(m.data) {
		return nil, false
	}
	return m.data[base : base+lineFlatBytes], true
}

func (m *lineFlat) AddFetchHits(n uint64)             { m.hits += n }
func (m *lineFlat) RepeatFetchHits(perIter, n uint64) { m.hits += perIter * n }
func (m *lineFlat) FetchCounts() (uint64, uint64)     { return m.hits, m.misses }

const noStopPC = ^uint32(0) // unaligned: never matches a fetch PC

// sbPair builds two identical machines over independent memories; A is
// meant to run through StepN, B through Step.
func sbPair(t *testing.T, airq, birq IRQSource, words ...uint32) (a, b *CPU, am, bm *lineFlat) {
	t.Helper()
	const progBase = 0x1000
	build := func(irq IRQSource) (*CPU, *lineFlat) {
		m := &lineFlat{flatMem: newFlat(64 << 10)}
		for i, w := range words {
			binary.BigEndian.PutUint32(m.data[progBase+i*4:], w)
		}
		c, err := New(DefaultConfig(), m.flatMem, m.flatMem, irq)
		if err != nil {
			t.Fatal(err)
		}
		c.SetIFetch(m)
		c.psr |= PSRET
		c.SetPC(progBase)
		return c, m
	}
	a, am = build(airq)
	b, bm = build(birq)
	return a, b, am, bm
}

// sbDiff fails on any state, accounting or fetch-counter divergence.
func sbDiff(t *testing.T, a, b *CPU, am, bm *lineFlat, tag string) {
	t.Helper()
	if d := diffState(a, b); d != "" {
		t.Fatalf("%s: superblock CPU diverged: %s", tag, d)
	}
	if am.hits != bm.hits || am.misses != bm.misses {
		t.Fatalf("%s: fetch counters diverged: %d/%d vs %d/%d",
			tag, am.hits, am.misses, bm.hits, bm.misses)
	}
}

// stepRef advances the reference CPU n single steps.
func stepRef(t *testing.T, b *CPU, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := b.Step(); err != nil {
			t.Fatalf("%s: reference step %d (pc=%#x): %v", tag, i, b.PC(), err)
		}
	}
}

// countedLoop builds the standard store-and-count loop ending in an
// annulling self-branch (the spin the fast-forward probe feeds on).
func countedLoop(t *testing.T, iters int32) []uint32 {
	t.Helper()
	return []uint32{
		enc(t, movImm(isa.G1, 0x800)),
		enc(t, movImm(isa.G0+2, iters)),
		enc(t, movImm(isa.O0, 0)),
		// loop:
		enc(t, isa.Inst{Op: isa.OpADD, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: 3}),
		enc(t, isa.Inst{Op: isa.OpST, Rd: isa.O0, Rs1: isa.G1, UseImm: true, Imm: 0}),
		enc(t, isa.Inst{Op: isa.OpSUBcc, Rd: isa.G0 + 2, Rs1: isa.G0 + 2, UseImm: true, Imm: 1}),
		enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondNE, Imm: -3}),
		enc(t, isa.Inst{Op: isa.OpOR, Rd: isa.G0, Rs1: isa.G0, UseImm: true, Imm: 0}), // delay-slot nop
		enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondA, Annul: true, Imm: 0}),        // spin
	}
}

// TestDiffSuperblockRandomStreams drives seeded random programs
// through StepN in randomly sized batches against a single-stepped
// reference, comparing all state after every batch. The tail spin
// exercises the fast-forward path under the per-batch step cap.
func TestDiffSuperblockRandomStreams(t *testing.T) {
	const progLen = 160
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			words := randProgram(t, rng, progLen)
			words = append(words, enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondA, Annul: true, Imm: 0}))
			a, b, am, bm := sbPair(t, nil, nil, words...)
			total := 0
			for total < len(words)+64 {
				n := 1 + rng.Intn(23)
				got, err := a.StepN(n, ^uint64(0), noStopPC)
				if err != nil {
					t.Fatalf("StepN after %d steps: %v", total, err)
				}
				if got != n {
					t.Fatalf("StepN(%d) executed %d steps with no gate to close", n, got)
				}
				stepRef(t, b, got, "random stream")
				total += got
				sbDiff(t, a, b, am, bm, fmt.Sprintf("after %d steps", total))
			}
			if !bytes.Equal(am.data, bm.data) {
				t.Fatal("memory images diverged")
			}
		})
	}
}

// TestDiffSuperblockSelfModifyingMidBlock overwrites an instruction
// two slots ahead of the executing store — inside the very block being
// dispatched, in the same cache line. The dispatcher's aliased line
// view plus per-store predecode invalidation must make the new word
// execute, exactly as the single-step interpreter does.
func TestDiffSuperblockSelfModifyingMidBlock(t *testing.T) {
	const progBase = 0x1000
	// Slot 6 lives at progBase+24 = %g1(0x800) + 0x818.
	newWord := enc(t, isa.Inst{Op: isa.OpADD, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: 100})
	words := []uint32{
		enc(t, movImm(isa.G1, 0x800)),
		enc(t, isa.Inst{Op: isa.OpSETHI, Rd: isa.G0 + 3, Imm: int32(newWord >> 10)}),
		enc(t, isa.Inst{Op: isa.OpOR, Rd: isa.G0 + 3, Rs1: isa.G0 + 3, UseImm: true, Imm: int32(newWord & 0x3FF)}),
		enc(t, movImm(isa.O0, 7)),
		enc(t, isa.Inst{Op: isa.OpST, Rd: isa.G0 + 3, Rs1: isa.G1, UseImm: true, Imm: 0x818}),
		enc(t, isa.Inst{Op: isa.OpADD, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: 1}),
		enc(t, isa.Inst{Op: isa.OpADD, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: 1}), // overwritten with +100
		enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondA, Annul: true, Imm: 0}),         // spin
	}
	a, b, am, bm := sbPair(t, nil, nil, words...)
	const steps = 7 // up to and including the overwritten slot
	got, err := a.StepN(steps, ^uint64(0), noStopPC)
	if err != nil || got != steps {
		t.Fatalf("StepN = %d, %v", got, err)
	}
	stepRef(t, b, steps, "self-modify")
	sbDiff(t, a, b, am, bm, "after overwritten slot")
	if o0 := a.Reg(isa.O0); o0 != 108 {
		t.Fatalf("%%o0 = %d, want 108 (stale predecode or stale line view executed?)", o0)
	}
	if !bytes.Equal(am.data, bm.data) {
		t.Fatal("memory images diverged")
	}
}

// TestDiffSuperblockCycleLimitEveryOffset sweeps StepN's cycle limit
// across every cycle of a looping program's life: the batch must stop
// at exactly the boundary a caller stepping one instruction at a time
// and testing Cycles between steps would observe, with identical state
// at the split and after resuming to completion.
func TestDiffSuperblockCycleLimitEveryOffset(t *testing.T) {
	words := countedLoop(t, 50)
	const total = 300 // past loop exit, into the spin
	maxLimit := uint64(520)
	if testing.Short() {
		maxLimit = 130
	}
	for limit := uint64(1); limit <= maxLimit; limit++ {
		a, b, am, bm := sbPair(t, nil, nil, words...)
		n1, err := a.StepN(1<<30, limit, noStopPC)
		if err != nil {
			t.Fatalf("limit %d: StepN: %v", limit, err)
		}
		n1b := 0
		for b.Cycles < limit {
			if err := b.Step(); err != nil {
				t.Fatalf("limit %d: reference: %v", limit, err)
			}
			n1b++
		}
		if n1 != n1b {
			t.Fatalf("limit %d: steps to boundary: superblock %d vs single-step %d", limit, n1, n1b)
		}
		sbDiff(t, a, b, am, bm, fmt.Sprintf("limit %d at boundary", limit))
		if rest := total - n1; rest > 0 {
			got, err := a.StepN(rest, ^uint64(0), noStopPC)
			if err != nil || got != rest {
				t.Fatalf("limit %d: resume StepN = %d, %v", limit, got, err)
			}
			stepRef(t, b, rest, fmt.Sprintf("limit %d resume", limit))
		}
		sbDiff(t, a, b, am, bm, fmt.Sprintf("limit %d at end", limit))
	}
}

// TestDiffSuperblockIRQEveryOffset raises an interrupt at every cycle
// offset of the program — asserted between batches, as the SoC's
// settle-at-boundary protocol guarantees — and requires delivery,
// vectoring and everything after to match the single-step machine
// exactly, including when the post-trap spin is fast-forwarded.
func TestDiffSuperblockIRQEveryOffset(t *testing.T) {
	words := countedLoop(t, 50)
	const lvl = 11
	vector := uint32(TrapInterruptBase+lvl) << 4
	spin := uint32(0)
	const total = 320
	maxOffset := uint64(520)
	if testing.Short() {
		maxOffset = 130
	}
	for off := uint64(1); off <= maxOffset; off++ {
		airq, birq := &fakeIRQ{}, &fakeIRQ{}
		a, b, am, bm := sbPair(t, airq, birq, words...)
		if spin == 0 {
			spin = enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondA, Annul: true, Imm: 0})
		}
		// Park a spin at the interrupt vector so execution continues
		// (ET is 0 inside the handler; a trap there would freeze).
		binary.BigEndian.PutUint32(am.data[vector:], spin)
		binary.BigEndian.PutUint32(bm.data[vector:], spin)

		n1, err := a.StepN(1<<30, off, noStopPC)
		if err != nil {
			t.Fatalf("offset %d: StepN: %v", off, err)
		}
		airq.level = lvl
		if rest := total - n1; rest > 0 {
			got, err := a.StepN(rest, ^uint64(0), noStopPC)
			if err != nil || got != rest {
				t.Fatalf("offset %d: resume StepN = %d, %v", off, got, err)
			}
		}

		n1b := 0
		for b.Cycles < off {
			if err := b.Step(); err != nil {
				t.Fatalf("offset %d: reference: %v", off, err)
			}
			n1b++
		}
		if n1 != n1b {
			t.Fatalf("offset %d: steps to assert point: %d vs %d", off, n1, n1b)
		}
		birq.level = lvl
		stepRef(t, b, total-n1b, fmt.Sprintf("offset %d", off))

		sbDiff(t, a, b, am, bm, fmt.Sprintf("IRQ at cycle offset %d", off))
		if airq.acked != birq.acked {
			t.Fatalf("offset %d: ack divergence: %d vs %d", off, airq.acked, birq.acked)
		}
	}
}

// TestDiffSuperblockStopPC checks the stop-address gate (the ROM poll
// handoff uses it) against a reference that tests PC between steps.
func TestDiffSuperblockStopPC(t *testing.T) {
	words := countedLoop(t, 20)
	const progBase = 0x1000
	stop := uint32(progBase + 5*4) // the SUBcc inside the loop body
	a, b, am, bm := sbPair(t, nil, nil, words...)
	n, err := a.StepN(1<<30, ^uint64(0), stop)
	if err != nil {
		t.Fatalf("StepN: %v", err)
	}
	if a.PC() != stop {
		t.Fatalf("stopped at %#x, want %#x", a.PC(), stop)
	}
	nb := 0
	for b.PC() != stop {
		if err := b.Step(); err != nil {
			t.Fatalf("reference: %v", err)
		}
		nb++
	}
	if n != nb {
		t.Fatalf("steps to stop PC: superblock %d vs single-step %d", n, nb)
	}
	sbDiff(t, a, b, am, bm, "at stop PC")
}
