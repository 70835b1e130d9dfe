package cache

import (
	"bytes"
	"fmt"
	"testing"

	"liquidarch/internal/amba"
	"liquidarch/internal/asm"
	"liquidarch/internal/cpu"
	"liquidarch/internal/isa"
	"liquidarch/internal/mem"
)

// Exactness of block dispatch over a real instruction cache: a CPU
// driven through StepN — lines exposed by PeekLine, hits settled per
// line, the spin fast-forward shifting LRU ages in bulk — must leave
// the CPU and both caches bit-identical to a twin driven through Step,
// down to the LRU tick, every line's tag, valid bit and age, the
// round-robin pointers and the random state.

const exactOrigin = 0x1000

// exactPrograms each end in a pure spin, so a long enough run also
// exercises the fast-forward. Code blocks placed at a 1 KB stride map
// to the same set in every geometry under test (a set spans at most
// 1 KB of address space there), so calling them in turn thrashes it.
var exactPrograms = []struct{ name, src string }{
	{"straight", `
	set 0x8000, %g3
	set 40, %g2
loop:
	ld [%g3], %g4
	add %g1, 1, %g1
	add %g1, %g4, %g1
	xor %g1, 0x55, %g5
	sub %g5, %g1, %g5
	or %g5, %g4, %g5
	and %g1, 0xff, %g6
	add %g6, %g5, %g6
	sll %g6, 2, %g6
	srl %g6, 1, %g6
	add %g1, 7, %g1
	xor %g1, %g6, %g7
	st %g7, [%g3 + 4]
	add %g7, 3, %g7
	sub %g7, %g1, %g7
	or %g7, 1, %g7
	and %g7, 0x3ff, %g7
	add %g1, %g7, %g1
	subcc %g2, 1, %g2
	bne loop
	nop
spin:
	ba,a spin
`},
	{"thrash", `
	set 30, %g2
loop:
	call blk1
	nop
	call blk2
	add %g1, 1, %g1
	call blk1
	nop
	call blk3
	nop
	call blk4
	nop
	call blk5
	nop
	subcc %g2, 1, %g2
	bne loop
	nop
spin:
	ba,a spin
	.org 0x1400
blk1:
	add %g1, 1, %g1
	add %g1, 2, %g1
	retl
	nop
	.org 0x1800
blk2:
	add %g1, %g1, %g1
	retl
	xor %g1, 3, %g1
	.org 0x1c00
blk3:
	add %g1, 5, %g1
	nop
	nop
	nop
	nop
	nop
	nop
	retl
	nop
	.org 0x2000
blk4:
	retl
	add %g1, 9, %g1
	.org 0x2400
blk5:
	sub %g1, 1, %g1
	retl
	nop
`},
	{"flush", `
	set 25, %g2
loop:
	add %g1, 1, %g1
	flush %g0
	add %g1, 2, %g1
	nop
	nop
	nop
	nop
	nop
	nop
	add %g1, 3, %g1
	subcc %g2, 1, %g2
	bne loop
	nop
spin:
	ba,a spin
`},
	// selfmod rewrites the immediate of the add at "site" every
	// iteration. Odd iterations FLUSH so the new word is fetched;
	// even ones keep executing the stale resident line.
	{"selfmod", `
	set site, %g3
	ld [%g3], %g4
	set 20, %g2
loop:
	add %g4, 1, %g4
	st %g4, [%g3]
	andcc %g2, 1, %g0
	be skip
	nop
	flush %g3
skip:
	nop
	nop
	nop
site:
	add %g1, 0, %g1
	subcc %g2, 1, %g2
	bne loop
	nop
spin:
	ba,a spin
`},
	// multispin is a pure spin spanning several lines: each replayed
	// iteration touches every one of them.
	{"multispin", `
	set 12, %g2
warm:
	subcc %g2, 1, %g2
	bne warm
	nop
	nop
	nop
spin:
	nop
	nop
	nop
	nop
	nop
	nop
	nop
	nop
	nop
	nop
	nop
	nop
	nop
	nop
	nop
	nop
	nop
	ba spin
	nop
`},
}

var exactGeometries = []struct {
	name string
	cfg  Config
}{
	{"dm", Config{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 1}},
	{"2way-lru", Config{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 2}},
	{"4way-lru", Config{SizeBytes: 4 << 10, LineBytes: 32, Assoc: 4}},
	{"4way-rr", Config{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 4, Replacement: RoundRobin}},
	{"2way-rnd", Config{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 2, Replacement: Random}},
	{"16B-4way", Config{SizeBytes: 512, LineBytes: 16, Assoc: 4}},
}

// countingICache is the instruction cache as the CPU sees it, counting
// the dispatch calls so the test can tell block dispatch and the
// fast-forward actually ran.
type countingICache struct {
	*Cache
	peeks, repeats int
}

func (c *countingICache) PeekLine(addr uint32, settle uint64) ([]byte, bool) {
	line, ok := c.Cache.PeekLine(addr, settle)
	if ok {
		c.peeks++
	}
	return line, ok
}

func (c *countingICache) RepeatFetchHits(perIter, m uint64) {
	c.repeats++
	c.Cache.RepeatFetchHits(perIter, m)
}

// dataPath routes the CPU's loads and stores through the D-cache and
// flags them as cached accesses, as the SoC's memory mux does, so the
// fast-forward never replays an iteration that touched the D-cache.
type dataPath struct {
	cpu *cpu.CPU
	d   *Cache
}

func (p *dataPath) Read(addr uint32, size amba.Size) (uint32, int, error) {
	p.cpu.MemEvents |= cpu.MemEventCached
	return p.d.Read(addr, size)
}

func (p *dataPath) Write(addr uint32, val uint32, size amba.Size) (int, error) {
	p.cpu.MemEvents |= cpu.MemEventCached
	return p.d.Write(addr, val, size)
}

type exactMachine struct {
	cpu *cpu.CPU
	ic  *countingICache
	dc  *Cache
}

func newExactMachine(t *testing.T, icfg Config, code []byte) *exactMachine {
	t.Helper()
	bus := amba.NewAHB()
	ram := mem.NewSRAM(64 << 10)
	if err := bus.Map("sram", 0, 64<<10, ram); err != nil {
		t.Fatal(err)
	}
	if err := ram.Poke(exactOrigin, code); err != nil {
		t.Fatal(err)
	}
	ic, err := New(icfg, bus)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := New(Config{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 1}, bus)
	if err != nil {
		t.Fatal(err)
	}
	m := &exactMachine{ic: &countingICache{Cache: ic}, dc: dc}
	dp := &dataPath{d: dc}
	m.cpu, err = cpu.New(cpu.DefaultConfig(), ic, dp, nil)
	if err != nil {
		t.Fatal(err)
	}
	dp.cpu = m.cpu
	m.cpu.SetIFetch(m.ic)
	m.cpu.FlushFn = func() (int, error) {
		n1, err := ic.Flush()
		if err != nil {
			return n1, err
		}
		n2, err := dc.Flush()
		return n1 + n2, err
	}
	m.cpu.SetPC(exactOrigin)
	return m
}

// cacheDiff compares every piece of cache state.
func cacheDiff(a, b *Cache) string {
	if a.stats != b.stats {
		return fmt.Sprintf("stats %+v vs %+v", a.stats, b.stats)
	}
	if a.tick != b.tick {
		return fmt.Sprintf("tick %d vs %d", a.tick, b.tick)
	}
	if a.rnd != b.rnd {
		return fmt.Sprintf("rnd %#x vs %#x", a.rnd, b.rnd)
	}
	for s := range a.rrNext {
		if a.rrNext[s] != b.rrNext[s] {
			return fmt.Sprintf("set %d rrNext %d vs %d", s, a.rrNext[s], b.rrNext[s])
		}
	}
	for i := range a.all {
		la, lb := &a.all[i], &b.all[i]
		if la.tag != lb.tag || la.valid != lb.valid || la.dirty != lb.dirty || la.age != lb.age {
			return fmt.Sprintf("line %d tag/valid/dirty/age %#x/%v/%v/%d vs %#x/%v/%v/%d",
				i, la.tag, la.valid, la.dirty, la.age, lb.tag, lb.valid, lb.dirty, lb.age)
		}
		if !bytes.Equal(la.data, lb.data) {
			return fmt.Sprintf("line %d data differs", i)
		}
	}
	return ""
}

// machineDiff compares the CPU state and both caches.
func machineDiff(a, b *exactMachine) string {
	ac, bc := a.cpu, b.cpu
	if ac.PC() != bc.PC() || ac.NPC() != bc.NPC() {
		return fmt.Sprintf("pc/npc %#x/%#x vs %#x/%#x", ac.PC(), ac.NPC(), bc.PC(), bc.NPC())
	}
	if ac.PSR() != bc.PSR() || ac.WIM() != bc.WIM() || ac.TBR() != bc.TBR() || ac.Y() != bc.Y() {
		return fmt.Sprintf("psr/wim/tbr/y %#x/%#x/%#x/%#x vs %#x/%#x/%#x/%#x",
			ac.PSR(), ac.WIM(), ac.TBR(), ac.Y(), bc.PSR(), bc.WIM(), bc.TBR(), bc.Y())
	}
	if ac.Cycles != bc.Cycles {
		return fmt.Sprintf("cycles %d vs %d", ac.Cycles, bc.Cycles)
	}
	if ac.Stats() != bc.Stats() {
		return fmt.Sprintf("cpu stats %+v vs %+v", ac.Stats(), bc.Stats())
	}
	for r := 0; r < 32; r++ {
		if ra, rb := ac.Reg(isa.Reg(r)), bc.Reg(isa.Reg(r)); ra != rb {
			return fmt.Sprintf("r%d %#x vs %#x", r, ra, rb)
		}
	}
	if d := cacheDiff(a.ic.Cache, b.ic.Cache); d != "" {
		return "icache " + d
	}
	if d := cacheDiff(a.dc, b.dc); d != "" {
		return "dcache " + d
	}
	return ""
}

// TestBlockDispatchExactOverCache runs every program on every I-cache
// geometry, StepN in batches of several sizes against single steps,
// comparing CPU and cache state after every batch.
func TestBlockDispatchExactOverCache(t *testing.T) {
	const steps = 20_000
	const noStop = uint32(1) // unaligned: never a fetch PC
	for _, p := range exactPrograms {
		obj, err := asm.AssembleAt(p.src, exactOrigin)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for _, g := range exactGeometries {
			for _, batch := range []int{steps, 1, 7, 64} {
				t.Run(fmt.Sprintf("%s/%s/batch%d", p.name, g.name, batch), func(t *testing.T) {
					a := newExactMachine(t, g.cfg, obj.Code)
					b := newExactMachine(t, g.cfg, obj.Code)
					for done := 0; done < steps; {
						n, err := a.cpu.StepN(min(batch, steps-done), ^uint64(0), noStop)
						if err != nil {
							t.Fatalf("StepN after %d steps: %v", done, err)
						}
						for i := 0; i < n; i++ {
							if err := b.cpu.Step(); err != nil {
								t.Fatalf("reference step %d: %v", done+i, err)
							}
						}
						done += n
						if d := machineDiff(a, b); d != "" {
							t.Fatalf("diverged after %d steps: %s", done, d)
						}
					}
					if a.ic.peeks == 0 {
						t.Fatal("no line was dispatched out of the I-cache")
					}
					if batch == steps && a.ic.repeats == 0 {
						t.Fatal("the closing spin was never fast-forwarded")
					}
				})
			}
		}
	}
}
