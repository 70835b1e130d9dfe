package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"liquidarch/internal/lcc"
	"liquidarch/internal/leon"
	"liquidarch/internal/link"
	"liquidarch/internal/netproto"
)

// program is one generated C kernel with the exit value Go computes
// for it independently of the compiler and the simulated CPU.
// Seeds only pick constants in the 13-bit immediate range, so every
// seed compiles to the same instruction count and the work per run
// does not depend on the seed.
type program struct {
	name     string
	src      string
	copts    lcc.Options
	needsMAC bool
	want     uint32
	img      *link.Image
}

// seededConst returns a constant in [1, 4000): small enough for a
// SPARC 13-bit immediate.
func seededConst(rng *rand.Rand) int32 { return 1 + rng.Int31n(3999) }

// fig7Program is the array kernel of Fig. 7: a stride-32 index into a
// 4 KB array wrapped mod 1024, summed. The seed fills the array.
func fig7Program(rng *rand.Rand, iters int32) program {
	a, b := seededConst(rng), seededConst(rng)
	src := fmt.Sprintf(`
int count[1024];
int result;
int main() {
    int i;
    int address;
    int x = 0;
    for (i = 0; i < 1024; i++) count[i] = i * %d + %d;
    for (i = 0; i < %d; i = i + 32) {
        address = i %% 1024;
        x = x + count[address];
    }
    result = x;
    return x;
}`, a, b, iters*32)
	var count [1024]int32
	for i := int32(0); i < 1024; i++ {
		count[i] = i*a + b
	}
	var x int32
	for i := int32(0); i < iters*32; i += 32 {
		x += count[i%1024]
	}
	return program{name: "fig7", src: src, want: uint32(x)}
}

// dotProgram is the dot-product kernel, with the multiply-accumulate
// written as a multiply and an add or, with mac, as the liquid __mac
// instruction (which traps on a configuration without the MAC unit).
func dotProgram(rng *rand.Rand, passes int32, mac bool) program {
	a, b, c, d := seededConst(rng), seededConst(rng), seededConst(rng), seededConst(rng)
	body, name := "acc = acc + a[i] * b[i];", "dot"
	if mac {
		body, name = "acc = __mac(acc, a[i], b[i]);", "dot_mac"
	}
	src := fmt.Sprintf(`
int a[256];
int b[256];
int main() {
    int i;
    int pass;
    int acc = 0;
    for (i = 0; i < 256; i++) { a[i] = i * %d + %d; b[i] = i * %d + %d; }
    for (pass = 0; pass < %d; pass++)
        for (i = 0; i < 256; i++)
            %s
    return acc;
}`, a, b, c, d, passes, body)
	var va, vb [256]int32
	for i := int32(0); i < 256; i++ {
		va[i], vb[i] = i*a+b, i*c+d
	}
	var acc int32
	for p := int32(0); p < passes; p++ {
		for i := 0; i < 256; i++ {
			acc += va[i] * vb[i]
		}
	}
	return program{name: name, src: src, copts: lcc.Options{MAC: mac}, needsMAC: mac, want: uint32(acc)}
}

// icacheProgram has a loop body of 50 distinct statements (~1.5 KB of
// code): larger than a 1 KB instruction cache, inside a 4 KB one.
func icacheProgram(rng *rand.Rand, passes int32) program {
	var b strings.Builder
	x0 := seededConst(rng)
	fmt.Fprintf(&b, "int main() {\n    int x = %d;\n    int pass;\n", x0)
	fmt.Fprintf(&b, "    for (pass = 0; pass < %d; pass++) {\n", passes)
	cs := make([]int32, 50)
	for i := range cs {
		cs[i] = seededConst(rng)
		fmt.Fprintf(&b, "        x = x * 3 + %d;\n", cs[i])
	}
	b.WriteString("    }\n    return x;\n}\n")
	x := x0
	for p := int32(0); p < passes; p++ {
		for _, c := range cs {
			x = x*3 + c
		}
	}
	return program{name: "icache", src: b.String(), want: uint32(x)}
}

// sessionProgram is a short remote-session kernel padded so its image
// spans exactly chunks load chunks. It counts its own runs in a data
// word the load resets, so a re-run without reloading must return a
// different value than the run before it.
func sessionProgram(rng *rand.Rand, chunks int, stackTop uint32, tc *toolchain) (program, error) {
	s := seededConst(rng)
	const loops = 200
	gen := func(padWords int) string {
		return fmt.Sprintf(`
int pad[%d];
int runs = 0;
int result;
int main() {
    int i;
    int x = %d;
    for (i = 0; i < %d; i++) x = x * 5 + i;
    runs = runs + 1;
    result = x + runs;
    return result;
}`, padWords, s, loops)
	}
	x := s
	for i := int32(0); i < loops; i++ {
		x = x*5 + i
	}
	p := program{name: fmt.Sprintf("session%d", chunks), want: uint32(x)}
	// Size the pad from the unpadded image, then check the chunking.
	p.src = gen(1)
	if err := tc.build(&p, stackTop); err != nil {
		return p, err
	}
	base := len(p.img.Code) - 4
	target := (chunks-1)*netproto.MaxChunkData + netproto.MaxChunkData/2
	pad := (target - base) / 4
	if pad < 1 {
		pad = 1
	}
	p.src = gen(pad)
	if err := tc.build(&p, stackTop); err != nil {
		return p, err
	}
	if got := len(netproto.ChunkImage(p.img.Origin, p.img.Code)); got != chunks {
		return p, fmt.Errorf("session program: image spans %d chunks, want %d", got, chunks)
	}
	return p, nil
}

// build compiles and links the program for a board whose stack tops at
// stackTop, returning the compiler and linker wall times.
func (p *program) build(stackTop uint32) (compile, linkT time.Duration, err error) {
	t0 := time.Now()
	asmText, err := lcc.Compile(p.src, p.copts)
	compile = time.Since(t0)
	if err != nil {
		return compile, 0, fmt.Errorf("%s: compile: %w", p.name, err)
	}
	t1 := time.Now()
	img, err := link.Build(asmText, link.Options{StackTop: stackTop})
	linkT = time.Since(t1)
	if err != nil {
		return compile, linkT, fmt.Errorf("%s: link: %w", p.name, err)
	}
	p.img = img
	return compile, linkT, nil
}

// resultAddr is where the program's exit value is published.
func (p *program) resultAddr() uint32 { return p.img.ExitValueAddr() }

// stackTopFor is the stack top core.System.CompileC uses for cfg.
func stackTopFor(cfg leon.Config) uint32 { return leon.SRAMBase + uint32(cfg.SRAMSize) }

// toolchain accumulates set-up compile and link time.
type toolchain struct{ compile, link time.Duration }

func (tc *toolchain) build(p *program, stackTop uint32) error {
	c, l, err := p.build(stackTop)
	tc.compile += c
	tc.link += l
	return err
}
