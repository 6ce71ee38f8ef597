package vm

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/mx"
)

// TestLazyPredecodeCompilesWhatRuns runs a loop followed by a dead region
// on both loops and checks which offsets of the code page were decoded and
// compiled: exactly the instructions the loop dispatches (the fast loop
// retires a fused SUB+JCC inline, so there the JCC is only decoded, as the
// pair's lookahead), and nothing of the dead region, whose second page is
// never even filled.
func TestLazyPredecodeCompilesWhatRuns(t *testing.T) {
	b := asm.NewBuilder("t")
	b.Entry("main")
	b.Label("main")
	b.MovRI(mx.RCX, 5)
	b.Label("main2")
	b.MovRI(mx.RAX, 0)
	b.Label("loop")
	b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RAX, Imm: 1})
	b.Label("sub")
	b.I(mx.Inst{Op: mx.SUBRI, Dst: mx.RCX, Imm: 1})
	b.Label("jcc")
	b.Jcc(mx.CondNE, "loop")
	b.Label("tail")
	b.MovRR(mx.RDI, mx.RAX)
	b.Label("callx")
	b.CallExt("exit")
	b.Label("dead")
	for i := 0; i < 1000; i++ { // 6000 bytes: runs into a second page
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RAX, Imm: 1})
	}
	img, syms, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	base := syms["main"] &^ (pageSize - 1)
	if syms["dead"]+6000 <= base+pageSize {
		t.Fatal("dead region does not reach a second page")
	}
	for _, counted := range []bool{false, true} {
		m, err := New(img, 1)
		if err != nil {
			t.Fatal(err)
		}
		if counted {
			m.EnableCounters()
		}
		if res := m.Run(1_000_000); res.Fault != nil || res.ExitCode != 5 {
			t.Fatalf("counted=%v: exit %d, fault %v", counted, res.ExitCode, res.Fault)
		}
		if len(m.icache) != 1 || m.icache[base] == nil {
			t.Fatalf("counted=%v: %d code pages filled, want only the page at %#x", counted, len(m.icache), base)
		}
		cp := m.icache[base]
		want := map[uint64]bool{}
		for _, l := range []string{"main", "main2", "loop", "sub", "tail", "callx"} {
			want[syms[l]-base] = true
		}
		// The per-step loop dispatches the JCC itself.
		want[syms["jcc"]-base] = counted
		for off := uint64(0); off < pageSize; off++ {
			if got := cp.disp[off].h != nil; got != want[off] {
				t.Errorf("counted=%v: offset %#x compiled = %v, want %v", counted, off, got, want[off])
			}
			if off >= syms["dead"]-base && cp.insts[off] != (mx.Inst{}) {
				t.Errorf("counted=%v: dead offset %#x decoded as %v", counted, off, cp.insts[off])
			}
		}
		if j := cp.insts[syms["jcc"]-base]; j.Op != mx.JCC {
			t.Errorf("counted=%v: fused lookahead left %v at the JCC, want jcc", counted, j)
		}
		// The chain from main holds three flat-run members; the fused SUB
		// ends it.
		if d := cp.disp[syms["main"]-base]; d.flat != 3 || d.runCost != 3 {
			t.Errorf("counted=%v: main flat %d runCost %d, want 3 and 3", counted, d.flat, d.runCost)
		}
	}
}

// TestLazyChainsJoin compiles a straight line of simple instructions from
// its middle first, then from its head: the second chain must stop at the
// first one and extend its run, giving every member the flat and runCost a
// whole-page pass gives.
func TestLazyChainsJoin(t *testing.T) {
	b := asm.NewBuilder("t")
	b.Entry("main")
	b.Label("main")
	for i := 0; i < 8; i++ {
		if i == 4 {
			b.Label("mid")
		}
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RAX, Imm: 1})
	}
	b.I(mx.Inst{Op: mx.IMULRI, Dst: mx.RAX, Imm: 3}) // cost 3
	b.Label("end")
	b.CallExt("exit")
	img, syms, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(img, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := syms["main"] &^ (pageSize - 1)
	cp := m.fillCodePage(base)
	m.compileAt(cp, base, int(syms["mid"]-base))
	if d := cp.disp[syms["mid"]-base]; d.flat != 5 || d.runCost != 4+3 {
		t.Fatalf("mid: flat %d runCost %d, want 5 and 7", d.flat, d.runCost)
	}
	m.compileAt(cp, base, int(syms["main"]-base))
	for i, off := 0, syms["main"]-base; i < 9; i++ {
		d := cp.disp[off]
		if wantFlat, wantCost := 9-i, uint32(8-i+3); int(d.flat) != wantFlat || d.runCost != wantCost {
			t.Fatalf("member %d: flat %d runCost %d, want %d and %d", i, d.flat, d.runCost, wantFlat, wantCost)
		}
		off += uint64(d.n)
	}
	if d := cp.disp[syms["end"]-base]; d.h == nil || d.flat != 0 || d.retire != retireCallX {
		t.Fatalf("chain end: compiled %v flat %d retire %d, want a compiled CALLX outside the run",
			d.h != nil, d.flat, d.retire)
	}
}
