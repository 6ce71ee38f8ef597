package disasm_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/disasm"
	"repro/internal/image"
	"repro/internal/mx"
)

func TestDisassembleSimpleProgram(t *testing.T) {
	img, syms, err := cc.Compile(`
func helper(x) { return x * 2; }
func main() {
	var a = helper(21);
	if (a > 10) { a = a + 1; }
	return a;
}`, cc.Config{Name: "p", Opt: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := disasm.Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Entry != img.Entry {
		t.Fatalf("entry %#x != %#x", g.Entry, img.Entry)
	}
	for _, fn := range []string{"fn_main", "fn_helper"} {
		if g.Func(syms[fn]) == nil {
			t.Fatalf("function %s at %#x not recovered", fn, syms[fn])
		}
	}
	// main must contain a direct-call block targeting helper.
	found := false
	for _, ba := range g.Func(syms["fn_main"]).Blocks {
		b := g.Blocks[ba]
		if b.Term == cfg.TermCall && b.HasTarget(syms["fn_helper"]) {
			found = true
		}
	}
	if !found {
		t.Fatal("no call edge from main to helper")
	}
}

func TestAddressTakenFunctionsDiscovered(t *testing.T) {
	img, syms, err := cc.Compile(`
extern thread_create;
extern thread_join;
func worker(a) { return a + 1; }
func main() {
	var tid = thread_create(worker, 1);
	return thread_join(tid);
}`, cc.Config{Name: "p", Opt: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := disasm.Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	// worker is only reachable as a function-pointer argument; the
	// address-taken heuristic must still recover it as a function.
	if g.Func(syms["fn_worker"]) == nil {
		t.Fatalf("address-taken worker at %#x not recovered", syms["fn_worker"])
	}
}

func TestIndirectCallHasNoStaticTargets(t *testing.T) {
	img, syms, err := cc.Compile(`
func f1(x) { return x + 1; }
func f2(x) { return x + 2; }
func main() {
	var fp = f1;
	if (load64(&fp)) { fp = f2; }
	return fp(1);
}`, cc.Config{Name: "p", Opt: 0})
	if err != nil {
		t.Fatal(err)
	}
	g, err := disasm.Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	var ind *cfg.Block
	for _, ba := range g.Func(syms["fn_main"]).Blocks {
		if g.Blocks[ba].Term == cfg.TermCallInd {
			ind = g.Blocks[ba]
		}
	}
	if ind == nil {
		t.Fatal("no indirect call block in main")
	}
	if len(ind.Targets) != 0 {
		t.Fatalf("static disassembly should not resolve register-indirect call targets, got %v", ind.Targets)
	}
	// But both candidates must have been found as address-taken functions.
	if g.Func(syms["fn_f1"]) == nil || g.Func(syms["fn_f2"]) == nil {
		t.Fatal("address-taken candidates not recovered as functions")
	}
}

// buildJumpTableProg assembles a program with a bounded jump table.
func buildJumpTableProg(t *testing.T) (*image.Image, map[string]uint64) {
	t.Helper()
	b := asm.NewBuilder("jt")
	b.RodataLabel("table")
	b.RodataAddr("case0")
	b.RodataAddr("case1")
	b.RodataAddr("case2")
	b.Entry("main")
	b.Label("main")
	b.MovRI(mx.RDI, 1)
	b.I(mx.Inst{Op: mx.CMPRI, Dst: mx.RDI, Imm: 2})
	b.Jcc(mx.CondA, "deflt")
	b.MovSym(mx.RBX, "table")
	b.I(mx.Inst{Op: mx.JMPM, Base: mx.RBX, Idx: mx.RDI})
	b.Label("case0")
	b.MovRI(mx.RAX, 0)
	b.Ret()
	b.Label("case1")
	b.MovRI(mx.RAX, 1)
	b.Ret()
	b.Label("case2")
	b.MovRI(mx.RAX, 2)
	b.Ret()
	b.Label("deflt")
	b.MovRI(mx.RAX, 9)
	b.Ret()
	img, syms, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img, syms
}

func TestJumpTableHeuristic(t *testing.T) {
	img, syms := buildJumpTableProg(t)
	g, err := disasm.Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	var jt *cfg.Block
	for _, b := range g.Blocks {
		if b.Term == cfg.TermJmpInd {
			jt = b
		}
	}
	if jt == nil {
		t.Fatal("no indirect jump block")
	}
	for _, c := range []string{"case0", "case1", "case2"} {
		if !jt.HasTarget(syms[c]) {
			t.Fatalf("jump table target %s (%#x) not resolved; got %v", c, syms[c], jt.Targets)
		}
	}
	// Table entries must not have been misread as function entries.
	for _, c := range []string{"case0", "case1", "case2"} {
		if g.Func(syms[c]) != nil {
			t.Fatalf("jump-table entry %s misclassified as function", c)
		}
	}
}

func TestBlockSplitting(t *testing.T) {
	// A backward branch into the middle of an already-decoded block forces
	// a split.
	b := asm.NewBuilder("split")
	b.Entry("main")
	b.Label("main")
	b.MovRI(mx.RAX, 0)
	b.Label("mid") // decoded first as part of the entry block
	b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RAX, Imm: 1})
	b.I(mx.Inst{Op: mx.CMPRI, Dst: mx.RAX, Imm: 3})
	b.Jcc(mx.CondL, "mid")
	b.Ret()
	img, syms, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := disasm.Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	mid, ok := g.Blocks[syms["mid"]]
	if !ok {
		t.Fatalf("block at mid (%#x) missing after split; blocks: %v", syms["mid"], addrsOf(g))
	}
	entry := g.Blocks[syms["main"]]
	if entry.Term != cfg.TermFall || entry.Fall != mid.Addr {
		t.Fatalf("entry block not split correctly: term=%s fall=%#x", entry.Term, entry.Fall)
	}
}

func addrsOf(g *cfg.Graph) []uint64 {
	var out []uint64
	for a := range g.Blocks {
		out = append(out, a)
	}
	return out
}

func TestExploreFromAddsJumpTargets(t *testing.T) {
	img, syms := buildJumpTableProg(t)
	g, err := disasm.Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	// Remove one known target to simulate a miss, then re-add via additive
	// exploration.
	var jt *cfg.Block
	for _, b := range g.Blocks {
		if b.Term == cfg.TermJmpInd {
			jt = b
		}
	}
	target := syms["case2"]
	var kept []uint64
	for _, x := range jt.Targets {
		if x != target {
			kept = append(kept, x)
		}
	}
	jt.Targets = kept
	if err := disasm.ExploreFrom(img, g, jt.Addr, target); err != nil {
		t.Fatal(err)
	}
	if !jt.HasTarget(target) {
		t.Fatal("additive exploration did not add the target")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCFGJSONRoundTrip(t *testing.T) {
	img, _ := buildJumpTableProg(t)
	g, err := disasm.Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	data, err := g.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := cfg.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Entry != g.Entry || len(g2.Blocks) != len(g.Blocks) || len(g2.Funcs) != len(g.Funcs) {
		t.Fatalf("roundtrip mismatch: %d/%d blocks, %d/%d funcs",
			len(g2.Blocks), len(g.Blocks), len(g2.Funcs), len(g.Funcs))
	}
	for a, b := range g.Blocks {
		b2 := g2.Blocks[a]
		if b2 == nil || b2.Term != b.Term || b2.Size != b.Size || b2.Fall != b.Fall ||
			len(b2.Targets) != len(b.Targets) {
			t.Fatalf("block %#x mismatch after roundtrip", a)
		}
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeBlockMatchesExtent(t *testing.T) {
	img, _, err := cc.Compile(`func main() { var i; var s = 0;
		for (i = 0; i < 4; i = i + 1) { s = s + i; } return s; }`,
		cc.Config{Name: "p", Opt: 0})
	if err != nil {
		t.Fatal(err)
	}
	g, err := disasm.Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range g.Blocks {
		insts, addrs, err := disasm.DecodeBlock(img, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(insts) == 0 || len(insts) != len(addrs) {
			t.Fatalf("block %#x decoded badly", b.Addr)
		}
		total := uint64(0)
		for _, in := range insts {
			total += uint64(in.Len())
		}
		if total != b.Size {
			t.Fatalf("block %#x: decoded %d bytes, extent %d", b.Addr, total, b.Size)
		}
	}
}
