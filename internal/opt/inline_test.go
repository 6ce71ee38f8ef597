package opt_test

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/disasm"
	"repro/internal/ir"
	"repro/internal/lifter"
	"repro/internal/opt"
)

// liftAndUnmark lifts a program and clears External on everything except
// main (the post-callback-analysis state that permits inlining).
func liftAndUnmark(t *testing.T, src string) (*lifter.Lifted, uint64) {
	t.Helper()
	img, syms, err := cc.Compile(src, cc.Config{Name: "t", Opt: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := disasm.Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := lifter.Lift(img, g, lifter.Options{InsertFences: true})
	if err != nil {
		t.Fatal(err)
	}
	for addr, f := range lf.FuncByAddr {
		if addr != img.Entry {
			f.External = false
		}
	}
	return lf, syms["fn_main"]
}

func TestInlineLeafIntoCaller(t *testing.T) {
	lf, mainAddr := liftAndUnmark(t, `
func double(x) { return x * 2; }
func main() { return double(21); }`)
	if !opt.Inline(lf.Mod, 300) {
		t.Fatal("nothing inlined")
	}
	if err := ir.Verify(lf.Mod); err != nil {
		t.Fatal(err)
	}
	mainF := lf.FuncByAddr[mainAddr]
	if opt.CountOps(mainF, ir.OpCall) != 0 {
		t.Fatal("call survived inlining")
	}
}

func TestInlineDiamondCallee(t *testing.T) {
	lf, mainAddr := liftAndUnmark(t, `
func pick(x) {
	if (x > 3) { return x - 3; }
	return 3 - x;
}
func main() { return pick(1) * 10 + pick(7); }`)
	if !opt.Inline(lf.Mod, 300) {
		t.Fatal("nothing inlined")
	}
	if err := ir.Verify(lf.Mod); err != nil {
		t.Fatal(err)
	}
	mainF := lf.FuncByAddr[mainAddr]
	if opt.CountOps(mainF, ir.OpCall) != 0 {
		t.Fatal("calls survived")
	}
	// Both call sites cloned independently: the module still optimizes and
	// verifies afterwards.
	if err := opt.Run(lf.Mod, opt.Options{Verify: true}); err != nil {
		t.Fatal(err)
	}
}

func TestInlineSkipsExternalAndRecursive(t *testing.T) {
	lf, _ := liftAndUnmark(t, `
func fact(n) {
	if (n < 2) { return 1; }
	return n * fact(n - 1);
}
func main() { return fact(5); }`)
	// fact is recursive: it contains a call, so it is not a leaf.
	opt.Inline(lf.Mod, 300)
	total := 0
	for _, f := range lf.Mod.Funcs {
		total += opt.CountOps(f, ir.OpCall)
	}
	if total == 0 {
		t.Fatal("recursive function must not be fully inlined")
	}
	if err := ir.Verify(lf.Mod); err != nil {
		t.Fatal(err)
	}
}

func TestInlineRespectsSizeCap(t *testing.T) {
	lf, _ := liftAndUnmark(t, `
func big(x) {
	var s = 0;
	var i;
	for (i = 0; i < 10; i = i + 1) { s = s + x * i + (x ^ i) - (x & i); }
	return s;
}
func main() { return big(3); }`)
	if opt.Inline(lf.Mod, 5) {
		t.Fatal("size cap ignored")
	}
}

// TestInlineDropsCallOperandUses inlines a call that passes an operand, as
// runtime-helper calls do (lifted calls pass none): the call leaves the
// caller, so its operand must no longer list it, and the callee's values
// must not gain the clones as users.
func TestInlineDropsCallOperandUses(t *testing.T) {
	m := ir.NewModule("t")
	leaf := m.NewFunc("leaf")
	lb := leaf.NewBlock("entry")
	one := lb.Append(ir.OpConst)
	one.Const = 1
	lb.Append(ir.OpRet, one)
	f := m.NewFunc("f")
	b := f.NewBlock("entry")
	arg := b.Append(ir.OpConst)
	arg.Const = 7
	b.Append(ir.OpCall, arg).Fn = leaf
	b.Append(ir.OpRet)

	if !opt.Inline(m, 300) {
		t.Fatal("nothing inlined")
	}
	for _, fn := range m.Funcs {
		if err := ir.VerifyUses(fn); err != nil {
			t.Fatalf("@%s: %v", fn.Name, err)
		}
	}
	if arg.NumUses() != 0 || one.NumUses() != 1 {
		t.Fatalf("uses: call operand %d, callee const %d; want 0, 1", arg.NumUses(), one.NumUses())
	}
}
