package opt_test

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/disasm"
	"repro/internal/ir"
	"repro/internal/lifter"
	"repro/internal/opt"
)

func liftProgram(t *testing.T, src string, ccOpt int, fences bool) *lifter.Lifted {
	t.Helper()
	img, _, err := cc.Compile(src, cc.Config{Name: "t", Opt: ccOpt})
	if err != nil {
		t.Fatal(err)
	}
	g, err := disasm.Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := lifter.Lift(img, g, lifter.Options{InsertFences: fences})
	if err != nil {
		t.Fatal(err)
	}
	return lf
}

const loopSrc = `
func main() {
	var s = 0;
	var i;
	for (i = 0; i < 100; i = i + 1) { s = s + i * 3; }
	return s;
}`

func totalOps(m *ir.Module, op ir.Op) int {
	n := 0
	for _, f := range m.Funcs {
		n += opt.CountOps(f, op)
	}
	return n
}

func moduleSize(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		n += opt.FuncSize(f)
	}
	return n
}

func TestPipelineVerifiesAndShrinks(t *testing.T) {
	for _, ccOpt := range []int{0, 2} {
		lf := liftProgram(t, loopSrc, ccOpt, true)
		before := moduleSize(lf.Mod)
		vloadsBefore := totalOps(lf.Mod, ir.OpVRegLoad)
		if err := opt.Run(lf.Mod, opt.Options{Verify: true}); err != nil {
			t.Fatalf("O%d: %v", ccOpt, err)
		}
		after := moduleSize(lf.Mod)
		vloadsAfter := totalOps(lf.Mod, ir.OpVRegLoad)
		if after >= before {
			t.Fatalf("O%d: pipeline did not shrink the module: %d -> %d", ccOpt, before, after)
		}
		// The refinement must cut the bulk of the vreg traffic.
		if float64(vloadsAfter) > 0.5*float64(vloadsBefore) {
			t.Fatalf("O%d: vreg loads only %d -> %d", ccOpt, vloadsBefore, vloadsAfter)
		}
		t.Logf("O%d: size %d -> %d, vreg loads %d -> %d", ccOpt, before, after, vloadsBefore, vloadsAfter)
	}
}

func TestPromotionBuildsPhisForLoops(t *testing.T) {
	lf := liftProgram(t, loopSrc, 2, true)
	if err := opt.Run(lf.Mod, opt.Options{Verify: true}); err != nil {
		t.Fatal(err)
	}
	if totalOps(lf.Mod, ir.OpPhi) == 0 {
		t.Fatal("expected phis for loop-carried virtual registers")
	}
}

func TestDeadFlagStoresRemoved(t *testing.T) {
	// Straight-line arithmetic: every intermediate flag store must die; at
	// most the final ones (per flag global) survive per path.
	lf := liftProgram(t, `
func main() {
	var a = 1;
	var b = 2;
	var c = a + b;
	c = c * 3;
	c = c - 4;
	c = c ^ 5;
	return c;
}`, 0, true)
	if err := opt.Run(lf.Mod, opt.Options{Verify: true}); err != nil {
		t.Fatal(err)
	}
	flagStores := 0
	for _, f := range lf.Mod.Funcs {
		for _, b := range f.Blocks {
			for _, v := range b.Insts {
				if v.Op == ir.OpVRegStore && v.Global.Name[0] == 'f' {
					flagStores++
				}
			}
		}
	}
	// Lifting emits 2-4 flag stores per ALU op; after refinement only the
	// last writer per flag before a barrier/ret should remain.
	if flagStores > 16 {
		t.Fatalf("too many surviving flag stores: %d", flagStores)
	}
}

// fenceBlocking demonstrates the central Table-2 mechanism: with fences, a
// reload of the same global address cannot be forwarded; after fence
// removal, it can.
func TestFencesBlockMemForwardingUntilRemoved(t *testing.T) {
	src := `
var g = 7;
func main() {
	var a = g + g;
	return a;
}`
	withFences := liftProgram(t, src, 0, true)
	if err := opt.Run(withFences.Mod, opt.Options{Verify: true}); err != nil {
		t.Fatal(err)
	}
	loadsFenced := totalOps(withFences.Mod, ir.OpLoad)

	removed := liftProgram(t, src, 0, true)
	for _, f := range removed.Mod.Funcs {
		opt.RemoveFences(f)
	}
	if err := opt.Run(removed.Mod, opt.Options{Verify: true}); err != nil {
		t.Fatal(err)
	}
	loadsRemoved := totalOps(removed.Mod, ir.OpLoad)

	if totalOps(removed.Mod, ir.OpFence) != 0 {
		t.Fatal("fences survived removal")
	}
	if loadsRemoved >= loadsFenced {
		t.Fatalf("fence removal did not unlock load forwarding: %d (fenced) vs %d (removed)",
			loadsFenced, loadsRemoved)
	}
}

func TestRemoveFencesKeepsBarriers(t *testing.T) {
	lf := liftProgram(t, `
var c = 0;
func main() { atomic_add(&c, 1); return 0; }`, 0, true)
	for _, f := range lf.Mod.Funcs {
		opt.RemoveFences(f)
	}
	if totalOps(lf.Mod, ir.OpFence) != 0 {
		t.Fatal("fences remain")
	}
	if totalOps(lf.Mod, ir.OpBarrier) == 0 {
		t.Fatal("compiler barriers must survive fence removal (atomic translation contract)")
	}
	if totalOps(lf.Mod, ir.OpAtomicRMW) == 0 {
		t.Fatal("atomicrmw must survive")
	}
}

func TestConstFoldUnit(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f")
	b := f.NewBlock("entry")
	c1 := b.Append(ir.OpConst)
	c1.Const = 6
	c2 := b.Append(ir.OpConst)
	c2.Const = 7
	mul := b.Append(ir.OpMul, c1, c2)
	cmp := b.Append(ir.OpICmp, mul, c1)
	cmp.Pred = ir.PredSGT
	inv := b.Append(ir.OpICmp, cmp, b.Append(ir.OpConst))
	inv.Pred = ir.PredEQ
	st := b.Append(ir.OpStore, c1, inv)
	st.Width = 8
	b.Append(ir.OpRet)

	for opt.ConstFold(f) || opt.DCE(f) {
	}
	if err := ir.VerifyFunc(f); err != nil {
		t.Fatal(err)
	}
	// Everything feeding the store folds to a constant 0 (42 > 6 -> 1;
	// icmp eq 1, 0 -> 0).
	stored := st.Args[1]
	if stored.Op != ir.OpConst || stored.Const != 0 {
		t.Fatalf("stored value not folded: %s", stored)
	}
}

func TestConstBranchFolding(t *testing.T) {
	t.Run("unreachable", func(t *testing.T) {
		m := ir.NewModule("t")
		f := m.NewFunc("f")
		entry := f.NewBlock("entry")
		a := f.NewBlock("a")
		bb := f.NewBlock("b")
		c := entry.Append(ir.OpConst)
		c.Const = 1
		cb := entry.Append(ir.OpCondBr, c)
		cb.Targets = []*ir.Block{a, bb}
		a.Append(ir.OpRet)
		st := bb.Append(ir.OpStore, c, c)
		st.Width = 8
		bb.Append(ir.OpRet)

		// Folding the branch leaves b unreachable; SimplifyCFG deletes it,
		// and the store's uses of the live c go with it.
		if !opt.ConstFold(f) {
			t.Fatal("no folding happened")
		}
		opt.SimplifyCFG(f)
		if err := ir.VerifyFunc(f); err != nil {
			t.Fatal(err)
		}
		if err := ir.VerifyUses(f); err != nil {
			t.Fatal(err)
		}
		if len(f.Blocks) != 1 {
			t.Fatalf("expected single merged block, got %d", len(f.Blocks))
		}
		if c.NumUses() != 0 {
			t.Fatalf("c has %d uses after its only users went", c.NumUses())
		}
	})

	t.Run("phi-edge", func(t *testing.T) {
		m := ir.NewModule("t")
		f := m.NewFunc("f")
		entry := f.NewBlock("entry")
		a := f.NewBlock("a")
		join := f.NewBlock("join")
		c := entry.Append(ir.OpConst)
		c.Const = 1
		y := entry.Append(ir.OpConst)
		y.Const = 20
		cb := entry.Append(ir.OpCondBr, c)
		cb.Targets = []*ir.Block{a, join}
		x := a.Append(ir.OpConst)
		x.Const = 10
		a.Append(ir.OpBr).Targets = []*ir.Block{join}
		phi := join.Append(ir.OpPhi, y, x)
		phi.PhiPreds = []*ir.Block{entry, a}
		st := join.Append(ir.OpStore, c, phi)
		st.Width = 8
		join.Append(ir.OpRet)

		// Folding the branch drops the phi's edge from entry, and y's use
		// with it.
		if !opt.ConstFold(f) {
			t.Fatal("no folding happened")
		}
		if err := ir.VerifyUses(f); err != nil {
			t.Fatal(err)
		}
		if y.NumUses() != 0 {
			t.Fatalf("y has %d uses after its phi edge went", y.NumUses())
		}
		opt.SimplifyCFG(f)
		if err := ir.VerifyFunc(f); err != nil {
			t.Fatal(err)
		}
		if err := ir.VerifyUses(f); err != nil {
			t.Fatal(err)
		}
		if len(f.Blocks) != 1 {
			t.Fatalf("expected single merged block, got %d", len(f.Blocks))
		}
		if st.Args[1] != x {
			t.Fatalf("stored value %s, want the surviving phi operand", st.Args[1])
		}
	})
}

func TestGuestMemForwardRespectsClobbers(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f")
	b := f.NewBlock("entry")
	addr := b.Append(ir.OpConst)
	addr.Const = 0x1000
	val := b.Append(ir.OpConst)
	val.Const = 5
	st := b.Append(ir.OpStore, addr, val)
	st.Width = 8
	// A load straight after the store forwards.
	ld1 := b.Append(ir.OpLoad, addr)
	ld1.Width = 8
	// After an atomic, nothing forwards.
	rmw := b.Append(ir.OpAtomicRMW, addr, val)
	rmw.RMW = ir.RMWAdd
	ld2 := b.Append(ir.OpLoad, addr)
	ld2.Width = 8
	sum := b.Append(ir.OpAdd, ld1, ld2)
	st2 := b.Append(ir.OpStore, addr, sum)
	st2.Width = 8
	b.Append(ir.OpRet)

	opt.LocalForward(f)
	if err := ir.VerifyFunc(f); err != nil {
		t.Fatal(err)
	}
	if sum.Args[0] != val {
		t.Fatal("load after store not forwarded")
	}
	if sum.Args[1] != ld2 {
		t.Fatal("load after atomic must not be forwarded")
	}
}

func TestDeadStoreWithinBlock(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f")
	b := f.NewBlock("entry")
	addr := b.Append(ir.OpConst)
	addr.Const = 0x1000
	v1 := b.Append(ir.OpConst)
	v1.Const = 1
	v2 := b.Append(ir.OpConst)
	v2.Const = 2
	st1 := b.Append(ir.OpStore, addr, v1)
	st1.Width = 8
	st2 := b.Append(ir.OpStore, addr, v2)
	st2.Width = 8
	b.Append(ir.OpRet)

	opt.LocalForward(f)
	stores := opt.CountOps(f, ir.OpStore)
	if stores != 1 {
		t.Fatalf("dead store not removed: %d stores", stores)
	}
}
