package ir

import (
	"strings"
	"testing"
)

// buildDiamond constructs:
//
//	entry -> (left | right) -> join -> exit
func buildDiamond(t *testing.T) (*Module, *Func, map[string]*Block) {
	t.Helper()
	m := NewModule("t")
	f := m.NewFunc("f")
	entry := f.NewBlock("entry")
	left := f.NewBlock("left")
	right := f.NewBlock("right")
	join := f.NewBlock("join")

	c := entry.Append(OpConst)
	c.Const = 1
	cb := entry.Append(OpCondBr, c)
	cb.Targets = []*Block{left, right}

	l := left.Append(OpConst)
	l.Const = 10
	lb := left.Append(OpBr)
	lb.Targets = []*Block{join}

	r := right.Append(OpConst)
	r.Const = 20
	rb := right.Append(OpBr)
	rb.Targets = []*Block{join}

	phi := join.Append(OpPhi, l, r)
	phi.PhiPreds = []*Block{left, right}
	add := join.Append(OpAdd, phi, phi)
	_ = add
	join.Append(OpRet)

	return m, f, map[string]*Block{"entry": entry, "left": left, "right": right, "join": join}
}

func TestVerifyDiamond(t *testing.T) {
	m, _, _ := buildDiamond(t)
	if err := Verify(m); err != nil {
		t.Fatal(err)
	}
}

func TestDominators(t *testing.T) {
	_, f, bs := buildDiamond(t)
	d := BuildDom(f)
	if d.IDom[bs["left"]] != bs["entry"] || d.IDom[bs["right"]] != bs["entry"] {
		t.Fatal("branches must be dominated by entry")
	}
	if d.IDom[bs["join"]] != bs["entry"] {
		t.Fatalf("join idom = %s, want entry", d.IDom[bs["join"]].Name)
	}
	if !d.Dominates(bs["entry"], bs["join"]) {
		t.Fatal("entry must dominate join")
	}
	if d.Dominates(bs["left"], bs["join"]) {
		t.Fatal("left must not dominate join")
	}
}

func buildLoop(t *testing.T) (*Func, *Block, *Block, *Block) {
	t.Helper()
	m := NewModule("t")
	f := m.NewFunc("f")
	entry := f.NewBlock("entry")
	header := f.NewBlock("header")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")

	eb := entry.Append(OpBr)
	eb.Targets = []*Block{header}

	zero := entry.Insts // silence
	_ = zero
	c := header.Append(OpConst)
	c.Const = 1
	hb := header.Append(OpCondBr, c)
	hb.Targets = []*Block{body, exit}

	bb := body.Append(OpBr)
	bb.Targets = []*Block{header}

	exit.Append(OpRet)
	if err := Verify(m); err != nil {
		t.Fatal(err)
	}
	return f, header, body, exit
}

func TestNaturalLoops(t *testing.T) {
	f, header, body, exit := buildLoop(t)
	d := BuildDom(f)
	loops := d.FindLoops()
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	l := loops[0]
	if l.Header != header {
		t.Fatalf("header = %s", l.Header.Name)
	}
	if !l.Blocks[body] || !l.Blocks[header] || l.Blocks[exit] {
		t.Fatal("loop membership wrong")
	}
	if len(l.Latches) != 1 || l.Latches[0] != body {
		t.Fatal("latch wrong")
	}
	if len(l.Exits) != 1 || l.Exits[0].To != exit {
		t.Fatalf("exits: %+v", l.Exits)
	}
}

func TestVerifyCatchesErrors(t *testing.T) {
	// Use before definition within a block.
	m := NewModule("t")
	f := m.NewFunc("f")
	b := f.NewBlock("entry")
	a := f.NewValue(OpConst)
	a.Const = 1
	use := b.Append(OpAdd, a, a) // a never placed in a block
	_ = use
	b.Append(OpRet)
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Fatalf("err = %v", err)
	}

	// Unterminated block.
	m2 := NewModule("t")
	f2 := m2.NewFunc("f")
	b2 := f2.NewBlock("entry")
	c := b2.Append(OpConst)
	c.Const = 1
	if err := Verify(m2); err == nil {
		t.Fatal("unterminated block accepted")
	}

	// Phi arity mismatch.
	m3, f3, bs := buildDiamond(t)
	join := bs["join"]
	phi := join.Insts[0]
	phi.PhiPreds = phi.PhiPreds[:1]
	_ = f3
	if err := Verify(m3); err == nil || !strings.Contains(err.Error(), "phi") {
		t.Fatalf("err = %v", err)
	}

	// Value dominance violation across blocks.
	m4, _, bs4 := buildDiamond(t)
	lval := bs4["left"].Insts[0]
	bs4["right"].Insts[0].Args = nil
	v := bs4["right"].Func.NewValue(OpAdd)
	v.Args = []*Value{lval, lval}
	bs4["right"].InsertBefore(v, 1)
	if err := Verify(m4); err == nil || !strings.Contains(err.Error(), "dominate") {
		t.Fatalf("err = %v", err)
	}

	// An operand written without the helpers leaves stale use lists.
	_, f5, bs5 := buildDiamond(t)
	if err := VerifyUses(f5); err != nil {
		t.Fatal(err)
	}
	bs5["join"].Insts[1].Args[0] = bs5["entry"].Insts[0]
	if err := VerifyUses(f5); err == nil {
		t.Fatal("a direct operand write passed VerifyUses")
	}
}

func TestPrinterSmoke(t *testing.T) {
	m, _, _ := buildDiamond(t)
	g := m.NewGlobal("vr_rax", 8)
	g.ThreadLocal = true
	s := m.String()
	for _, want := range []string{"func @f()", "phi", "condbr", "thread_local @vr_rax"} {
		if !strings.Contains(s, want) {
			t.Fatalf("printed module missing %q:\n%s", want, s)
		}
	}
}

func TestReplaceAllUses(t *testing.T) {
	m, f, bs := buildDiamond(t)
	phi := bs["join"].Insts[0]
	c := f.NewValue(OpConst)
	c.Const = 5
	bs["join"].InsertBefore(c, 0)
	// Move c to entry so it dominates uses... simpler: replace phi uses.
	bs["join"].RemoveAt(0)
	bs["entry"].InsertBefore(c, 0)
	if phi.NumUses() != 2 || c.NumUses() != 0 {
		t.Fatalf("before: phi has %d uses, c %d; want 2, 0", phi.NumUses(), c.NumUses())
	}
	ReplaceAllUses(phi, c)
	add := bs["join"].Insts[1]
	if add.Args[0] != c || add.Args[1] != c {
		t.Fatal("uses not replaced")
	}
	if phi.NumUses() != 0 || c.NumUses() != 2 {
		t.Fatalf("after: phi has %d uses, c %d; want 0, 2", phi.NumUses(), c.NumUses())
	}
	if err := VerifyUses(f); err != nil {
		t.Fatal(err)
	}
	// phi is now dead but still present; module must still verify after
	// removing it.
	bs["join"].RemoveAt(0)
	if err := Verify(m); err != nil {
		t.Fatal(err)
	}
	if err := VerifyUses(f); err != nil {
		t.Fatal(err)
	}
}

func TestHasResultAndBarrierClassification(t *testing.T) {
	m := NewModule("t")
	f := m.NewFunc("f")
	b := f.NewBlock("entry")
	addr := b.Append(OpConst)
	ld := b.Append(OpLoad, addr)
	ld.Width = 8
	st := b.Append(OpStore, addr, ld)
	st.Width = 8
	fence := b.Append(OpFence)
	fence.Order = OrderAcquire
	rmw := b.Append(OpAtomicRMW, addr, ld)
	b.Append(OpRet)

	if !ld.HasResult() || st.HasResult() || fence.HasResult() || !rmw.HasResult() {
		t.Fatal("HasResult misclassified")
	}
}
