package mx

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randInst generates a random valid instruction for property tests.
func randInst(r *rand.Rand) Inst {
	for {
		op := Op(1 + r.Intn(int(NumOps)-1))
		i := Inst{Op: op}
		gpr := func() Reg { return Reg(r.Intn(NumRegs)) }
		vr := func() Reg { return Reg(r.Intn(NumVRegs)) }
		switch LayoutOf(op) {
		case LayoutR:
			i.Dst = gpr()
		case LayoutRR:
			switch op {
			case VADD, VMUL:
				i.Dst, i.Src = vr(), vr()
			case VBCAST:
				i.Dst, i.Src = vr(), gpr()
			case VHADD:
				i.Dst, i.Src = gpr(), vr()
			default:
				i.Dst, i.Src = gpr(), gpr()
			}
		case LayoutRI:
			i.Dst, i.Imm = gpr(), int64(int32(r.Uint32()))
		case LayoutRI64:
			i.Dst, i.Imm = gpr(), int64(r.Uint64())
		case LayoutRCc:
			i.Dst, i.Cc = gpr(), Cond(r.Intn(NumConds))
		case LayoutMem:
			if op == VLOAD || op == VSTORE {
				i.Dst = vr()
			} else {
				i.Dst = gpr()
			}
			i.Base, i.Disp = gpr(), int32(r.Uint32())
		case LayoutMemI:
			i.Base, i.Disp, i.Imm = gpr(), int32(r.Uint32()), int64(int32(r.Uint32()))
		case LayoutMemIdx:
			i.Dst, i.Base, i.Idx = gpr(), gpr(), gpr()
			i.Scale = []uint8{1, 2, 4, 8}[r.Intn(4)]
			i.Disp = int32(r.Uint32())
		case LayoutRel:
			i.Disp = int32(r.Uint32())
		case LayoutCcRel:
			i.Cc, i.Disp = Cond(r.Intn(NumConds)), int32(r.Uint32())
		case LayoutJmpM:
			i.Base, i.Idx, i.Disp = gpr(), gpr(), int32(r.Uint32())
		case LayoutExt:
			i.Ext = uint16(r.Uint32())
		}
		if i.valid() {
			return i
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randInst(r)
		enc := in.Encode(nil)
		if len(enc) != in.Len() {
			t.Logf("len mismatch: %v encoded to %d bytes, Len()=%d", in, len(enc), in.Len())
			return false
		}
		out, n := Decode(enc)
		if n != len(enc) || out != in {
			t.Logf("roundtrip: in=%#v out=%#v n=%d", in, out, n)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeEmptyAndBad(t *testing.T) {
	if i, n := Decode(nil); i.Op != BAD || n != 0 {
		t.Fatalf("Decode(nil) = %v, %d", i, n)
	}
	if i, n := Decode([]byte{0}); i.Op != BAD || n != 1 {
		t.Fatalf("Decode(BAD) = %v, %d", i, n)
	}
	if i, n := Decode([]byte{byte(NumOps) + 5}); i.Op != BAD || n != 1 {
		t.Fatalf("Decode(out of range) = %v, %d", i, n)
	}
	// Truncated MOVRI.
	if i, n := Decode([]byte{byte(MOVRI), 0, 1, 2}); i.Op != BAD || n != 1 {
		t.Fatalf("Decode(truncated) = %v, %d", i, n)
	}
}

func TestDecodeRejectsBadOperands(t *testing.T) {
	// MOVRR with register 200 must decode as BAD.
	enc := []byte{byte(MOVRR), 200, 0}
	if i, _ := Decode(enc); i.Op != BAD {
		t.Fatalf("bad register accepted: %v", i)
	}
	// MemIdx with scale 3 must decode as BAD.
	bad := Inst{Op: LOADIDX64, Dst: RAX, Base: RBX, Idx: RCX, Scale: 8}
	enc = bad.Encode(nil)
	enc[4] = 3 // corrupt scale
	if i, _ := Decode(enc); i.Op != BAD {
		t.Fatalf("bad scale accepted: %v", i)
	}
	// JCC with condition out of range.
	enc = []byte{byte(JCC), byte(NumConds), 0, 0, 0, 0}
	if i, _ := Decode(enc); i.Op != BAD {
		t.Fatalf("bad condition accepted: %v", i)
	}
}

func TestCondNegate(t *testing.T) {
	for c := Cond(0); c < NumConds; c++ {
		if c.Negate().Negate() != c {
			t.Fatalf("double negate of %v", c)
		}
		if c.Negate() == c {
			t.Fatalf("negate of %v is itself", c)
		}
	}
	want := map[Cond]Cond{
		CondE: CondNE, CondL: CondGE, CondLE: CondG,
		CondB: CondAE, CondBE: CondA, CondS: CondNS,
	}
	for c, n := range want {
		if c.Negate() != n {
			t.Fatalf("negate(%v) = %v, want %v", c, c.Negate(), n)
		}
	}
}

// TestCondNegateSemantics checks Negate against the actual flag semantics:
// for every flag combination, c and c.Negate() must evaluate oppositely.
// (The flag evaluation lives in package vm; here we replicate the truth
// table over the four flag bits symbolically via the vm package's tests, so
// this test only pins the table shape.)

func TestClassifiers(t *testing.T) {
	cases := []struct {
		in                  Inst
		term, indir, atomic bool
	}{
		{Inst{Op: JMP}, true, false, false},
		{Inst{Op: JCC}, true, false, false},
		{Inst{Op: JMPR}, true, true, false},
		{Inst{Op: JMPM}, true, true, false},
		{Inst{Op: RET}, true, false, false},
		{Inst{Op: HLT}, true, false, false},
		{Inst{Op: CALL}, false, false, false},
		{Inst{Op: CALLR}, false, true, false},
		{Inst{Op: CALLX}, false, false, false},
		{Inst{Op: LOCKADD}, false, false, true},
		{Inst{Op: CMPXCHG}, false, false, true},
		{Inst{Op: XCHG}, false, false, true},
		{Inst{Op: MOVRR}, false, false, false},
		{Inst{Op: MFENCE}, false, false, false},
	}
	for _, c := range cases {
		if c.in.IsTerminator() != c.term {
			t.Errorf("%v IsTerminator = %v", c.in.Op, !c.term)
		}
		if c.in.IsIndirect() != c.indir {
			t.Errorf("%v IsIndirect = %v", c.in.Op, !c.indir)
		}
		if c.in.IsAtomic() != c.atomic {
			t.Errorf("%v IsAtomic = %v", c.in.Op, !c.atomic)
		}
	}
}

func TestStringSmoke(t *testing.T) {
	// Every opcode must render without panicking and non-empty.
	r := rand.New(rand.NewSource(1))
	seen := map[Op]bool{}
	for len(seen) < int(NumOps)-1 {
		i := randInst(r)
		seen[i.Op] = true
		if s := i.String(); s == "" {
			t.Fatalf("empty String for %v", i.Op)
		}
	}
	for c := Cond(0); c < NumConds; c++ {
		if c.String() == "" {
			t.Fatalf("empty cond name %d", c)
		}
	}
	for rg := Reg(0); rg < NumRegs; rg++ {
		if rg.String() == "" {
			t.Fatalf("empty reg name %d", rg)
		}
	}
}

func TestDecodeStreamResync(t *testing.T) {
	// A stream of valid instructions decodes back to the same sequence.
	r := rand.New(rand.NewSource(42))
	var insts []Inst
	var buf []byte
	for k := 0; k < 200; k++ {
		in := randInst(r)
		insts = append(insts, in)
		buf = in.Encode(buf)
	}
	pos := 0
	for k := 0; k < len(insts); k++ {
		i, n := Decode(buf[pos:])
		if i != insts[k] {
			t.Fatalf("stream decode diverged at %d: %v != %v", k, i, insts[k])
		}
		pos += n
	}
	if pos != len(buf) {
		t.Fatalf("stream length mismatch: %d != %d", pos, len(buf))
	}
}
