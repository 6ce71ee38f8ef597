package vm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/mx"
)

// Randomized differential for the identity matrix (dispatch_test.go):
// generated guest programs — straight-line streams of
// ALU/memory/stack/atomic/vector instructions with forward-only branches
// (fusion candidates included), self-modifying stores that patch later
// instructions, leaf calls, racy shared-memory traffic from a second thread,
// and enough code volume that instructions straddle page boundaries — must
// behave bit-identically on both machines under the fast and per-step loops
// at every scheduler seed. Register and memory state are folded into the
// exit checksum; cycles, instruction counts, faults, and the per-step
// Counters are compared directly.

// fuzzPool is the register set generated streams may clobber freely. RBX
// holds the scratch-buffer base, R15 is the generator's addressing scratch,
// and RSP/RBP stay untouched.
var fuzzPool = []mx.Reg{
	mx.RAX, mx.RCX, mx.RDX, mx.RSI, mx.RDI,
	mx.R8, mx.R9, mx.R10, mx.R11, mx.R12, mx.R13, mx.R14,
}

var fuzzScales = []uint8{1, 2, 4, 8}

type fuzzGen struct {
	b      *asm.Builder
	r      *rand.Rand
	tag    string // label prefix; both streams share one builder namespace
	labels int
}

func (g *fuzzGen) reg() mx.Reg   { return fuzzPool[g.r.Intn(len(fuzzPool))] }
func (g *fuzzGen) vreg() mx.Reg  { return mx.Reg(g.r.Intn(mx.NumVRegs)) }
func (g *fuzzGen) cond() mx.Cond { return mx.Cond(g.r.Intn(mx.NumConds)) }
func (g *fuzzGen) imm32() int64  { return int64(int32(g.r.Uint32())) }

func (g *fuzzGen) label() string {
	g.labels++
	return fmt.Sprintf("%s_l%d", g.tag, g.labels)
}

// simple emits one non-branching instruction (or a short fixed group, e.g. a
// balanced push/pop pair or an index-masking AND before an indexed access).
// All memory operands stay inside the 4KiB scratch buffer based at RBX.
func (g *fuzzGen) simple() {
	r := g.r
	switch r.Intn(12) {
	case 0:
		ops := []mx.Op{mx.ADDRR, mx.SUBRR, mx.ANDRR, mx.ORRR, mx.XORRR,
			mx.IMULRR, mx.SHLRR, mx.SHRRR, mx.SARRR, mx.CMPRR, mx.TESTRR}
		g.b.I(mx.Inst{Op: ops[r.Intn(len(ops))], Dst: g.reg(), Src: g.reg()})
	case 1:
		ops := []mx.Op{mx.ADDRI, mx.SUBRI, mx.ANDRI, mx.ORRI, mx.XORRI,
			mx.SHLRI, mx.SHRRI, mx.SARRI, mx.IMULRI, mx.CMPRI, mx.TESTRI}
		g.b.I(mx.Inst{Op: ops[r.Intn(len(ops))], Dst: g.reg(), Imm: g.imm32()})
	case 2:
		g.b.MovRR(g.reg(), g.reg())
	case 3:
		g.b.MovRI(g.reg(), int64(r.Uint64()))
	case 4:
		if r.Intn(2) == 0 {
			g.b.I(mx.Inst{Op: mx.LEA, Dst: g.reg(), Base: g.reg(), Disp: int32(r.Uint32())})
		} else {
			g.b.I(mx.Inst{Op: mx.LEAIDX, Dst: g.reg(), Base: g.reg(), Idx: g.reg(),
				Scale: fuzzScales[r.Intn(4)], Disp: int32(r.Uint32())})
		}
	case 5:
		switch r.Intn(4) {
		case 0:
			g.b.I(mx.Inst{Op: mx.SETCC, Dst: g.reg(), Cc: g.cond()})
		case 1:
			g.b.I(mx.Inst{Op: mx.TLSBASE, Dst: g.reg()})
		case 2:
			g.b.I(mx.Inst{Op: mx.NEG, Dst: g.reg()})
		default:
			g.b.I(mx.Inst{Op: mx.NOT, Dst: g.reg()})
		}
	case 6: // plain load, unaligned displacements included
		ops := []mx.Op{mx.LOAD8, mx.LOAD32, mx.LOAD64}
		g.b.I(mx.Inst{Op: ops[r.Intn(3)], Dst: g.reg(), Base: mx.RBX, Disp: int32(r.Intn(4080))})
	case 7: // plain store or store-immediate
		if r.Intn(2) == 0 {
			ops := []mx.Op{mx.STORE8, mx.STORE32, mx.STORE64}
			g.b.I(mx.Inst{Op: ops[r.Intn(3)], Dst: g.reg(), Base: mx.RBX, Disp: int32(r.Intn(4080))})
		} else {
			ops := []mx.Op{mx.STOREI8, mx.STOREI32, mx.STOREI64}
			g.b.I(mx.Inst{Op: ops[r.Intn(3)], Base: mx.RBX, Disp: int32(r.Intn(4080)), Imm: g.imm32()})
		}
	case 8: // indexed access behind an index mask (max 255*8+1990+8 < 4096)
		idx := g.reg()
		g.b.I(mx.Inst{Op: mx.ANDRI, Dst: idx, Imm: 255})
		disp := int32(r.Intn(1990))
		scale := fuzzScales[r.Intn(4)]
		if r.Intn(2) == 0 {
			ops := []mx.Op{mx.LOADIDX8, mx.LOADIDX32, mx.LOADIDX64}
			g.b.I(mx.Inst{Op: ops[r.Intn(3)], Dst: g.reg(), Base: mx.RBX, Idx: idx, Scale: scale, Disp: disp})
		} else {
			ops := []mx.Op{mx.STOREIDX8, mx.STOREIDX32, mx.STOREIDX64}
			g.b.I(mx.Inst{Op: ops[r.Intn(3)], Dst: g.reg(), Base: mx.RBX, Idx: idx, Scale: scale, Disp: disp})
		}
	case 9: // balanced stack pair
		g.b.I(mx.Inst{Op: mx.PUSH, Dst: g.reg()})
		g.b.I(mx.Inst{Op: mx.POP, Dst: g.reg()})
	case 10: // atomics on aligned buffer slots (racy across threads, by design)
		if r.Intn(8) == 0 {
			g.b.I(mx.Inst{Op: mx.MFENCE})
			return
		}
		ops := []mx.Op{mx.LOCKADD, mx.LOCKSUB, mx.LOCKAND, mx.LOCKOR, mx.LOCKXOR,
			mx.LOCKXADD, mx.LOCKINC, mx.LOCKDEC, mx.XCHG, mx.CMPXCHG}
		g.b.I(mx.Inst{Op: ops[r.Intn(len(ops))], Dst: g.reg(), Base: mx.RBX, Disp: int32(8 * r.Intn(512))})
	default: // vector
		switch r.Intn(4) {
		case 0:
			g.b.I(mx.Inst{Op: mx.VLOAD, Dst: g.vreg(), Base: mx.RBX, Disp: int32(8 * r.Intn(500))})
		case 1:
			g.b.I(mx.Inst{Op: mx.VSTORE, Dst: g.vreg(), Base: mx.RBX, Disp: int32(8 * r.Intn(500))})
		case 2:
			ops := []mx.Op{mx.VADD, mx.VMUL}
			g.b.I(mx.Inst{Op: ops[r.Intn(2)], Dst: g.vreg(), Src: g.vreg()})
		default:
			if r.Intn(2) == 0 {
				g.b.I(mx.Inst{Op: mx.VBCAST, Dst: g.vreg(), Src: g.reg()})
			} else {
				g.b.I(mx.Inst{Op: mx.VHADD, Dst: g.reg(), Src: g.vreg()})
			}
		}
	}
}

// flagSetter emits one flag-setting instruction, biased toward the ops the
// threaded engine fuses with a following JCC.
func (g *fuzzGen) flagSetter() {
	ops := []mx.Op{mx.CMPRR, mx.CMPRI, mx.TESTRR, mx.TESTRI, mx.SUBRR, mx.SUBRI, mx.ADDRR, mx.ANDRI}
	op := ops[g.r.Intn(len(ops))]
	if mx.LayoutOf(op) == mx.LayoutRR {
		g.b.I(mx.Inst{Op: op, Dst: g.reg(), Src: g.reg()})
	} else {
		g.b.I(mx.Inst{Op: op, Dst: g.reg(), Imm: g.imm32()})
	}
}

// stream emits n random emissions with forward-only control flow, so every
// generated program terminates.
func (g *fuzzGen) stream(n int, leaves []string) {
	for i := 0; i < n; i++ {
		switch g.r.Intn(10) {
		case 0, 1: // flag setter + forward JCC over a small window (fusion candidate)
			g.flagSetter()
			lbl := g.label()
			g.b.Jcc(g.cond(), lbl)
			for k := g.r.Intn(3); k >= 0; k-- {
				g.simple()
			}
			g.b.Label(lbl)
		case 2: // forward unconditional jump
			lbl := g.label()
			g.b.Jmp(lbl)
			for k := g.r.Intn(2); k >= 0; k-- {
				g.simple()
			}
			g.b.Label(lbl)
		case 3: // self-modifying store patching a later MOVRI's low immediate byte
			lbl := g.label()
			g.b.MovSym(mx.R15, lbl)
			g.b.I(mx.Inst{Op: mx.STOREI8, Base: mx.R15, Disp: 2, Imm: int64(g.r.Intn(256))})
			for k := g.r.Intn(3); k > 0; k-- {
				g.simple()
			}
			g.b.Label(lbl)
			g.b.MovRI(g.reg(), int64(g.r.Uint64()))
		case 4: // leaf call
			g.b.Call(leaves[g.r.Intn(len(leaves))])
		default:
			g.simple()
		}
	}
}

// emitLeaves defines the straight-line leaf functions a stream calls.
func (g *fuzzGen) emitLeaves(names []string) {
	for _, n := range names {
		g.b.Label(n)
		for k := 2 + g.r.Intn(3); k > 0; k-- {
			g.simple()
		}
		g.b.Ret()
	}
}

// buildFuzzImage generates one deterministic two-thread program from
// progSeed: main spawns a worker running its own random stream, runs a
// random stream of its own (the two race on the shared buffer), joins, and
// exits with a checksum over all pool registers and the buffer contents.
func buildFuzzImage(t *testing.T, progSeed int64) *image.Image {
	t.Helper()
	r := rand.New(rand.NewSource(progSeed))
	b := asm.NewBuilder(fmt.Sprintf("fuzz%d", progSeed))
	b.BSS("buf", 4096)
	b.BSS("wtid", 8)
	b.SetTLSSize(64)

	b.Entry("main")
	b.Label("main")
	b.MovSym(mx.RBX, "buf")
	b.MovSym(mx.RDI, "worker")
	b.MovRI(mx.RSI, 0)
	b.CallExt("thread_create")
	b.MovSym(mx.R15, "wtid")
	b.I(mx.Inst{Op: mx.STORE64, Dst: mx.RAX, Base: mx.R15})

	mg := &fuzzGen{b: b, r: r, tag: "m"}
	mleaves := []string{"m_f0", "m_f1", "m_f2"}
	mg.stream(400, mleaves)

	b.MovSym(mx.R15, "wtid")
	b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RDI, Base: mx.R15})
	b.CallExt("thread_join")

	// Checksum: pool registers first, then every quad of the buffer.
	b.MovRI(mx.R15, 0)
	for _, rg := range fuzzPool {
		b.I(mx.Inst{Op: mx.ADDRR, Dst: mx.R15, Src: rg})
	}
	b.MovRI(mx.RCX, 0)
	b.Label("chk")
	b.I(mx.Inst{Op: mx.CMPRI, Dst: mx.RCX, Imm: 512})
	b.Jcc(mx.CondGE, "chkdone")
	b.I(mx.Inst{Op: mx.LOADIDX64, Dst: mx.RAX, Base: mx.RBX, Idx: mx.RCX, Scale: 8})
	b.I(mx.Inst{Op: mx.ADDRR, Dst: mx.R15, Src: mx.RAX})
	b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RCX, Imm: 1})
	b.Jmp("chk")
	b.Label("chkdone")
	b.MovRR(mx.RDI, mx.R15)
	b.I(mx.Inst{Op: mx.ANDRI, Dst: mx.RDI, Imm: 255})
	b.CallExt("exit")
	mg.emitLeaves(mleaves)

	b.Label("worker")
	b.MovSym(mx.RBX, "buf")
	wg := &fuzzGen{b: b, r: r, tag: "w"}
	wleaves := []string{"w_f0", "w_f1", "w_f2"}
	wg.stream(400, wleaves)
	b.MovRI(mx.RAX, 0)
	b.Ret()
	wg.emitLeaves(wleaves)

	img, _, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var textSize uint64
	for i := range img.Sections {
		if img.Sections[i].Exec {
			textSize += img.Sections[i].Size
		}
	}
	if textSize <= 4096 {
		t.Fatalf("generated text is %d bytes; need >1 page so instructions straddle boundaries", textSize)
	}
	return img
}

// TestDispatchFuzzDifferential runs each generated program through every
// cell of the identity matrix at several scheduler seeds.
func TestDispatchFuzzDifferential(t *testing.T) {
	for progSeed := int64(1); progSeed <= 6; progSeed++ {
		progSeed := progSeed
		t.Run(fmt.Sprintf("prog%d", progSeed), func(t *testing.T) {
			t.Parallel()
			img := buildFuzzImage(t, progSeed)
			for _, seed := range []int64{1, 4, 9} {
				// The generator keeps every access in bounds; a fault means
				// lost coverage, not a legitimate program.
				if res := checkMatrix(t, img, seed, core.Input{}, 10_000_000, cells); res.Fault != nil {
					t.Fatalf("seed %d: generated program faults: %v", seed, res.Fault)
				}
			}
		})
	}
}
