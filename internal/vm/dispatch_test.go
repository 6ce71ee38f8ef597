package vm_test

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/mx"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// The identity matrix has two axes. Machine: the image as built (mx64) or
// the same image tagged mx64w, whose plain loads and stores go through the
// store buffer. Loop: the fast loop with counters off, or the per-step
// reference loop with counters on. Every cell must produce the same Result
// (exit code, cycles, instruction count, output, fault) as the mx64
// per-step cell, and the two per-step cells' Counters must agree outside
// TLBHits/TLBMisses, which the store buffer legitimately moves: forwarded
// loads skip a translation, and a buffered store translates when it is
// buffered and again when it drains.

// cell is one machine × loop combination of the identity matrix.
type cell struct{ weak, counted bool }

var (
	cells = []cell{{false, true}, {false, false}, {true, false}, {true, true}}
	// fastCells is the machine axis alone, on the fast loop.
	fastCells = []cell{{false, false}, {true, false}}
)

func (c cell) String() string {
	machine, loop := "mx64", "fast"
	if c.weak {
		machine = "mx64w"
	}
	if c.counted {
		loop = "per-step"
	}
	return machine + "/" + loop
}

// runCell runs img with input in in cell c; hook, if non-nil, configures
// the machine (block hooks) before Run.
func runCell(t *testing.T, img *image.Image, seed int64, in core.Input, c cell, fuel uint64, hook func(*vm.Machine)) (vm.Result, *vm.Counters) {
	t.Helper()
	if c.weak {
		img = weakClone(img)
	}
	m, err := vm.NewWithExts(img, seed, in.Exts)
	if err != nil {
		t.Fatal(err)
	}
	if in.Data != nil {
		m.SetInput(in.Data)
	}
	if hook != nil {
		hook(m)
	}
	var ctr *vm.Counters
	if c.counted {
		ctr = m.EnableCounters()
	}
	return m.Run(fuel), ctr
}

// withoutTLB returns a copy of c with the TLB outcome counts zeroed.
func withoutTLB(c *vm.Counters) *vm.Counters {
	out := c.Clone()
	out.TLBHits, out.TLBMisses = 0, 0
	return out
}

// checkMatrix runs img in every cell of cs at one seed, fails the test on
// any divergence from cs[0], and returns cs[0]'s Result.
func checkMatrix(t *testing.T, img *image.Image, seed int64, in core.Input, fuel uint64, cs []cell) vm.Result {
	t.Helper()
	var ref vm.Result
	var refCtr *vm.Counters
	for i, c := range cs {
		res, ctr := runCell(t, img, seed, in, c, fuel, nil)
		if i == 0 {
			ref, refCtr = res, ctr
			continue
		}
		if !sameResult(ref, res) {
			t.Fatalf("seed %d: %v diverges from %v:\n  %v: %+v\n  %v: %+v",
				seed, c, cs[0], cs[0], ref, c, res)
		}
		if ctr != nil && !reflect.DeepEqual(withoutTLB(refCtr), withoutTLB(ctr)) {
			t.Fatalf("seed %d: %v counters diverge from %v outside the TLB:\n  %+v\n  %+v",
				seed, c, cs[0], refCtr, ctr)
		}
	}
	return ref
}

// TestDispatchIdentity runs every workload's O2 image through the identity
// matrix, and its O0 image through the machine axis on the fast loop, at
// every seed in identitySeeds. The counters-off cells exercise the fast
// loop (inline micro-ops, flat runs, fused pairs, promoted control flow,
// grant extension); the mx64w cells are the regression test for stack ops
// that bypassed the store buffer, which made the gapbs kernels fault or
// exit early on mx64w (tc_64 only at O0).
func TestDispatchIdentity(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, run := range []struct {
				opt   int
				cells []cell
			}{{2, cells}, {0, fastCells}} {
				img, err := w.Compile(run.opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, seed := range identitySeeds {
					checkMatrix(t, img, seed, w.Input(), bench.Fuel, run.cells)
				}
			}
		})
	}
}

// TestDispatchSelfModifyingStore runs the self-modifying-code contract in
// every cell: compiled page state (handler table, fused pairs, flat-run
// metadata) built from stale bytes must be dropped when the guest stores
// over its code. The patched instruction starts in the last byte of one
// page and its immediate straddles into the next, with the store landing
// in the second page, so this also covers the predecessor-page
// invalidation rule.
func TestDispatchSelfModifyingStore(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		for i := 0; i < pagePad; i++ {
			b.I(mx.Inst{Op: mx.NOP})
		}
		b.Label("patch")
		b.MovRI(mx.RAX, 111)
		b.Ret()
		b.Entry("main")
		b.Label("main")
		b.MovSym(mx.RBX, "patch")
		b.Call("patch") // first execution compiles the page: rax=111
		// Overwrite the MOVRI's low immediate byte (patch+2) with 222.
		b.I(mx.Inst{Op: mx.STOREI8, Base: mx.RBX, Disp: 2, Imm: 222})
		b.Call("patch") // must observe the new bytes: rax=222
		b.MovRR(mx.RDI, mx.RAX)
		b.CallExt("exit")
	})
	mustExit(t, checkMatrix(t, img, 1, core.Input{}, 1_000_000, cells), 222)
}

// TestDispatchFlatRunSelfPatch stores over the instruction that immediately
// follows the store in straight-line code. Both instructions can sit in one
// precomputed flat run, so the fast loop must observe the invalidation
// mid-run and refetch before executing the patched instruction: executing
// the stale immediate (111) instead of the patched one (222) means a flat
// run outlived its page's bytes.
func TestDispatchFlatRunSelfPatch(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.Entry("main")
		b.Label("main")
		b.MovSym(mx.RBX, "tgt")
		// Patch the low immediate byte (tgt+2) of the MOVRI directly below.
		b.I(mx.Inst{Op: mx.STOREI8, Base: mx.RBX, Disp: 2, Imm: 222})
		b.Label("tgt")
		b.MovRI(mx.RDI, 111)
		b.CallExt("exit")
	})
	mustExit(t, checkMatrix(t, img, 1, core.Input{}, 1_000_000, cells), 222)
}

// TestDispatchFusedPairsAtSliceBoundaries runs two threads through tight
// loops whose bodies are dense flag-setter+JCC fusion candidates. The
// scheduler quantum (41) is odd and coprime to the loop body length, so over
// thousands of iterations the step budget expires at every phase of the body
// — in particular between a flag setter and its branch, where the fast loop
// must retire exactly one instruction rather than let the fused pair
// overrun the slice. An overrun shifts every later preemption boundary but
// leaves the Result alone (the threads only meet in one LOCKADD), so the
// witness is the block-hook trace: every cell's sequence of (thread, pc)
// block entries must equal the mx64 per-step loop's.
func TestDispatchFusedPairsAtSliceBoundaries(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.BSS("sum", 8)
		b.Entry("main")
		b.Label("main")
		b.MovSym(mx.RDI, "w")
		b.MovRI(mx.RSI, 0)
		b.CallExt("thread_create")
		b.MovRR(mx.R13, mx.RAX)
		b.MovSym(mx.RDI, "w")
		b.MovRI(mx.RSI, 0)
		b.CallExt("thread_create")
		b.MovRR(mx.R14, mx.RAX)
		b.MovRR(mx.RDI, mx.R13)
		b.CallExt("thread_join")
		b.MovRR(mx.RDI, mx.R14)
		b.CallExt("thread_join")
		b.MovSym(mx.RBX, "sum")
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RDI, Base: mx.RBX})
		b.I(mx.Inst{Op: mx.ANDRI, Dst: mx.RDI, Imm: 255})
		b.CallExt("exit")

		b.Label("w")
		b.MovRI(mx.R12, 0)
		b.MovRI(mx.RAX, 0)
		b.Label("wl")
		b.I(mx.Inst{Op: mx.TESTRR, Dst: mx.R12, Src: mx.R12})
		b.Jcc(mx.CondS, "s1") // never taken: r12 stays non-negative
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RAX, Imm: 3})
		b.Label("s1")
		b.I(mx.Inst{Op: mx.CMPRI, Dst: mx.R12, Imm: 700})
		b.Jcc(mx.CondG, "s2") // taken for the tail of the loop
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RAX, Imm: 1})
		b.Label("s2")
		b.I(mx.Inst{Op: mx.SUBRI, Dst: mx.RAX, Imm: 1}) // SUB+JCC fusion
		b.Jcc(mx.CondE, "s3")
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RAX, Imm: 2})
		b.Label("s3")
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.R12, Imm: 1})
		b.I(mx.Inst{Op: mx.CMPRI, Dst: mx.R12, Imm: 1500})
		b.Jcc(mx.CondL, "wl") // backward fused pair
		b.MovSym(mx.RBX, "sum")
		b.I(mx.Inst{Op: mx.LOCKADD, Dst: mx.RAX, Base: mx.RBX})
		b.MovRI(mx.RAX, 0)
		b.Ret()
	})
	type entry struct {
		tid int
		pc  uint64
	}
	for _, seed := range []int64{1, 2, 3, 5, 9} {
		var refTrace []entry
		var ref vm.Result
		for i, c := range cells {
			var trace []entry
			res, _ := runCell(t, img, seed, core.Input{}, c, 50_000_000, func(m *vm.Machine) {
				m.OnBlock = func(th *vm.Thread, pc uint64) { trace = append(trace, entry{th.ID, pc}) }
			})
			if res.Fault != nil {
				t.Fatalf("seed %d %v: fault: %v", seed, c, res.Fault)
			}
			if i == 0 {
				ref, refTrace = res, trace
				continue
			}
			if !sameResult(ref, res) {
				t.Fatalf("seed %d: %v diverges from %v:\n  %+v\n  %+v", seed, c, cells[0], ref, res)
			}
			if !reflect.DeepEqual(refTrace, trace) {
				n := 0
				for n < len(trace) && n < len(refTrace) && trace[n] == refTrace[n] {
					n++
				}
				t.Fatalf("seed %d: %v block trace diverges from %v at entry %d of %d/%d",
					seed, c, cells[0], n, len(trace), len(refTrace))
			}
		}
	}
}
