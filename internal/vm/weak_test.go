package vm_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/mx"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Weak-ordering machine mode (weak.go): store-buffer forwarding semantics,
// the stack-op drain rule, the observational-equivalence guarantee against
// the default machine, and the fence/spill machine counters the cross-ISA
// bench reads. The identity matrix (dispatch_test.go) runs every workload
// on both machines.

// weakClone returns img tagged for the weakly-ordered machine mode.
func weakClone(img *image.Image) *image.Image {
	out := img.Clone()
	out.Machine = "mx64w"
	return out
}

// TestWeakModeForwardingSemantics exercises every store-buffer path in one
// program: exact-match store-to-load forwarding, a partial-overlap load
// (drains, then reads merged memory), a capacity drain (more buffered
// stores than sbCap), and a fence drain. The program computes a checksum
// and must produce it identically on both machines.
func TestWeakModeForwardingSemantics(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.BSS("buf", 128)
		b.Entry("main")
		b.Label("main")
		b.MovSym(mx.RBX, "buf")

		// Exact-match forwarding: an 8-byte store, loaded right back.
		b.MovRI(mx.RDX, 0x1234)
		b.I(mx.Inst{Op: mx.STORE64, Dst: mx.RDX, Base: mx.RBX})
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RDI, Base: mx.RBX})

		// Partial overlap: a byte store into the middle of the quad, then an
		// 8-byte load over it — the weak machine must drain and read the
		// merged bytes (0x1234 with byte 1 replaced by 0x56 = 0x5634).
		b.MovRI(mx.RCX, 0x56)
		b.I(mx.Inst{Op: mx.STORE8, Dst: mx.RCX, Base: mx.RBX, Disp: 1})
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RAX, Base: mx.RBX})
		b.I(mx.Inst{Op: mx.ADDRR, Dst: mx.RDI, Src: mx.RAX})

		// Capacity drain: 12 distinct slots (> sbCap 8) written, fence, then
		// summed back from memory.
		b.MovRI(mx.RCX, 0)
		b.Label("fill")
		b.I(mx.Inst{Op: mx.CMPRI, Dst: mx.RCX, Imm: 12})
		b.Jcc(mx.CondGE, "fence")
		b.MovRR(mx.RDX, mx.RCX)
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RDX, Imm: 1})
		b.I(mx.Inst{Op: mx.STOREIDX64, Dst: mx.RDX, Base: mx.RBX, Idx: mx.RCX, Scale: 8, Disp: 16})
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RCX, Imm: 1})
		b.Jmp("fill")
		b.Label("fence")
		b.I(mx.Inst{Op: mx.MFENCE})
		b.MovRI(mx.RCX, 0)
		b.Label("sum")
		b.I(mx.Inst{Op: mx.CMPRI, Dst: mx.RCX, Imm: 12})
		b.Jcc(mx.CondGE, "done")
		b.I(mx.Inst{Op: mx.LOADIDX64, Dst: mx.RAX, Base: mx.RBX, Idx: mx.RCX, Scale: 8, Disp: 16})
		b.I(mx.Inst{Op: mx.ADDRR, Dst: mx.RDI, Src: mx.RAX})
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RCX, Imm: 1})
		b.Jmp("sum")
		b.Label("done")
		// Fold to a single byte so the checksum fits an exit code.
		b.I(mx.Inst{Op: mx.ANDRI, Dst: mx.RDI, Imm: 0x7f})
		b.CallExt("exit")
	})

	// Expected checksum: 0x1234 + 0x5634 + (1+2+...+12), masked.
	want := (0x1234 + 0x5634 + 78) & 0x7f

	strong := run(t, img)
	mustExit(t, strong, want)

	m, err := vm.New(weakClone(img), 1)
	if err != nil {
		t.Fatal(err)
	}
	weak := m.Run(50_000_000)
	mustExit(t, weak, want)
	if strong.Output != weak.Output {
		t.Fatalf("output diverged: %q vs %q", strong.Output, weak.Output)
	}
}

// TestWeakModeStackOpsDrainOverlappingStores pins the stack-op drain rule:
// PUSH and POP access their slot in memory directly, so on mx64w they must
// first drain a buffered store that overlaps the slot. In the push case a
// plain store of 7 to [rsp-8] is still buffered when PUSH writes 42 to the
// same slot, and the load of [rsp] must see 42 (without the drain it
// forwards the stale 7). In the pop case a buffered store of 5 over the
// pushed slot must reach POP (without the drain POP reads the pushed 42).
func TestWeakModeStackOpsDrainOverlappingStores(t *testing.T) {
	for _, tc := range []struct {
		name string
		want int
		body func(b *asm.Builder)
	}{
		{"push", 42, func(b *asm.Builder) {
			b.MovRI(mx.RDX, 7)
			b.I(mx.Inst{Op: mx.STORE64, Dst: mx.RDX, Base: mx.RSP, Disp: -8})
			b.MovRI(mx.RCX, 42)
			b.I(mx.Inst{Op: mx.PUSH, Dst: mx.RCX})
			b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RDI, Base: mx.RSP})
		}},
		{"pop", 5, func(b *asm.Builder) {
			b.MovRI(mx.RCX, 42)
			b.I(mx.Inst{Op: mx.PUSH, Dst: mx.RCX})
			b.MovRI(mx.RDX, 5)
			b.I(mx.Inst{Op: mx.STORE64, Dst: mx.RDX, Base: mx.RSP})
			b.I(mx.Inst{Op: mx.POP, Dst: mx.RDI})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := build(t, func(b *asm.Builder) {
				b.Entry("main")
				b.Label("main")
				tc.body(b)
				b.CallExt("exit")
			})
			mustExit(t, checkMatrix(t, img, 1, core.Input{}, 1_000, cells), tc.want)
		})
	}
}

// TestWeakModeHostFrameResumeDrains sorts with a guest comparator that
// stores *a back before returning *a - *b. The comparator RETs into qsort's
// host frame, which swaps elements through guest memory directly; the weak
// machine must drain the comparator's buffered store before the swap, or a
// later drain writes the stale *a over the swapped slot. The program exits
// with sum((i+1)*arr[i]) over the sorted array, 225, in every cell.
func TestWeakModeHostFrameResumeDrains(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.DataLabel("arr")
		for _, v := range []uint64{5, 3, 8, 1, 9, 2, 7, 4} {
			b.DataQuad(v)
		}
		b.Entry("main")
		b.Label("main")
		b.MovSym(mx.RDI, "arr")
		b.MovRI(mx.RSI, 8)
		b.MovRI(mx.RDX, 8)
		b.MovSym(mx.RCX, "cmp")
		b.CallExt("qsort")
		b.MovSym(mx.RBX, "arr")
		b.MovRI(mx.RDI, 0)
		b.MovRI(mx.R12, 0)
		b.Label("sum")
		b.I(mx.Inst{Op: mx.CMPRI, Dst: mx.R12, Imm: 8})
		b.Jcc(mx.CondGE, "done")
		b.I(mx.Inst{Op: mx.LOADIDX64, Dst: mx.RAX, Base: mx.RBX, Idx: mx.R12, Scale: 8})
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.R12, Imm: 1})
		b.I(mx.Inst{Op: mx.IMULRR, Dst: mx.RAX, Src: mx.R12})
		b.I(mx.Inst{Op: mx.ADDRR, Dst: mx.RDI, Src: mx.RAX})
		b.Jmp("sum")
		b.Label("done")
		b.CallExt("exit")

		b.Label("cmp")
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RAX, Base: mx.RDI})
		b.I(mx.Inst{Op: mx.STORE64, Dst: mx.RAX, Base: mx.RDI})
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RCX, Base: mx.RSI})
		b.I(mx.Inst{Op: mx.SUBRR, Dst: mx.RAX, Src: mx.RCX})
		b.Ret()
	})
	mustExit(t, checkMatrix(t, img, 1, core.Input{}, 1_000_000, cells), 225)
}

// TestWeakModeMatchesDefaultOnThreadedWorkload runs the 4-thread lock-add
// workload on both machines at several seeds: the weak machine drains the
// store buffer before any other thread executes, so every execution stays
// observationally sequentially consistent and the results agree exactly.
func TestWeakModeMatchesDefaultOnThreadedWorkload(t *testing.T) {
	img := threadedCounterImage(t)
	weak := weakClone(img)
	for _, seed := range []int64{1, 2, 3} {
		ms, err := vm.New(img, seed)
		if err != nil {
			t.Fatal(err)
		}
		rs := ms.Run(50_000_000)
		mw, err := vm.New(weak, seed)
		if err != nil {
			t.Fatal(err)
		}
		rw := mw.Run(50_000_000)
		if rs.Fault != nil || rw.Fault != nil {
			t.Fatalf("seed %d: faults %v / %v", seed, rs.Fault, rw.Fault)
		}
		if rs.ExitCode != rw.ExitCode || rs.Output != rw.Output {
			t.Fatalf("seed %d: default %d/%q, weak %d/%q",
				seed, rs.ExitCode, rs.Output, rw.ExitCode, rw.Output)
		}
	}
}

// TestUnknownMachineModeErrors: an image demanding a machine mode this VM
// does not implement must be rejected at construction, not misrun.
func TestUnknownMachineModeErrors(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.Entry("main")
		b.Label("main")
		b.MovRI(mx.RDI, 0)
		b.CallExt("exit")
	})
	bad := img.Clone()
	bad.Machine = "mx96"
	if _, err := vm.New(bad, 1); err == nil {
		t.Fatal("vm.New accepted an unknown machine mode")
	}
}

// TestCountersFenceAndSpillAccounting retires a known mix of fences and
// frame-slot accesses: 2 fences; 3 spill-idiom ops (8-byte rbp-relative
// negative displacement), with a global-based store and a positive-
// displacement load as non-counting controls.
func TestCountersFenceAndSpillAccounting(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.BSS("g", 16)
		b.Entry("main")
		b.Label("main")
		b.MovRR(mx.RBP, mx.RSP)
		b.I(mx.Inst{Op: mx.SUBRI, Dst: mx.RSP, Imm: 32})
		b.MovRI(mx.RDX, 41)
		b.I(mx.Inst{Op: mx.STORE64, Dst: mx.RDX, Base: mx.RBP, Disp: -8}) // spill
		b.I(mx.Inst{Op: mx.MFENCE})
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RAX, Base: mx.RBP, Disp: -8})  // spill
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RCX, Base: mx.RBP, Disp: -16}) // spill
		b.I(mx.Inst{Op: mx.MFENCE})
		b.MovSym(mx.RBX, "g")
		b.I(mx.Inst{Op: mx.STORE64, Dst: mx.RDX, Base: mx.RBX})         // control: global base
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RCX, Base: mx.RBX, Disp: 8}) // control: positive disp
		b.MovRR(mx.RDI, mx.RAX)
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RDI, Imm: 1})
		b.CallExt("exit")
	})
	res, c := runCounted(t, img, 1)
	mustExit(t, res, 42)
	if c.Fences != 2 {
		t.Errorf("Fences = %d, want 2", c.Fences)
	}
	if c.SpillOps != 3 {
		t.Errorf("SpillOps = %d, want 3", c.SpillOps)
	}
	if c.OpClassCounts[vm.OpClassFence] != 2 {
		t.Errorf("fence class = %d, want 2", c.OpClassCounts[vm.OpClassFence])
	}
}

// sbDigests runs img on the weak machine at seed and returns its Result and,
// for every OnBlock call, a digest of the entering thread and PC, the buffer
// owner and every thread's buffered stores. With ref nil it runs the
// per-step loop. Otherwise it runs the fast loop and cancels the run at the
// first digest that differs from ref's, which then ends the digests.
func sbDigests(t *testing.T, img *image.Image, in core.Input, seed int64, ref []uint64) (vm.Result, []uint64) {
	t.Helper()
	m, err := vm.NewWithExts(weakClone(img), seed, in.Exts)
	if err != nil {
		t.Fatal(err)
	}
	if in.Data != nil {
		m.SetInput(in.Data)
	}
	if ref == nil {
		m.EnableCounters()
	}
	stop := make(chan struct{})
	m.SetCancel(stop)
	var digests []uint64
	diverged := false
	m.OnBlock = func(th *vm.Thread, pc uint64) {
		if diverged {
			return // cancelled: the run is stopping
		}
		bufs, owner := m.StoreBuffers()
		h := fnv.New64a()
		fmt.Fprint(h, th.ID, pc, owner, bufs)
		digests = append(digests, h.Sum64())
		if n := len(digests); ref != nil && (n > len(ref) || digests[n-1] != ref[n-1]) {
			diverged = true
			close(stop)
		}
	}
	return m.Run(bench.Fuel), digests
}

// TestWeakModeStoreBufferIdentity holds the fast loop's inline weak
// micro-ops to the handlers' store-buffer semantics: at every block entry,
// every thread's buffer (each store's address, value and width, in order)
// and the buffer owner must be what the per-step loop, which runs every
// access through the handlers, holds there. The images, over a seed sweep,
// are the generated programs of TestDispatchFuzzDifferential, histogram
// and ck_mcs at O2 tagged mx64w, and ck_mcs at O0 recompiled for mx64w.
func TestWeakModeStoreBufferIdentity(t *testing.T) {
	type prog struct {
		name string
		img  *image.Image
		in   core.Input
	}
	var progs []prog
	for progSeed := int64(1); progSeed <= 6; progSeed++ {
		progs = append(progs, prog{fmt.Sprintf("fuzz%d", progSeed), buildFuzzImage(t, progSeed), core.Input{}})
	}
	for _, name := range []string{"histogram", "ck_mcs"} {
		w := workloads.ByName(name)
		img, err := w.Compile(2)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{name, img, w.Input()})
	}
	w := workloads.ByName("ck_mcs")
	img, err := w.Compile(0)
	if err != nil {
		t.Fatal(err)
	}
	o := core.DefaultOptions()
	o.Target = "mx64w"
	p, err := core.NewProject(img, o)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.Recompile()
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, prog{"ck_mcs_mx64w", rec, w.Input()})

	for _, pr := range progs {
		pr := pr
		t.Run(pr.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 6; seed++ {
				step, sd := sbDigests(t, pr.img, pr.in, seed, nil)
				if step.Fault != nil {
					t.Fatalf("seed %d: per-step loop: fault: %v", seed, step.Fault)
				}
				fast, fd := sbDigests(t, pr.img, pr.in, seed, sd)
				if n := len(fd); n > 0 && (n > len(sd) || fd[n-1] != sd[n-1]) {
					t.Fatalf("seed %d: store buffers diverge at block entry %d of %d", seed, n-1, len(sd))
				}
				if !sameResult(fast, step) || len(fd) != len(sd) {
					t.Fatalf("seed %d: fast loop %+v after %d block entries, per-step loop %+v after %d",
						seed, fast, len(fd), step, len(sd))
				}
			}
		})
	}
}
