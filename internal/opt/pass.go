// Package opt implements the PIR optimization passes that refine the
// verbose lifted IR (§2.2.1) — the reproduction's stand-in for the LLVM
// pass pipeline the paper relies on.
//
// All passes are fence-aware: acquire/release fences and compiler barriers
// emit no machine code on same-ISA lowering, but they pin the order of
// original-program memory accesses. The guest-memory forwarding pass in
// particular can eliminate nothing across a fence, which is exactly why the
// fence-removal optimization (§3.4, internal/spindet) unlocks further
// off-the-shelf optimization and shows up as the FO speedups of Table 2.
package opt

import (
	"fmt"

	"repro/internal/ir"
)

// Pass is one transformation over a function.
type Pass struct {
	Name string
	Run  func(f *ir.Func) bool // reports whether anything changed
}

func passesWith(noCallbacks bool) []Pass {
	return []Pass{
		{"vreg-promote", func(f *ir.Func) bool { return promoteVRegs(f, noCallbacks) }},
		{"vreg-dse", func(f *ir.Func) bool { return vregDeadStoreElim(f, noCallbacks) }},
		{"constfold", ConstFold},
		{"local-forward", LocalForward},
		{"dce", DCE},
		{"simplifycfg", SimplifyCFG},
	}
}

// maxIters bounds fixpoint iteration of the whole pipeline.
const maxIters = 4

// Options controls pipeline execution.
type Options struct {
	// Verify re-checks IR invariants, def-use lists included, on entry and
	// after every pass that changed the function (slow; for tests).
	Verify bool
	// NoCallbacks asserts that the dynamic callback analysis (§3.3.3)
	// proved no guest function is entered from the host: external calls
	// then clobber/preserve nothing of the virtual state, unlocking
	// aggressive elimination around them.
	NoCallbacks bool
}

// Run applies the standard pipeline to every function of m until fixpoint
// (at most maxIters rounds).
func Run(m *ir.Module, opts Options) error {
	for _, f := range m.Funcs {
		if err := RunFunc(f, opts); err != nil {
			return err
		}
	}
	if opts.Verify {
		return ir.Verify(m)
	}
	return nil
}

// RunFunc applies the standard pipeline to the single function f until
// fixpoint (at most maxIters rounds). Every standard pass transforms only f
// and reads nothing mutable outside it, so distinct functions may be
// optimized concurrently — the parallel recompilation pipeline
// (internal/core) fans RunFunc out over a worker pool. Interprocedural
// transformations (Inline) are not part of the standard pipeline and must
// run serially between lifting and RunFunc.
func RunFunc(f *ir.Func, opts Options) error {
	if opts.Verify {
		if err := ir.VerifyUses(f); err != nil {
			return fmt.Errorf("opt: on entry to @%s: %w", f.Name, err)
		}
	}
	passes := passesWith(opts.NoCallbacks)
	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for _, p := range passes {
			if p.Run(f) {
				changed = true
				if opts.Verify {
					err := ir.VerifyFunc(f)
					if err == nil {
						err = ir.VerifyUses(f)
					}
					if err != nil {
						return fmt.Errorf("opt: after %s on @%s: %w", p.Name, f.Name, err)
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	return nil
}

// RemoveFences deletes all fence instructions from f (NOT compiler
// barriers). Applied only when the spinloop analysis proves the program
// implements no implicit synchronization (§3.4), or in unsound-ablation
// benchmarks.
func RemoveFences(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		out := b.Insts[:0]
		for _, v := range b.Insts {
			if v.Op == ir.OpFence {
				changed = true
				continue
			}
			out = append(out, v)
		}
		b.Insts = out
	}
	return changed
}

// CountOps returns the number of instructions with the given op in f
// (test/bench helper).
func CountOps(f *ir.Func, op ir.Op) int {
	n := 0
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			if v.Op == op {
				n++
			}
		}
	}
	return n
}

// FuncSize returns the total instruction count of f.
func FuncSize(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Insts)
	}
	return n
}
