package opt

import (
	"fmt"

	"repro/internal/ir"
)

// Inline expands calls to small leaf functions (no further guest calls)
// that are not external entry points. This is the optimization the dynamic
// callback analysis unlocks (§3.3.3): conservatively, every lifted function
// must stay external (a potential callback) and cannot be inlined; once the
// analysis proves a function is never used as an external entry point, the
// compiler is free to inline it.
//
// The lifted call protocol makes inlining sound without rewriting the
// emulated stack: the caller pre-decrements the virtual rsp and stores the
// return-address slot; the callee's lifted RET post-increments it. Splicing
// the callee body between the two keeps the emulated stack balanced.
func Inline(m *ir.Module, maxSize int) bool {
	changed := false
	for _, f := range m.Funcs {
		for again := true; again; {
			again = false
			for bi := 0; bi < len(f.Blocks); bi++ {
				b := f.Blocks[bi]
				for ii, v := range b.Insts {
					if v.Op != ir.OpCall || v.Fn == nil {
						continue
					}
					callee := v.Fn
					if callee == f || callee.External || !isLeafFunc(callee) ||
						FuncSize(callee) > maxSize {
						continue
					}
					inlineCall(f, b, ii, callee)
					changed = true
					again = true
					break
				}
				if again {
					break
				}
			}
		}
	}
	return changed
}

// isLeafFunc reports whether f contains no calls to lifted functions.
func isLeafFunc(f *ir.Func) bool {
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			if v.Op == ir.OpCall {
				return false
			}
		}
	}
	return true
}

// inlineCall splices a clone of callee in place of the call at b.Insts[idx].
func inlineCall(f *ir.Func, b *ir.Block, idx int, callee *ir.Func) {
	// Split b after the call: tail gets the remaining instructions.
	tail := f.NewBlock(fmt.Sprintf("%s_inl_cont%d", b.Name, idx))
	tailInsts := append([]*ir.Value(nil), b.Insts[idx+1:]...)
	for _, v := range tailInsts {
		v.Block = tail
	}
	tail.Insts = tailInsts
	// Successor phis must now name the tail as their predecessor.
	for _, s := range b.Succs() {
		retargetPhiPred(s, b, tail)
	}
	b.Insts[idx].SetArgs()  // the call leaves the function
	b.Insts = b.Insts[:idx] // drop the call and the tail

	// Clone the callee.
	vmap := map[*ir.Value]*ir.Value{}
	bmap := map[*ir.Block]*ir.Block{}
	for _, cb := range callee.Blocks {
		nb := f.NewBlock(fmt.Sprintf("%s_inl_%s", b.Name, cb.Name))
		nb.OrigAddr = cb.OrigAddr
		bmap[cb] = nb
	}
	for _, cb := range callee.Blocks {
		nb := bmap[cb]
		for _, cv := range cb.Insts {
			nv := f.NewValueLike(cv)
			nv.Block = nb
			nb.Insts = append(nb.Insts, nv)
			vmap[cv] = nv
		}
	}
	// Rewrite operands, targets and phi preds to the clones; RET becomes a
	// branch to the tail.
	for _, cb := range callee.Blocks {
		nb := bmap[cb]
		for j, nv := range nb.Insts {
			var args []*ir.Value
			for _, a := range cb.Insts[j].Args {
				if na, ok := vmap[a]; ok {
					a = na
				}
				args = append(args, a)
			}
			nv.SetArgs(args...)
			for i, t := range nv.Targets {
				nv.Targets[i] = bmap[t]
			}
			for i, p := range nv.PhiPreds {
				nv.PhiPreds[i] = bmap[p]
			}
		}
		if t := nb.Term(); t != nil && t.Op == ir.OpRet {
			nb.RemoveAt(len(nb.Insts) - 1)
			nb.Append(ir.OpBr).Targets = []*ir.Block{tail}
		}
	}
	// Branch from the call site into the cloned entry.
	b.Append(ir.OpBr).Targets = []*ir.Block{bmap[callee.Entry()]}
}
