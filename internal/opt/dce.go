package opt

import "repro/internal/ir"

// DCE removes result-producing instructions with no uses and no side
// effects. Unused loads are removable (matching LLVM's treatment); stores,
// atomics, calls, fences, barriers and terminators are never removed here.
func DCE(f *ir.Func) bool {
	removable := func(v *ir.Value) bool {
		switch v.Op {
		case ir.OpConst, ir.OpGlobalAddr, ir.OpFuncAddr, ir.OpUndef,
			ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpSRem,
			ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLshr, ir.OpAshr,
			ir.OpNeg, ir.OpNot, ir.OpICmp, ir.OpSelect,
			ir.OpLoad, ir.OpVRegLoad, ir.OpPhi:
			return true
		}
		return false
	}
	changed := false
	for {
		removed := false
		for _, b := range f.Blocks {
			for i := len(b.Insts) - 1; i >= 0; i-- {
				v := b.Insts[i]
				if removable(v) && v.NumUses() == 0 {
					b.RemoveAt(i)
					removed = true
				}
			}
		}
		if !removed {
			break
		}
		changed = true
	}
	return changed
}
