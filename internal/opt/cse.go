package opt

import "repro/internal/ir"

// LocalCSE performs block-local value numbering over pure operations, so
// that syntactically identical expressions (in particular, recomputed
// emulated-stack addresses like rbp-8) become the same SSA value. This is
// what allows GuestMemForward's identity-based address matching to fire on
// O0-origin code, where every instruction rematerializes its frame-slot
// address.
func LocalCSE(f *ir.Func) bool {
	changed := false
	table := map[cseKey]*ir.Value{}
	for _, b := range f.Blocks {
		clear(table)
		for i := 0; i < len(b.Insts); i++ {
			v := b.Insts[i]
			key, ok := cseKeyOf(v)
			if !ok {
				continue
			}
			if prev, ok := table[key]; ok {
				ir.ReplaceAllUses(v, prev)
				b.RemoveAt(i)
				i--
				changed = true
				continue
			}
			table[key] = v
		}
	}
	return changed
}

// cseKey identifies a pure value up to equality: constants by value,
// addresses by symbol name, everything else by op, predicate and operands.
type cseKey struct {
	op    ir.Op
	pred  ir.Pred
	c     int64
	sym   string
	nargs int
	args  [3]*ir.Value
}

// cseKeyOf returns v's key, or false when v is not a pure operation.
func cseKeyOf(v *ir.Value) (cseKey, bool) {
	k := cseKey{op: v.Op}
	switch v.Op {
	case ir.OpConst:
		k.c = v.Const
	case ir.OpGlobalAddr:
		k.sym = v.Global.Name
	case ir.OpFuncAddr:
		k.sym = v.Fn.Name
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpSRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLshr, ir.OpAshr,
		ir.OpNeg, ir.OpNot, ir.OpICmp, ir.OpSelect:
		if len(v.Args) > len(k.args) {
			return k, false
		}
		k.pred, k.nargs = v.Pred, len(v.Args)
		copy(k.args[:], v.Args)
	default:
		return k, false
	}
	return k, true
}
