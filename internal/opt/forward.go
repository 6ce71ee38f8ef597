package opt

import "repro/internal/ir"

// LocalForward walks each block once with two tables and forwards what the
// block already knows:
//
//   - value numbering over pure operations: a syntactically identical
//     expression (in particular a recomputed emulated-stack address like
//     rbp-8) becomes the earlier SSA value. That is what lets the
//     identity-based address matching below fire on O0-origin code, where
//     every instruction rematerializes its frame-slot address;
//   - fence-aware forwarding over original-program memory accesses: a load
//     observes the value of a preceding store or load at the same address
//     and width, and is replaced; a store to the same address and width with
//     no possible intervening reader makes the earlier store dead.
//
// Memory availability is killed by fences, compiler barriers, atomics, and
// calls. This is the central mechanism by which Lasagne-style fences
// suppress optimization and fence removal (§3.4) restores it: with a fence
// after every load and before every store, nothing is ever forwardable.
//
// Aliasing uses (base, constant-offset) decomposition over the canonicalized
// address form add(base, c): two accesses with the same SSA base and
// non-overlapping offset ranges cannot alias (LLVM BasicAA's same-object
// reasoning); accesses with different bases are conservatively assumed to
// alias. This is what lets the emulated-stack traffic of O0-origin code
// (push/pop slots vs. frame slots, all based on the virtual rsp) be
// disambiguated and eliminated.
func LocalForward(f *ir.Func) bool {
	changed := false
	exprs := map[cseKey]*ir.Value{}
	avail := map[memKey]*ir.Value{}
	lastStore := map[memKey]*ir.Value{}
	dead := map[*ir.Value]bool{}
	for _, b := range f.Blocks {
		clear(exprs)
		clear(avail)
		clear(lastStore)
		for i := 0; i < len(b.Insts); i++ {
			v := b.Insts[i]
			if key, ok := cseKeyOf(v); ok {
				if prev, ok := exprs[key]; ok {
					ir.ReplaceAllUses(v, prev)
					b.RemoveAt(i)
					i--
					changed = true
					continue
				}
				exprs[key] = v
				continue
			}
			switch v.Op {
			case ir.OpLoad:
				k := accessKey(v.Args[0], v.Width, v.SignExt)
				if known := avail[k]; known != nil {
					ir.ReplaceAllUses(v, known)
					b.RemoveAt(i)
					i--
					changed = true
					continue
				}
				avail[k] = v
				// The load may read any store it could alias: those stores
				// are no longer dead candidates.
				for sk := range lastStore {
					if mayAlias(k, sk) {
						delete(lastStore, sk)
					}
				}
			case ir.OpStore:
				k := accessKey(v.Args[0], v.Width, false)
				if prev := lastStore[k]; prev != nil {
					dead[prev] = true
					changed = true
				}
				lastStore[k] = v
				// Kill aliasing availability; record the stored value for
				// same-width 64-bit loads.
				for ak := range avail {
					if mayAlias(k, ak) {
						delete(avail, ak)
					}
				}
				if v.Width == 8 {
					avail[k] = v.Args[1]
				}
			case ir.OpFence, ir.OpBarrier, ir.OpAtomicRMW, ir.OpCmpXchg,
				ir.OpCall, ir.OpCallExt:
				clear(avail)
				clear(lastStore)
			}
		}
	}
	if len(dead) > 0 {
		for _, b := range f.Blocks {
			for i := len(b.Insts) - 1; i >= 0; i-- {
				if dead[b.Insts[i]] {
					b.RemoveAt(i)
				}
			}
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

// memKey identifies a memory access as (base, offset, width, sext).
type memKey struct {
	base  *ir.Value
	off   int64
	width int
	sext  bool
}

// accessKey decomposes addr into (base, constant offset).
func accessKey(addr *ir.Value, width int, sext bool) memKey {
	base, off := addr, int64(0)
	for base.Op == ir.OpAdd {
		if c := base.Args[1]; c.Op == ir.OpConst {
			off += c.Const
			base = base.Args[0]
			continue
		}
		break
	}
	return memKey{base: base, off: off, width: width, sext: sext}
}

// mayAlias reports whether two decomposed accesses can overlap.
func mayAlias(a, b memKey) bool {
	if a.base != b.base {
		return true // unknown relation
	}
	return a.off < b.off+int64(b.width) && b.off < a.off+int64(a.width)
}
