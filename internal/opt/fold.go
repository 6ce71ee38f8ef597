package opt

import "repro/internal/ir"

// ConstFold folds constant expressions, simplifies algebraic identities,
// collapses icmp-of-icmp chains (the shape lifted JCC sequences take after
// vreg promotion), and resolves constant branches.
func ConstFold(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		for i := 0; i < len(b.Insts); i++ {
			v := b.Insts[i]
			if r := simplify(f, v); r != nil && r != v {
				// The replacement must be placed if it is a fresh value.
				if r.Block == nil {
					b.InsertBefore(r, i)
					i++
				}
				ir.ReplaceAllUses(v, r)
				// Remove the simplified instruction (it is pure by
				// construction — only pure ops are simplified).
				for j, in := range b.Insts {
					if in == v {
						b.RemoveAt(j)
						if j <= i {
							i--
						}
						break
					}
				}
				changed = true
			}
		}
		// Constant terminators.
		t := b.Term()
		if t == nil {
			continue
		}
		switch t.Op {
		case ir.OpCondBr:
			if c, ok := constOf(t.Args[0]); ok {
				target := t.Targets[0]
				dead := t.Targets[1]
				if c == 0 {
					target, dead = dead, target
				}
				replaceTerm(b, target)
				removePhiEdge(dead, b)
				changed = true
			} else if t.Targets[0] == t.Targets[1] {
				// Both edges identical: drop one phi edge, then branch.
				removePhiEdge(t.Targets[0], b)
				replaceTerm(b, t.Targets[0])
				changed = true
			}
		case ir.OpSwitch:
			if c, ok := constOf(t.Args[0]); ok {
				target := t.Targets[0]
				for i, sv := range t.SwitchVals {
					if sv == c {
						target = t.Targets[i+1]
						break
					}
				}
				// Edge counts drop to 1 for target, 0 for everything else;
				// remove the corresponding phi entries.
				counts := map[*ir.Block]int{}
				for _, tb := range t.Targets {
					counts[tb]++
				}
				for tb, cnt := range counts {
					keep := 0
					if tb == target {
						keep = 1
					}
					for k := cnt; k > keep; k-- {
						removePhiEdge(tb, b)
					}
				}
				replaceTerm(b, target)
				changed = true
			}
		}
	}
	return changed
}

func constOf(v *ir.Value) (int64, bool) {
	if v.Op == ir.OpConst {
		return v.Const, true
	}
	return 0, false
}

// newConst makes an unplaced constant value.
func newConst(f *ir.Func, c int64) *ir.Value {
	v := f.NewValue(ir.OpConst)
	v.Const = c
	return v
}

// simplify returns a replacement for v, or nil.
func simplify(f *ir.Func, v *ir.Value) *ir.Value {
	bin := func() (int64, int64, bool) {
		a, ok1 := constOf(v.Args[0])
		b, ok2 := constOf(v.Args[1])
		return a, b, ok1 && ok2
	}
	switch v.Op {
	case ir.OpAdd:
		if a, b, ok := bin(); ok {
			return newConst(f, a+b)
		}
		if c, ok := constOf(v.Args[1]); ok && c == 0 {
			return v.Args[0]
		}
		if c, ok := constOf(v.Args[0]); ok && c == 0 {
			return v.Args[1]
		}
		// (x + c1) + c2 -> x + (c1+c2)
		if c2, ok := constOf(v.Args[1]); ok {
			if in := v.Args[0]; in.Op == ir.OpAdd {
				if c1, ok := constOf(in.Args[1]); ok {
					b := v.Block
					pos := 0
					for i, in2 := range b.Insts {
						if in2 == v {
							pos = i
							break
						}
					}
					nc := newConst(f, c1+c2)
					b.InsertBefore(nc, pos)
					nv := f.NewValue(ir.OpAdd)
					nv.SetArgs(in.Args[0], nc)
					b.InsertBefore(nv, pos+1)
					return nv
				}
			}
		}
	case ir.OpSub:
		if a, b, ok := bin(); ok {
			return newConst(f, a-b)
		}
		if v.Args[0] == v.Args[1] {
			return newConst(f, 0)
		}
		// Canonicalize x - c to x + (-c) so address chains over the
		// emulated stack fold into (base, offset) form.
		if c, ok := constOf(v.Args[1]); ok && c != -c {
			if c == 0 {
				return v.Args[0]
			}
			b := v.Block
			pos := 0
			for i, in2 := range b.Insts {
				if in2 == v {
					pos = i
					break
				}
			}
			nc := newConst(f, -c)
			b.InsertBefore(nc, pos)
			nv := f.NewValue(ir.OpAdd)
			nv.SetArgs(v.Args[0], nc)
			b.InsertBefore(nv, pos+1)
			return nv
		}
		if c, ok := constOf(v.Args[1]); ok && c == 0 {
			return v.Args[0]
		}
	case ir.OpMul:
		if a, b, ok := bin(); ok {
			return newConst(f, a*b)
		}
		if c, ok := constOf(v.Args[1]); ok {
			switch c {
			case 0:
				return newConst(f, 0)
			case 1:
				return v.Args[0]
			}
		}
	case ir.OpSDiv:
		if a, b, ok := bin(); ok && b != 0 {
			return newConst(f, a/b)
		}
		if c, ok := constOf(v.Args[1]); ok && c == 1 {
			return v.Args[0]
		}
	case ir.OpSRem:
		if a, b, ok := bin(); ok && b != 0 {
			return newConst(f, a%b)
		}
	case ir.OpAnd:
		if a, b, ok := bin(); ok {
			return newConst(f, a&b)
		}
		if c, ok := constOf(v.Args[1]); ok {
			if c == 0 {
				return newConst(f, 0)
			}
			if c == -1 {
				return v.Args[0]
			}
		}
		if v.Args[0] == v.Args[1] {
			return v.Args[0]
		}
	case ir.OpOr:
		if a, b, ok := bin(); ok {
			return newConst(f, a|b)
		}
		if c, ok := constOf(v.Args[1]); ok && c == 0 {
			return v.Args[0]
		}
		if c, ok := constOf(v.Args[0]); ok && c == 0 {
			return v.Args[1]
		}
		if v.Args[0] == v.Args[1] {
			return v.Args[0]
		}
	case ir.OpXor:
		if a, b, ok := bin(); ok {
			return newConst(f, a^b)
		}
		if c, ok := constOf(v.Args[1]); ok && c == 0 {
			return v.Args[0]
		}
		if v.Args[0] == v.Args[1] {
			return newConst(f, 0)
		}
	case ir.OpShl:
		if a, b, ok := bin(); ok {
			return newConst(f, a<<(uint64(b)&63))
		}
		if c, ok := constOf(v.Args[1]); ok && c == 0 {
			return v.Args[0]
		}
	case ir.OpLshr:
		if a, b, ok := bin(); ok {
			return newConst(f, int64(uint64(a)>>(uint64(b)&63)))
		}
		if c, ok := constOf(v.Args[1]); ok && c == 0 {
			return v.Args[0]
		}
	case ir.OpAshr:
		if a, b, ok := bin(); ok {
			return newConst(f, a>>(uint64(b)&63))
		}
		if c, ok := constOf(v.Args[1]); ok && c == 0 {
			return v.Args[0]
		}
	case ir.OpNeg:
		if c, ok := constOf(v.Args[0]); ok {
			return newConst(f, -c)
		}
	case ir.OpNot:
		if c, ok := constOf(v.Args[0]); ok {
			return newConst(f, ^c)
		}
	case ir.OpICmp:
		if a, b, ok := bin(); ok {
			return newConst(f, boolToInt(evalPred(v.Pred, a, b)))
		}
		// icmp eq (icmp p a b), 0  ->  icmp !p a b
		// icmp ne (icmp p a b), 0  ->  icmp p a b
		if c, ok := constOf(v.Args[1]); ok && c == 0 {
			if in := v.Args[0]; in.Op == ir.OpICmp {
				switch v.Pred {
				case ir.PredEQ:
					nv := f.NewValue(ir.OpICmp)
					nv.Pred = negatePred(in.Pred)
					nv.SetArgs(in.Args[0], in.Args[1])
					return nv
				case ir.PredNE:
					return in
				}
			}
		}
	case ir.OpSelect:
		if c, ok := constOf(v.Args[0]); ok {
			if c != 0 {
				return v.Args[1]
			}
			return v.Args[2]
		}
		if v.Args[1] == v.Args[2] {
			return v.Args[1]
		}
	}
	return nil
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func evalPred(p ir.Pred, a, b int64) bool {
	switch p {
	case ir.PredEQ:
		return a == b
	case ir.PredNE:
		return a != b
	case ir.PredSLT:
		return a < b
	case ir.PredSLE:
		return a <= b
	case ir.PredSGT:
		return a > b
	case ir.PredSGE:
		return a >= b
	case ir.PredULT:
		return uint64(a) < uint64(b)
	case ir.PredULE:
		return uint64(a) <= uint64(b)
	case ir.PredUGT:
		return uint64(a) > uint64(b)
	case ir.PredUGE:
		return uint64(a) >= uint64(b)
	}
	return false
}

func negatePred(p ir.Pred) ir.Pred {
	switch p {
	case ir.PredEQ:
		return ir.PredNE
	case ir.PredNE:
		return ir.PredEQ
	case ir.PredSLT:
		return ir.PredSGE
	case ir.PredSLE:
		return ir.PredSGT
	case ir.PredSGT:
		return ir.PredSLE
	case ir.PredSGE:
		return ir.PredSLT
	case ir.PredULT:
		return ir.PredUGE
	case ir.PredULE:
		return ir.PredUGT
	case ir.PredUGT:
		return ir.PredULE
	case ir.PredUGE:
		return ir.PredULT
	}
	return p
}

// replaceTerm swaps a block's terminator for an unconditional branch.
func replaceTerm(b *ir.Block, target *ir.Block) {
	b.RemoveAt(len(b.Insts) - 1)
	b.Append(ir.OpBr).Targets = []*ir.Block{target}
}

// removePhiEdge deletes the phi entries in block `to` for edges from `from`,
// when the edge is removed. If multiple edges existed only one entry is
// removed per call per phi.
func removePhiEdge(to, from *ir.Block) {
	for _, v := range to.Insts {
		if v.Op != ir.OpPhi {
			break
		}
		for i, p := range v.PhiPreds {
			if p == from {
				v.RemoveArg(i)
				v.PhiPreds = append(v.PhiPreds[:i], v.PhiPreds[i+1:]...)
				break
			}
		}
	}
}
