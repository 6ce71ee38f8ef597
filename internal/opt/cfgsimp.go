package opt

import "repro/internal/ir"

// SimplifyCFG removes unreachable blocks, eliminates single-entry phis,
// merges straight-line block chains, and threads trivial forwarding blocks.
func SimplifyCFG(f *ir.Func) bool {
	changed := false

	// 1. Remove unreachable blocks (and their phi edges into live blocks).
	reach := map[*ir.Block]bool{}
	var stack []*ir.Block
	stack = append(stack, f.Entry())
	reach[f.Entry()] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs() {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	var live []*ir.Block
	for _, b := range f.Blocks {
		if reach[b] {
			live = append(live, b)
		} else {
			changed = true
			for _, v := range b.Insts {
				v.SetArgs()
			}
			for _, s := range b.Succs() {
				if reach[s] {
					removePhiEdge(s, b)
				}
			}
		}
	}
	f.Blocks = live

	// 2. Trivial-phi elimination: single-entry phis, and phis whose
	// non-self operands are all the same value.
	for again := true; again; {
		again = false
		for _, b := range f.Blocks {
			for i := 0; i < len(b.Insts); i++ {
				v := b.Insts[i]
				if v.Op != ir.OpPhi {
					break
				}
				var uniq *ir.Value
				trivial := true
				for _, a := range v.Args {
					if a == v {
						continue
					}
					if uniq == nil {
						uniq = a
					} else if uniq != a {
						trivial = false
						break
					}
				}
				if trivial && uniq != nil {
					ir.ReplaceAllUses(v, uniq)
					b.RemoveAt(i)
					i--
					changed = true
					again = true
				}
			}
		}
	}

	// 3. Merge b -> s where b ends in an unconditional branch and s has
	// exactly that one predecessor edge.
	for mergedOne := true; mergedOne; {
		mergedOne = false
		preds := ir.Preds(f)
		for _, b := range f.Blocks {
			t := b.Term()
			if t == nil || t.Op != ir.OpBr {
				continue
			}
			s := t.Targets[0]
			if s == b || len(preds[s]) != 1 || s == f.Entry() {
				continue
			}
			// s's phis must already be single-entry-eliminated.
			if len(s.Insts) > 0 && s.Insts[0].Op == ir.OpPhi {
				continue
			}
			// Splice: drop b's br, move s's instructions into b.
			b.Insts = b.Insts[:len(b.Insts)-1]
			for _, v := range s.Insts {
				v.Block = b
				b.Insts = append(b.Insts, v)
			}
			// Phis in s's successors now see b as the predecessor.
			for _, ss := range s.Succs() {
				retargetPhiPred(ss, s, b)
			}
			// Remove s from the function.
			for i, blk := range f.Blocks {
				if blk == s {
					f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
					break
				}
			}
			changed = true
			mergedOne = true
			break // block list changed; restart scan
		}
	}

	// 4. Thread trivial forwarding blocks: a block containing only a br
	// whose target has no phis can be bypassed.
	preds := ir.Preds(f)
	for _, b := range f.Blocks {
		if b == f.Entry() || len(b.Insts) != 1 {
			continue
		}
		t := b.Term()
		if t == nil || t.Op != ir.OpBr {
			continue
		}
		target := t.Targets[0]
		if target == b {
			continue
		}
		if len(target.Insts) > 0 && target.Insts[0].Op == ir.OpPhi {
			continue
		}
		for _, p := range preds[b] {
			pt := p.Term()
			for i, tb := range pt.Targets {
				if tb == b {
					pt.Targets[i] = target
					changed = true
				}
			}
		}
	}

	return changed
}

// retargetPhiPred rewrites phi predecessor entries in block b from `from`
// to `to`.
func retargetPhiPred(b, from, to *ir.Block) {
	for _, v := range b.Insts {
		if v.Op != ir.OpPhi {
			break
		}
		for i, p := range v.PhiPreds {
			if p == from {
				v.PhiPreds[i] = to
			}
		}
	}
}
