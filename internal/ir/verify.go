package ir

import "fmt"

// Verify checks module well-formedness: every block terminated exactly once,
// operands defined and dominating their uses, phis consistent with
// predecessors, widths valid. The recompiler pipeline verifies after lifting
// and after every optimization pass in debug runs.
func Verify(m *Module) error {
	for _, f := range m.Funcs {
		if err := VerifyFunc(f); err != nil {
			return fmt.Errorf("func @%s: %w", f.Name, err)
		}
	}
	return nil
}

// VerifyFunc checks one function.
func VerifyFunc(f *Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	dom := BuildDom(f)
	preds := dom.Preds

	// Map each value to its defining block and intra-block position.
	defBlock := map[*Value]*Block{}
	defPos := map[*Value]int{}
	for _, b := range f.Blocks {
		if len(b.Insts) == 0 {
			return fmt.Errorf("block %s: empty", b.Name)
		}
		for i, v := range b.Insts {
			if v.IsTerminator() != (i == len(b.Insts)-1) {
				return fmt.Errorf("block %s: terminator misplaced at %d (%s)", b.Name, i, v)
			}
			if v.Block != b {
				return fmt.Errorf("block %s: inst %s has wrong owner", b.Name, v)
			}
			if _, dup := defBlock[v]; dup {
				return fmt.Errorf("value %%%d appears twice", v.ID)
			}
			defBlock[v] = b
			defPos[v] = i
		}
	}

	for _, b := range f.Blocks {
		if _, reachable := dom.Num[b]; !reachable {
			continue // unreachable blocks are tolerated (simplifycfg prunes)
		}
		for i, v := range b.Insts {
			switch v.Op {
			case OpLoad, OpStore:
				if v.Width != 1 && v.Width != 4 && v.Width != 8 {
					return fmt.Errorf("block %s: %s: bad width %d", b.Name, v, v.Width)
				}
			case OpPhi:
				if len(v.Args) != len(v.PhiPreds) {
					return fmt.Errorf("block %s: %s: phi arity mismatch", b.Name, v)
				}
				if len(v.Args) != len(preds[b]) {
					return fmt.Errorf("block %s: %s: phi has %d entries, block has %d preds",
						b.Name, v, len(v.Args), len(preds[b]))
				}
				for _, pb := range v.PhiPreds {
					found := false
					for _, p := range preds[b] {
						if p == pb {
							found = true
						}
					}
					if !found {
						return fmt.Errorf("block %s: %s: phi pred %s is not a predecessor", b.Name, v, pb.Name)
					}
				}
				// Phis must be grouped at the block head.
				if i > 0 && b.Insts[i-1].Op != OpPhi {
					return fmt.Errorf("block %s: phi %%%d not at block head", b.Name, v.ID)
				}
			case OpCondBr:
				if len(v.Targets) != 2 {
					return fmt.Errorf("block %s: condbr with %d targets", b.Name, len(v.Targets))
				}
			case OpBr:
				if len(v.Targets) != 1 {
					return fmt.Errorf("block %s: br with %d targets", b.Name, len(v.Targets))
				}
			case OpSwitch:
				if len(v.Targets) != len(v.SwitchVals)+1 {
					return fmt.Errorf("block %s: switch with %d targets, %d cases",
						b.Name, len(v.Targets), len(v.SwitchVals))
				}
			case OpInvalid:
				return fmt.Errorf("block %s: invalid op", b.Name)
			}
			// Operand checks.
			for ai, a := range v.Args {
				if a == nil {
					return fmt.Errorf("block %s: %s: nil arg %d", b.Name, v, ai)
				}
				if !a.HasResult() {
					return fmt.Errorf("block %s: %s: arg %d (%s) has no result", b.Name, v, ai, a.Op)
				}
				db, defined := defBlock[a]
				if !defined {
					return fmt.Errorf("block %s: %s: arg %%%d not defined in function", b.Name, v, a.ID)
				}
				if _, reach := dom.Num[db]; !reach {
					continue // defined in unreachable code; ignore
				}
				if v.Op == OpPhi {
					// Phi operands must dominate the corresponding pred edge.
					if !dom.Dominates(db, v.PhiPreds[ai]) {
						return fmt.Errorf("block %s: %s: phi arg %%%d does not dominate edge from %s",
							b.Name, v, a.ID, v.PhiPreds[ai].Name)
					}
					continue
				}
				if db == b {
					if defPos[a] >= i {
						return fmt.Errorf("block %s: %s: arg %%%d used before definition", b.Name, v, a.ID)
					}
				} else if !dom.Dominates(db, b) {
					return fmt.Errorf("block %s: %s: arg %%%d (def in %s) does not dominate use",
						b.Name, v, a.ID, db.Name)
				}
			}
			// Target sanity.
			for _, tb := range v.Targets {
				if tb.Func != f {
					return fmt.Errorf("block %s: %s: target %s in another function", b.Name, v, tb.Name)
				}
			}
		}
	}
	return nil
}

// VerifyUses checks f's def-use lists against its operand slots: each value
// an instruction of f names, and each instruction of f, lists exactly the
// instructions of f that name it, once per slot. It costs a map over all
// uses, so only Verify runs (the optimizer under Options.Verify) call it.
func VerifyUses(f *Func) error {
	type use struct{ def, user *Value }
	slots := map[use]int{} // operand slots of f's instructions
	inF := map[*Value]bool{}
	var defs []*Value // f's instructions, then the outside values they name
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			inF[v] = true
			defs = append(defs, v)
		}
	}
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			for _, a := range v.Args {
				if a == nil {
					continue // VerifyFunc reports nil operands
				}
				if _, seen := inF[a]; !seen {
					inF[a] = false
					defs = append(defs, a)
				}
				slots[use{a, v}]++
			}
		}
	}
	for _, d := range defs {
		for _, u := range d.uses {
			if !inF[u] {
				return fmt.Errorf("%%%d lists user %%%d, which is not an instruction of the function", d.ID, u.ID)
			}
			if slots[use{d, u}] == 0 {
				return fmt.Errorf("%%%d lists user %%%d more often than it is named", d.ID, u.ID)
			}
			slots[use{d, u}]--
		}
	}
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			for _, a := range v.Args {
				if a != nil && slots[use{a, v}] != 0 {
					return fmt.Errorf("%s names %%%d, whose use list misses it", v, a.ID)
				}
			}
		}
	}
	return nil
}
