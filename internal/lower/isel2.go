package lower

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/mx"
)

// lowerInst generates code for one materialized instruction at its program
// point.
func (fl *funcLower) lowerInst(v *ir.Value, b *ir.Block, bi, ii int) error {
	e := fl.e
	switch v.Op {
	case ir.OpConst, ir.OpUndef:
		// Rematerialized at uses.
		return nil
	case ir.OpGlobalAddr, ir.OpFuncAddr,
		ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpSRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLshr, ir.OpAshr,
		ir.OpNeg, ir.OpNot, ir.OpICmp:
		r, err := fl.evalOp(v, 0)
		if err != nil {
			return err
		}
		fl.storeResult(v, r)
		return nil

	case ir.OpLoad:
		ma, err := fl.memOperandIdx(v.Args[0])
		if err != nil {
			return err
		}
		op, err := loadOp(v)
		if err != nil {
			return err
		}
		if ma.hasIdx {
			iop := map[mx.Op]mx.Op{mx.LOAD8: mx.LOADIDX8, mx.LOAD32: mx.LOADIDX32, mx.LOAD64: mx.LOADIDX64}[op]
			e.emitAccess(mx.Inst{Op: iop, Dst: mx.R10, Base: ma.base, Idx: ma.idx, Scale: ma.scale, Disp: ma.disp}, v.SiteID)
		} else {
			e.emitAccess(mx.Inst{Op: op, Dst: mx.R10, Base: ma.base, Disp: ma.disp}, v.SiteID)
		}
		fl.storeResult(v, mx.R10)
		return nil

	case ir.OpStore:
		// Evaluate the address first (it may use both scratch registers).
		ma, err := fl.memOperandIdx(v.Args[0])
		if err != nil {
			return err
		}
		var val mx.Reg
		if fl.isLeaf(v.Args[1]) {
			// Leaf values load through RSI, leaving R10/R11 (possible
			// address parts) untouched.
			val, err = fl.leafReg(v.Args[1], mx.RSI)
			if err != nil {
				return err
			}
		} else {
			// Protect scratch-resident address parts across the value
			// evaluation, then hold the value in RSI.
			isScratch := func(r mx.Reg) bool { return r == mx.R10 || r == mx.R11 }
			savedIdx := ma.hasIdx && isScratch(ma.idx)
			savedBase := isScratch(ma.base)
			if savedIdx {
				e.emit(mx.Inst{Op: mx.PUSH, Dst: ma.idx})
			}
			if savedBase {
				e.emit(mx.Inst{Op: mx.PUSH, Dst: ma.base})
			}
			r, err := fl.treeEval(v.Args[1], 0)
			if err != nil {
				return err
			}
			if r != mx.RSI {
				e.emit(mx.Inst{Op: mx.MOVRR, Dst: mx.RSI, Src: r})
			}
			val = mx.RSI
			if savedBase {
				e.emit(mx.Inst{Op: mx.POP, Dst: ma.base})
			}
			if savedIdx {
				e.emit(mx.Inst{Op: mx.POP, Dst: ma.idx})
			}
		}
		return fl.emitStore(v, ma, val)

	case ir.OpVRegLoad:
		off, ok := fl.env.tlsOff[v.Global]
		if !ok {
			return fmt.Errorf("vreg %s has no TLS offset", v.Global.Name)
		}
		e.emit(mx.Inst{Op: mx.LOAD64, Dst: mx.R10, Base: mx.R15, Disp: off})
		fl.storeResult(v, mx.R10)
		return nil

	case ir.OpVRegStore:
		off, ok := fl.env.tlsOff[v.Global]
		if !ok {
			return fmt.Errorf("vreg %s has no TLS offset", v.Global.Name)
		}
		val, err := fl.treeEval(v.Args[0], 0)
		if err != nil {
			return err
		}
		e.emit(mx.Inst{Op: mx.STORE64, Dst: val, Base: mx.R15, Disp: off})
		return nil

	case ir.OpAtomicRMW:
		return fl.lowerRMW(v)

	case ir.OpCmpXchg:
		// addr -> R10, expected -> RAX, new -> R11.
		addr, err := fl.treeEval(v.Args[0], 0)
		if err != nil {
			return err
		}
		e.emit(mx.Inst{Op: mx.PUSH, Dst: addr})
		exp, err := fl.treeEval(v.Args[1], 0)
		if err != nil {
			return err
		}
		e.emit(mx.Inst{Op: mx.PUSH, Dst: exp})
		newv, err := fl.treeEval(v.Args[2], 0)
		if err != nil {
			return err
		}
		if newv != mx.R11 {
			e.emit(mx.Inst{Op: mx.MOVRR, Dst: mx.R11, Src: newv})
		}
		e.emit(mx.Inst{Op: mx.POP, Dst: mx.RAX})
		e.emit(mx.Inst{Op: mx.POP, Dst: mx.R10})
		e.emitAccess(mx.Inst{Op: mx.CMPXCHG, Dst: mx.R11, Base: mx.R10}, v.SiteID)
		// RAX now holds the old value on both outcomes.
		fl.storeResult(v, mx.RAX)
		return nil

	case ir.OpFence, ir.OpBarrier:
		// On a TSO-like target, fences and barriers constrain only the
		// optimizer; the machine's memory model already provides the
		// required ordering (§3.4: "we care about memory access
		// reorderings only at the IR-level"). A weakly-ordered target must
		// order its store buffer explicitly, so every fence the optimizer
		// kept becomes a real instruction there — which is what makes the
		// fence-optimization pass a measurable win cross-ISA.
		if fl.env.tgt.WeakOrder {
			e.emit(mx.Inst{Op: fl.env.tgt.FenceOp})
			fl.env.fences++
		}
		return nil

	case ir.OpSelect:
		cond, err := fl.treeEval(v.Args[0], 0)
		if err != nil {
			return err
		}
		e.emit(mx.Inst{Op: mx.TESTRR, Dst: cond, Src: cond})
		elseL := e.freshLabel("sel_else")
		endL := e.freshLabel("sel_end")
		e.jcc(mx.CondE, elseL)
		a, err := fl.treeEval(v.Args[1], 0)
		if err != nil {
			return err
		}
		if a != mx.R10 {
			e.emit(mx.Inst{Op: mx.MOVRR, Dst: mx.R10, Src: a})
		}
		e.jmp(endL)
		e.label(elseL)
		bv, err := fl.treeEval(v.Args[2], 0)
		if err != nil {
			return err
		}
		if bv != mx.R10 {
			e.emit(mx.Inst{Op: mx.MOVRR, Dst: mx.R10, Src: bv})
		}
		e.label(endL)
		fl.storeResult(v, mx.R10)
		return nil

	case ir.OpCall:
		e.call(fl.env.fnLabel(v.Fn))
		if v.HasResult() {
			fl.storeResult(v, mx.RAX)
		}
		return nil

	case ir.OpCallExt:
		argRegs := fl.env.tgt.ArgRegs
		if len(v.Args) > len(argRegs) {
			return fmt.Errorf("external call with %d args", len(v.Args))
		}
		// Pool registers that double as argument registers are preserved
		// around the call: we clobber them marshaling, and the host
		// clobbers them when invoking callbacks.
		var pres []mx.Reg
		for _, r := range fl.pool {
			if fl.env.tgt.IsMarshal(r) && fl.used[r] {
				if l, ok := fl.loc[v]; ok && l.kind == locReg && l.reg == r {
					continue // the result's own home need not be preserved
				}
				pres = append(pres, r)
				e.emit(mx.Inst{Op: mx.PUSH, Dst: r})
			}
		}
		for _, a := range v.Args {
			r, err := fl.treeEval(a, 0)
			if err != nil {
				return err
			}
			e.emit(mx.Inst{Op: mx.PUSH, Dst: r})
		}
		for i := len(v.Args) - 1; i >= 0; i-- {
			e.emit(mx.Inst{Op: mx.POP, Dst: argRegs[i]})
		}
		e.emit(mx.Inst{Op: mx.CALLX, Ext: fl.env.importIdx(v.ExtName)})
		fl.storeResult(v, mx.RAX)
		for i := len(pres) - 1; i >= 0; i-- {
			e.emit(mx.Inst{Op: mx.POP, Dst: pres[i]})
		}
		return nil

	case ir.OpRet:
		fl.epilogue()
		return nil

	case ir.OpBr:
		fl.phiMovesFor(b)
		if !fl.isNextBlock(bi, v.Targets[0]) {
			e.jmp(fl.blockLabel(v.Targets[0]))
		}
		return nil

	case ir.OpCondBr:
		fl.phiMovesFor(b)
		thenB, elseB := v.Targets[0], v.Targets[1]
		cond := v.Args[0]
		var cc mx.Cond
		if fl.inl[cond] && cond.Op == ir.OpICmp {
			if err := fl.evalCompare(cond, 0); err != nil {
				return err
			}
			cc = predCond(cond.Pred)
		} else {
			r, err := fl.treeEval(cond, 0)
			if err != nil {
				return err
			}
			e.emit(mx.Inst{Op: mx.TESTRR, Dst: r, Src: r})
			cc = mx.CondNE
		}
		switch {
		case fl.isNextBlock(bi, elseB):
			e.jcc(cc, fl.blockLabel(thenB))
		case fl.isNextBlock(bi, thenB):
			e.jcc(cc.Negate(), fl.blockLabel(elseB))
		default:
			e.jcc(cc, fl.blockLabel(thenB))
			e.jmp(fl.blockLabel(elseB))
		}
		return nil

	case ir.OpSwitch:
		fl.phiMovesFor(b)
		val, err := fl.treeEval(v.Args[0], 0)
		if err != nil {
			return err
		}
		for i, c := range v.SwitchVals {
			target := fl.blockLabel(v.Targets[i+1])
			if int64(int32(c)) == c {
				e.emit(mx.Inst{Op: mx.CMPRI, Dst: val, Imm: c})
			} else {
				e.emit(mx.Inst{Op: mx.MOVRI, Dst: mx.R11, Imm: c})
				e.emit(mx.Inst{Op: mx.CMPRR, Dst: val, Src: mx.R11})
			}
			e.jcc(mx.CondE, target)
		}
		if !fl.isNextBlock(bi, v.Targets[0]) {
			e.jmp(fl.blockLabel(v.Targets[0]))
		}
		return nil

	case ir.OpUnreachable:
		e.emit(mx.Inst{Op: mx.UD2})
		return nil
	}
	return fmt.Errorf("unhandled op %s", v.Op)
}

// emitStore emits the store instruction for the decomposed address.
func (fl *funcLower) emitStore(v *ir.Value, ma memAddress, val mx.Reg) error {
	var op, iop mx.Op
	switch v.Width {
	case 1:
		op, iop = mx.STORE8, mx.STOREIDX8
	case 4:
		op, iop = mx.STORE32, mx.STOREIDX32
	case 8:
		op, iop = mx.STORE64, mx.STOREIDX64
	default:
		return fmt.Errorf("bad store width %d", v.Width)
	}
	if ma.hasIdx {
		fl.e.emitAccess(mx.Inst{Op: iop, Dst: val, Base: ma.base, Idx: ma.idx, Scale: ma.scale, Disp: ma.disp}, v.SiteID)
	} else {
		fl.e.emitAccess(mx.Inst{Op: op, Dst: val, Base: ma.base, Disp: ma.disp}, v.SiteID)
	}
	return nil
}

func loadOp(v *ir.Value) (mx.Op, error) {
	switch {
	case v.Width == 1 && !v.SignExt:
		return mx.LOAD8, nil
	case v.Width == 4 && v.SignExt:
		return mx.LOAD32, nil
	case v.Width == 8:
		return mx.LOAD64, nil
	}
	return 0, fmt.Errorf("unsupported load width %d sext %v", v.Width, v.SignExt)
}

// lowerRMW lowers an atomicrmw. addr -> R10, operand -> R11; the old value
// lands in R11 (xadd/xchg) or RAX (cmpxchg loop).
func (fl *funcLower) lowerRMW(v *ir.Value) error {
	e := fl.e
	addr, err := fl.treeEval(v.Args[0], 0)
	if err != nil {
		return err
	}
	e.emit(mx.Inst{Op: mx.PUSH, Dst: addr})
	val, err := fl.treeEval(v.Args[1], 0)
	if err != nil {
		return err
	}
	if val != mx.R11 {
		e.emit(mx.Inst{Op: mx.MOVRR, Dst: mx.R11, Src: val})
	}
	e.emit(mx.Inst{Op: mx.POP, Dst: mx.R10})
	switch v.RMW {
	case ir.RMWAdd:
		e.emitAccess(mx.Inst{Op: mx.LOCKXADD, Dst: mx.R11, Base: mx.R10}, v.SiteID)
		fl.storeResult(v, mx.R11)
	case ir.RMWSub:
		e.emit(mx.Inst{Op: mx.NEG, Dst: mx.R11})
		e.emitAccess(mx.Inst{Op: mx.LOCKXADD, Dst: mx.R11, Base: mx.R10}, v.SiteID)
		fl.storeResult(v, mx.R11)
	case ir.RMWXchg:
		e.emitAccess(mx.Inst{Op: mx.XCHG, Dst: mx.R11, Base: mx.R10}, v.SiteID)
		fl.storeResult(v, mx.R11)
	case ir.RMWAnd, ir.RMWOr, ir.RMWXor:
		var op mx.Op
		switch v.RMW {
		case ir.RMWAnd:
			op = mx.ANDRR
		case ir.RMWOr:
			op = mx.ORRR
		default:
			op = mx.XORRR
		}
		retry := e.freshLabel("rmw_retry")
		e.label(retry)
		e.emitAccess(mx.Inst{Op: mx.LOAD64, Dst: mx.RAX, Base: mx.R10}, v.SiteID)
		e.emit(mx.Inst{Op: mx.MOVRR, Dst: mx.RSI, Src: mx.RAX})
		e.emit(mx.Inst{Op: op, Dst: mx.RSI, Src: mx.R11})
		e.emit(mx.Inst{Op: mx.CMPXCHG, Dst: mx.RSI, Base: mx.R10})
		e.jcc(mx.CondNE, retry)
		fl.storeResult(v, mx.RAX)
	default:
		return fmt.Errorf("unhandled rmw kind %v", v.RMW)
	}
	return nil
}

// phiMovesFor emits the parallel copies feeding successor phis for block b.
// When the copies can be ordered so that no copy reads a destination written
// by an earlier copy, they execute as direct moves (with an in-place
// increment peephole for the canonical loop-counter shape); otherwise all
// sources are staged on the stack first.
func (fl *funcLower) phiMovesFor(b *ir.Block) {
	ms := fl.moves[b]
	if len(ms) == 0 {
		return
	}
	e := fl.e

	// Dependency analysis: move i must precede move j when i's source
	// expression reads j's destination phi.
	dests := map[*ir.Value]int{}
	for i, m := range ms {
		dests[m.phi] = i
	}
	readsDest := func(arg *ir.Value, self int) (deps []int) {
		seen := map[*ir.Value]bool{}
		var walk func(v *ir.Value)
		walk = func(v *ir.Value) {
			if seen[v] {
				return
			}
			seen[v] = true
			if j, ok := dests[v]; ok && j != self {
				deps = append(deps, j)
			}
			if fl.inl[v] {
				for _, a := range v.Args {
					walk(a)
				}
			}
		}
		walk(arg)
		return deps
	}
	// Kahn's algorithm; a cycle falls back to stack staging.
	after := make([][]int, len(ms)) // after[i]: moves that must come after i
	indeg := make([]int, len(ms))
	for i, m := range ms {
		for _, j := range readsDest(m.arg, i) {
			after[i] = append(after[i], j)
			indeg[j]++
		}
	}
	var order []int
	var ready []int
	for i := range ms {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		i := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, i)
		for _, j := range after[i] {
			indeg[j]--
			if indeg[j] == 0 {
				ready = append(ready, j)
			}
		}
	}

	if len(order) == len(ms) {
		for _, i := range order {
			m := ms[i]
			// Peephole: phi' = phi +/- const with the phi in a register.
			if fl.inl[m.arg] && (m.arg.Op == ir.OpAdd || m.arg.Op == ir.OpSub) &&
				m.arg.Args[0] == m.phi {
				if c, ok := smallConst(m.arg.Args[1]); ok {
					if l, ok := fl.loc[m.phi]; ok && l.kind == locReg {
						op := mx.ADDRI
						if m.arg.Op == ir.OpSub {
							op = mx.SUBRI
						}
						e.emit(mx.Inst{Op: op, Dst: l.reg, Imm: c})
						continue
					}
				}
			}
			r, err := fl.treeEval(m.arg, 0)
			if err != nil {
				fl.e.errf("phi move: %v", err)
				return
			}
			fl.moveToPhi(m.phi, r)
		}
		return
	}

	// Cyclic copies: read all sources (push), then write all destinations
	// (pop, reversed).
	for _, m := range ms {
		r, err := fl.treeEval(m.arg, 0)
		if err != nil {
			fl.e.errf("phi move: %v", err)
			return
		}
		e.emit(mx.Inst{Op: mx.PUSH, Dst: r})
	}
	for i := len(ms) - 1; i >= 0; i-- {
		e.emit(mx.Inst{Op: mx.POP, Dst: mx.R10})
		fl.moveToPhi(ms[i].phi, mx.R10)
	}
}

func (fl *funcLower) moveToPhi(phi *ir.Value, r mx.Reg) {
	l, ok := fl.loc[phi]
	if !ok {
		return // dead phi (kept only by a cycle); no home, no copy
	}
	switch l.kind {
	case locReg:
		if l.reg != r {
			fl.e.emit(mx.Inst{Op: mx.MOVRR, Dst: l.reg, Src: r})
		}
	case locSlot:
		fl.e.emit(mx.Inst{Op: mx.STORE64, Dst: r, Base: mx.RBP, Disp: -l.off})
	}
}

func (fl *funcLower) isNextBlock(bi int, target *ir.Block) bool {
	return bi+1 < len(fl.f.Blocks) && fl.f.Blocks[bi+1] == target
}

// epilogue restores saved registers and returns.
func (fl *funcLower) epilogue() {
	e := fl.e
	if fl.frame > 0 {
		e.emit(mx.Inst{Op: mx.ADDRI, Dst: mx.RSP, Imm: int64(fl.frame)})
	}
	for i := len(fl.pool) - 1; i >= 0; i-- {
		if fl.used[fl.pool[i]] {
			e.emit(mx.Inst{Op: mx.POP, Dst: fl.pool[i]})
		}
	}
	e.emit(mx.Inst{Op: mx.POP, Dst: mx.RBP})
	e.emit(mx.Inst{Op: mx.RET})
}
