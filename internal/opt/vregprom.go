package opt

import "repro/internal/ir"

// Virtual-register promotion: the mem2reg equivalent for the thread-local
// virtual CPU state. Lifted code reads and writes every register and flag
// through vreg loads/stores; these passes rebuild SSA over them so the
// optimizer sees dataflow (§2.2.1's "refinement").
//
// Correctness contract: calls to lifted functions and external calls
// observe and may modify the virtual state (callees receive state through
// the globals; callbacks may re-enter guest code). So stores are never moved
// across them, and they invalidate the known values the ABI classes below
// do not preserve. promoteVRegs forwards loads and keeps stores in place
// (except sinking them out of call-free loops); vregDeadStoreElim then
// removes stores that are provably overwritten before any reader.

// isVRegBarrier reports whether v invalidates known virtual-state values.
// Compiler barriers (the atomic-translation brackets, §3.3.1) pin the
// ORDER of accesses; they neither read nor modify the thread-private
// virtual registers, and the passes here only forward and eliminate —
// never reorder — so barriers are transparent to virtual-state dataflow.
func isVRegBarrier(v *ir.Value) bool {
	switch v.Op {
	case ir.OpCall, ir.OpCallExt:
		return true
	}
	return false
}

// Virtual-state ABI classes. The recompiled execution contract mirrors the
// source ABI (§3.3.2/3.3.3): lifted callees receive and return state through
// the thread-local globals, callbacks entered through wrappers round-trip
// the callee-saved registers and the emulated stack pointer, and no correct
// original program relies on caller-saved registers or flags surviving a
// call or being observed after return.
const (
	classFlag        = iota // fl_*: dead at calls and returns
	classCallerSaved        // vr_rcx, vr_rdx, vr_rsi, vr_rdi, vr_r8..r11
	classCalleeSaved        // vr_rbx, vr_rbp, vr_rsp, vr_r12..r15
	classRet                // vr_rax: return-value register
	classVector             // vv*: caller-saved vector lanes
)

func vregClass(g *ir.Global) int {
	name := g.Name
	switch {
	case len(name) > 3 && name[:3] == "fl_":
		return classFlag
	case len(name) > 2 && name[:2] == "vv":
		return classVector
	case name == "vr_rax":
		return classRet
	case name == "vr_rbx" || name == "vr_rbp" || name == "vr_rsp" ||
		name == "vr_r12" || name == "vr_r13" || name == "vr_r14" || name == "vr_r15":
		return classCalleeSaved
	default:
		return classCallerSaved
	}
}

// CalleeSavedVReg reports whether g is a callee-saved virtual register
// (vr_rbx, vr_rbp, vr_rsp, vr_r12..r15), which the source ABI preserves
// across calls. The spinloop analysis (internal/spindet) shares this table.
func CalleeSavedVReg(g *ir.Global) bool { return vregClass(g) == classCalleeSaved }

// liveAtBarrier reports whether a global of the given class is live at a
// barrier of the given op. noCallbacks relaxes the external-call contract:
// when the dynamic analysis proved no host-to-guest re-entry, external calls
// read none of the virtual state.
func liveAtBarrier(class int, op ir.Op, noCallbacks bool) bool {
	switch op {
	case ir.OpRet:
		return class == classCalleeSaved || class == classRet
	case ir.OpCallExt:
		if noCallbacks {
			return false
		}
		// The host reads arguments natively (explicit IR values); only the
		// state a callback wrapper round-trips must be current.
		return class == classCalleeSaved
	default: // OpCall
		// The callee may read any register state (arguments, spilled values).
		return class != classFlag
	}
}

// survivesCallExt reports whether a known value of g remains valid across
// an external call (host functions never touch the virtual state; callbacks
// preserve exactly the callee-saved contract).
func survivesCallExt(g *ir.Global, noCallbacks bool) bool {
	return noCallbacks || CalleeSavedVReg(g)
}

// survivesCall reports whether a known value of g remains valid across a
// call to another lifted function: the original program follows the source
// ABI, so callee-saved registers round-trip (the callee restores them). The
// store before the call must remain (the callee reads and re-saves the
// value) — only forwarding knowledge survives, which is what this governs.
// The emulated stack pointer is NOT invariant: the callee's lifted RET pops
// the return-address slot the caller pushed (vr_rsp comes back 8 higher
// than at the call point).
func survivesCall(g *ir.Global) bool {
	return CalleeSavedVReg(g) && g.Name != "vr_rsp"
}

// promoKey identifies a (global, block-entry) availability query.
type promoKey struct {
	g *ir.Global
	b *ir.Block
}

// outState summarizes a block's effect on one global.
type outState struct {
	val         *ir.Value // value at block end, if locally known
	killed      bool      // a barrier after the last known point
	transparent bool      // untouched: entry value flows through
}

// promoteVRegs rebuilds SSA over the vregs. A load whose value its block
// already knows (from an earlier store or load of the same global, with no
// call in between that may change it) is forwarded in place. A load at a
// block entry is replaced by the values flowing in from the predecessors,
// with phis where paths disagree (Braun-style on-demand SSA construction
// with poison for unknown-at-entry paths). This is what turns a lifted loop
// counter back into an SSA induction value. It reports whether it forwarded
// or replaced a load or sank a store.
func promoteVRegs(f *ir.Func, noCallbacks bool) bool {
	preds := ir.Preds(f)
	changed := false

	// Per-block local summaries and the set of promotable entry loads.
	outs := map[*ir.Block]map[*ir.Global]outState{}
	type topLoad struct {
		b *ir.Block
		v *ir.Value
		g *ir.Global
	}
	var tops []topLoad
	for _, b := range f.Blocks {
		vals := map[*ir.Global]*ir.Value{}
		barrier := false
		for i := 0; i < len(b.Insts); i++ {
			v := b.Insts[i]
			switch {
			case v.Op == ir.OpVRegStore:
				vals[v.Global] = v.Args[0]
			case v.Op == ir.OpVRegLoad:
				if known := vals[v.Global]; known != nil {
					ir.ReplaceAllUses(v, known)
					b.RemoveAt(i)
					i--
					changed = true
					continue
				}
				if !barrier {
					tops = append(tops, topLoad{b, v, v.Global})
				}
				vals[v.Global] = v
			case isVRegBarrier(v):
				for g := range vals {
					if v.Op == ir.OpCall && !survivesCall(g) ||
						v.Op == ir.OpCallExt && !survivesCallExt(g, noCallbacks) {
						delete(vals, g)
					}
				}
				barrier = true
			}
		}
		o := map[*ir.Global]outState{}
		for g, val := range vals {
			o[g] = outState{val: val}
		}
		outs[b] = o
		if barrier {
			o[nil] = outState{killed: true} // marker: block had a barrier
		}
	}
	blockKilled := func(b *ir.Block, g *ir.Global) outState {
		o := outs[b]
		if st, ok := o[g]; ok {
			return st
		}
		if _, had := o[nil]; had {
			// Only call barriers: callee-saved state flows through (and
			// everything does under the no-callbacks contract for pure
			// external-call blocks — conservatively require callee-saved
			// here since the block may contain guest calls too).
			if survivesCall(g) {
				return outState{transparent: true}
			}
			return outState{killed: true}
		}
		return outState{transparent: true}
	}

	memo := map[promoKey]*ir.Value{}
	poisonVal := &ir.Value{Op: ir.OpUndef} // sentinel for unknown
	var phis []*ir.Value

	var readEntry func(g *ir.Global, b *ir.Block) *ir.Value
	var readEnd func(g *ir.Global, b *ir.Block) *ir.Value
	readEnd = func(g *ir.Global, b *ir.Block) *ir.Value {
		st := blockKilled(b, g)
		switch {
		case st.val != nil:
			return st.val
		case st.killed:
			return poisonVal
		default:
			return readEntry(g, b)
		}
	}
	readEntry = func(g *ir.Global, b *ir.Block) *ir.Value {
		key := promoKey{g, b}
		if v, ok := memo[key]; ok {
			return v
		}
		if b == f.Entry() {
			memo[key] = poisonVal
			return poisonVal
		}
		ps := preds[b]
		if len(ps) == 0 {
			memo[key] = poisonVal
			return poisonVal
		}
		if len(ps) == 1 {
			memo[key] = poisonVal // break cycles pessimistically
			v := readEnd(g, ps[0])
			memo[key] = v
			return v
		}
		// Create an operandless phi first to break cycles.
		phi := f.NewValue(ir.OpPhi)
		phi.Global = g
		b.InsertBefore(phi, 0)
		memo[key] = phi
		phis = append(phis, phi)
		for _, p := range ps {
			phi.AddArg(readEnd(g, p))
			phi.PhiPreds = append(phi.PhiPreds, p)
		}
		return phi
	}

	for _, tl := range tops {
		readEntry(tl.g, tl.b)
	}

	// Poison propagation: a phi with a poisoned operand is poisoned.
	poisoned := map[*ir.Value]bool{}
	for again := true; again; {
		again = false
		for _, phi := range phis {
			if poisoned[phi] {
				continue
			}
			for _, a := range phi.Args {
				if a == poisonVal || poisoned[a] {
					poisoned[phi] = true
					again = true
					break
				}
			}
		}
	}

	// Replacement map. Entries are added for rewritable top loads first, so
	// that trivial-phi detection sees through loads that resolve to phis
	// (phi(x, load-of-own-value) collapses only once the load is known to
	// be the phi).
	replaced := map[*ir.Value]*ir.Value{}
	resolve := func(v *ir.Value) *ir.Value {
		for replaced[v] != nil {
			v = replaced[v]
		}
		return v
	}
	for _, tl := range tops {
		v := memo[promoKey{tl.g, tl.b}]
		if v == nil || v == poisonVal || poisoned[v] || v == tl.v {
			continue
		}
		replaced[tl.v] = v
	}

	// Trivial-phi elimination: phi(v, v, .., self) == v.
	for again := true; again; {
		again = false
		for _, phi := range phis {
			if poisoned[phi] || replaced[phi] != nil {
				continue
			}
			var uniq *ir.Value
			trivial := true
			for _, a := range phi.Args {
				a = resolve(a)
				if a == phi {
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
				replaced[phi] = uniq
				again = true
			}
		}
	}

	// A load may now resolve to a poisoned phi (poison was computed before
	// trivial-phi collapsing); drop such replacements.
	for _, tl := range tops {
		if r := replaced[tl.v]; r != nil {
			if fin := resolve(tl.v); fin == poisonVal || poisoned[fin] || fin == tl.v {
				delete(replaced, tl.v)
			}
		}
	}

	// Apply all replacements across the function.
	for _, tl := range tops {
		if r := resolve(tl.v); r != tl.v {
			ir.ReplaceAllUses(tl.v, r)
			changed = true
		}
	}
	for _, phi := range phis {
		ir.ReplaceAllUses(phi, resolve(phi))
	}
	// Remove replaced loads and phis.
	for _, b := range f.Blocks {
		for i := 0; i < len(b.Insts); i++ {
			if replaced[b.Insts[i]] != nil {
				b.RemoveAt(i)
				i--
			}
		}
	}

	// Store sinking: a global stored inside a loop that contains no loads
	// of it and no barriers need only be flushed at the loop exits — the
	// flush value is exactly what the availability machinery reports at
	// each exiting block. This is what keeps loop-carried virtual registers
	// out of memory when an external call after the loop would otherwise
	// keep their in-loop flushes live (the callback contract, §3.3.3).
	dom := ir.BuildDom(f)
	loops := dom.FindLoops()
	// Outermost first (larger loops first): an inner loop's stores are
	// sunk all the way out in one step.
	for i := 0; i < len(loops); i++ {
		for j := i + 1; j < len(loops); j++ {
			if len(loops[j].Blocks) > len(loops[i].Blocks) {
				loops[i], loops[j] = loops[j], loops[i]
			}
		}
	}
	for _, l := range loops {
		// Bail on barriers or returns anywhere in the loop. Blocks are
		// walked in function order and globals sunk in first-store order,
		// so flushes and phis are created in the same order on every run.
		clean := true
		storesByG := map[*ir.Global][]*ir.Value{}
		loadsByG := map[*ir.Global]bool{}
		var stored []*ir.Global
		for _, blk := range f.Blocks {
			if !l.Blocks[blk] {
				continue
			}
			for _, v := range blk.Insts {
				switch {
				case isVRegBarrier(v) || v.Op == ir.OpRet:
					clean = false
				case v.Op == ir.OpVRegStore:
					if storesByG[v.Global] == nil {
						stored = append(stored, v.Global)
					}
					storesByG[v.Global] = append(storesByG[v.Global], v)
				case v.Op == ir.OpVRegLoad:
					loadsByG[v.Global] = true
				}
			}
		}
		if !clean {
			continue
		}
		for _, g := range stored {
			stores := storesByG[g]
			if loadsByG[g] {
				continue
			}
			// Every exit target must have a unique predecessor so the
			// flush can be placed at its head.
			ok := true
			type flush struct {
				to  *ir.Block
				val *ir.Value
			}
			var flushes []flush
			seenTo := map[*ir.Block]bool{}
			for _, ex := range l.Exits {
				if len(preds[ex.To]) != 1 || seenTo[ex.To] {
					ok = false
					break
				}
				seenTo[ex.To] = true
				val := resolve(readEnd(g, ex.From))
				if val == nil || val == poisonVal || poisoned[val] {
					ok = false
					break
				}
				flushes = append(flushes, flush{ex.To, val})
			}
			if !ok || len(flushes) == 0 {
				continue
			}
			// Re-check poison: readEnd may have created new phis whose
			// poison state is not yet propagated.
			for again := true; again; {
				again = false
				for _, phi := range phis {
					if poisoned[phi] {
						continue
					}
					for _, a := range phi.Args {
						if a == poisonVal || poisoned[a] {
							poisoned[phi] = true
							again = true
							break
						}
					}
				}
			}
			bad := false
			for _, fl := range flushes {
				if fl.val == poisonVal || poisoned[resolve(fl.val)] {
					bad = true
				}
			}
			if bad {
				continue
			}
			for fi := range flushes {
				flushes[fi].val = resolve(flushes[fi].val)
			}
			// Delete the in-loop stores and insert per-exit flushes.
			for _, st := range stores {
				for k, in := range st.Block.Insts {
					if in == st {
						st.Block.RemoveAt(k)
						break
					}
				}
			}
			for _, fl := range flushes {
				pos := 0
				for pos < len(fl.to.Insts) && fl.to.Insts[pos].Op == ir.OpPhi {
					pos++
				}
				st := f.NewValue(ir.OpVRegStore)
				st.Global = g
				st.SetArgs(fl.val)
				fl.to.InsertBefore(st, pos)
			}
			changed = true
		}
	}
	// Phis created during sinking may reference loads that were replaced
	// and removed earlier; resolve their operands again.
	for _, phi := range phis {
		for i, a := range phi.Args {
			phi.SetArg(i, resolve(a))
		}
	}

	// Drop poisoned phis (only other poisoned phis use them; replaced ones
	// went with the replaced loads), then every phi left without uses,
	// iteratively: a dropped phi may have been another's only user.
	for _, phi := range phis {
		if !poisoned[phi] {
			continue
		}
		for j, in := range phi.Block.Insts {
			if in == phi {
				phi.Block.RemoveAt(j)
				break
			}
		}
	}
	for {
		removed := false
		for _, b := range f.Blocks {
			for i := 0; i < len(b.Insts); i++ {
				v := b.Insts[i]
				if v.Op == ir.OpPhi && v.NumUses() == 0 {
					b.RemoveAt(i)
					i--
					removed = true
				}
			}
		}
		if !removed {
			break
		}
	}
	return changed
}

// vregDeadStoreElim removes vreg stores that are overwritten before any
// possible reader (loads, calls, barriers, returns). Backward liveness over
// the globals; terminators: Ret and reachable calls make everything live,
// Unreachable makes nothing live (execution stops).
func vregDeadStoreElim(f *ir.Func, noCallbacks bool) bool {
	// Collect the global universe.
	idx := map[*ir.Global]int{}
	var globals []*ir.Global
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			if (v.Op == ir.OpVRegLoad || v.Op == ir.OpVRegStore) && idx[v.Global] == 0 {
				idx[v.Global] = len(globals) + 1
				globals = append(globals, v.Global)
			}
		}
	}
	if len(globals) == 0 {
		return false
	}
	n := len(globals)
	full := make([]bool, n)
	for i := range full {
		full[i] = true
	}

	liveIn := map[*ir.Block][]bool{}
	succsOf := func(b *ir.Block) []*ir.Block { return b.Succs() }

	classes := make([]int, n)
	for i, g := range globals {
		classes[i] = vregClass(g)
	}
	applyBarrier := func(live []bool, op ir.Op) {
		for j := range live {
			if liveAtBarrier(classes[j], op, noCallbacks) {
				live[j] = true
			}
		}
	}
	transfer := func(b *ir.Block, out []bool) []bool {
		live := append([]bool(nil), out...)
		for i := len(b.Insts) - 1; i >= 0; i-- {
			v := b.Insts[i]
			switch {
			case v.Op == ir.OpVRegStore:
				live[idx[v.Global]-1] = false
			case v.Op == ir.OpVRegLoad:
				live[idx[v.Global]-1] = true
			case isVRegBarrier(v) || v.Op == ir.OpRet:
				applyBarrier(live, v.Op)
			}
		}
		return live
	}

	// Fixpoint from bottom (may-liveness is a least fixpoint; seeding
	// unknown successors as fully live would keep loop-circulating values
	// alive forever).
	for _, b := range f.Blocks {
		liveIn[b] = make([]bool, n)
	}
	blockOut := func(b *ir.Block) []bool {
		out := make([]bool, n)
		t := b.Term()
		if t != nil && t.Op == ir.OpRet {
			applyBarrier(out, ir.OpRet)
		}
		for _, s := range succsOf(b) {
			for j, lv := range liveIn[s] {
				out[j] = out[j] || lv
			}
		}
		return out
	}
	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			in := transfer(b, blockOut(b))
			if !boolsEq(liveIn[b], in) {
				liveIn[b] = in
				changed = true
			}
		}
	}

	// Delete dead stores.
	removed := false
	for _, b := range f.Blocks {
		live := blockOut(b)
		for i := len(b.Insts) - 1; i >= 0; i-- {
			v := b.Insts[i]
			switch {
			case v.Op == ir.OpVRegStore:
				j := idx[v.Global] - 1
				if !live[j] {
					b.RemoveAt(i)
					removed = true
					continue
				}
				live[j] = false
			case v.Op == ir.OpVRegLoad:
				live[idx[v.Global]-1] = true
			case isVRegBarrier(v) || v.Op == ir.OpRet:
				applyBarrier(live, v.Op)
			}
		}
	}
	return removed
}

func boolsEq(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
