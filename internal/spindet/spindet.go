// Package spindet implements the implicit-synchronization (spinloop)
// detection of §3.4 and its dynamic memory-access classification.
//
// The analysis decides, per natural loop in the lifted IR, whether the loop
// can be shown NOT to be a spinloop: it is non-spinning if some exit
// condition is influenced by a local value that is (1) not loop-constant and
// (2) free of external dependencies, where a value has an external
// dependency if it depends on a shared-memory access through some dataflow
// (Listing 3's cases). When every loop of a program is proven non-spinning,
// the program implements no implicit synchronization primitives, and the
// Lasagne fences inserted at lift time are superfluous and may be removed
// (the FO columns of Table 2).
//
// Memory-access locality is recorded dynamically (§3.4.2). The paper runs
// an instrumented build of the recompiled binary; here the build runs as it
// is, and the VM reports every execution of an access's tagged instruction
// (lowering's site table, vm.Machine.RecordAccesses) to Recorder.Record,
// which classifies the address against the emulated stack the runtime
// allocated for the accessing thread. Uncovered loops leave the verdict
// conservative: fences are preserved (§3.4.3, false negatives).
package spindet

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/vm"
)

// maxAddrsPerSite bounds the recorded address set per site.
const maxAddrsPerSite = 64

// SiteClass classifies the dynamically observed addresses of a site.
type SiteClass uint8

const (
	ClassUnseen SiteClass = iota // never executed
	ClassLocal                   // only this-thread emulated-stack addresses
	ClassShared                  // at least one non-stack or cross-thread address
)

func (c SiteClass) String() string {
	switch c {
	case ClassLocal:
		return "local"
	case ClassShared:
		return "shared"
	}
	return "unseen"
}

// SiteRec is the dynamic record of one memory access site. Local (own
// emulated stack) accesses are normalized to stack-relative offsets — the
// runtime allocates each thread's stack (§3.4.2), and distinct threads'
// stacks are disjoint, so local-vs-local aliasing is exactly offset
// equality. Shared accesses are recorded by raw address. Both sets hold at
// most maxAddrsPerSite distinct values; a full set sets its overflow flag
// on every further access, even of a value it holds.
type SiteRec struct {
	Class SiteClass
	// Offs holds stack-relative offsets of local accesses.
	Offs         []uint64
	OffsOverflow bool
	// Addrs holds raw addresses (shared accesses, plus local ones for
	// local-vs-shared comparisons).
	Addrs    []uint64
	Overflow bool
	// Min/Max bound every raw address ever recorded (maintained even after
	// the exact set overflows, so overflowed sites compare by range).
	Min, Max uint64
}

// Recording holds one record per SiteID: Sites[id] is site id's record,
// ClassUnseen (the zero record) until the site executes.
type Recording struct {
	Sites []SiteRec
}

// Site returns the record of an executed site, or nil for a site that
// never executed.
func (r *Recording) Site(id int) *SiteRec {
	if id < 0 || id >= len(r.Sites) || r.Sites[id].Class == ClassUnseen {
		return nil
	}
	return &r.Sites[id]
}

// Observed counts the executed sites.
func (r *Recording) Observed() int {
	n := 0
	for i := range r.Sites {
		if r.Sites[i].Class != ClassUnseen {
			n++
		}
	}
	return n
}

// Recorder collects a Recording over one or more recording runs.
type Recorder struct {
	rec Recording
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Recording returns the collected records.
func (r *Recorder) Recording() *Recording { return &r.rec }

// Record notes that thread t accessed addr at site. It is the machine's
// access hook (vm.Machine.RecordAccesses): an address inside t's emulated
// stack (vm.Thread.EmuStack) is local, any other address shared.
func (r *Recorder) Record(t *vm.Thread, site int, addr uint64) {
	if site >= len(r.rec.Sites) {
		r.rec.Sites = append(r.rec.Sites, make([]SiteRec, site+1-len(r.rec.Sites))...)
	}
	rec := &r.rec.Sites[site]
	if rec.Class == ClassUnseen {
		rec.Min, rec.Max = addr, addr
	} else if addr < rec.Min {
		rec.Min = addr
	} else if addr > rec.Max {
		rec.Max = addr
	}
	if stk := t.EmuStack; addr >= stk[0] && addr < stk[1] {
		if rec.Class == ClassUnseen {
			rec.Class = ClassLocal
		}
		if addToSet(&rec.Offs, addr-stk[0]) {
			rec.OffsOverflow = true
		}
	} else {
		rec.Class = ClassShared
	}
	if addToSet(&rec.Addrs, addr) {
		rec.Overflow = true
	}
}

// addToSet inserts x into a site's set unless the set is full, and reports
// whether it was full.
func addToSet(set *[]uint64, x uint64) (full bool) {
	s := *set
	if len(s) >= maxAddrsPerSite {
		return true
	}
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == x {
			return false
		}
	}
	*set = append(s, x)
	return false
}

// LoopVerdict reports the analysis of one natural loop.
type LoopVerdict struct {
	Func     string
	Header   uint64 // original address of the loop header block
	Spinning bool   // could not be proven non-spinning
	Covered  bool   // all memory sites in the loop were observed dynamically
	Reason   string
}

// Report is the whole-module verdict.
type Report struct {
	Loops []LoopVerdict
	// NonSpinning counts proven non-spinning loops; Spinning the rest.
	NonSpinning, Spinning, Uncovered int
	// FencesRemovable is true when every loop is proven non-spinning: the
	// binary implements no implicit synchronization (§3.4.1).
	FencesRemovable bool
}

// Analyze classifies every loop of the (optimized) module against the
// dynamic recording.
func Analyze(m *ir.Module, rec *Recording) *Report {
	rep := &Report{FencesRemovable: true}
	for _, f := range m.Funcs {
		dom := ir.BuildDom(f)
		for _, l := range dom.FindLoops() {
			v := analyzeLoop(f, l, rec)
			rep.Loops = append(rep.Loops, v)
			switch {
			case v.Spinning:
				rep.Spinning++
				rep.FencesRemovable = false
			case !v.Covered:
				rep.Uncovered++
				rep.FencesRemovable = false
			default:
				rep.NonSpinning++
			}
		}
	}
	sort.Slice(rep.Loops, func(i, j int) bool {
		if rep.Loops[i].Func != rep.Loops[j].Func {
			return rep.Loops[i].Func < rep.Loops[j].Func
		}
		return rep.Loops[i].Header < rep.Loops[j].Header
	})
	return rep
}

// analyzeLoop decides whether l is provably non-spinning.
func analyzeLoop(f *ir.Func, l *ir.Loop, rec *Recording) LoopVerdict {
	v := LoopVerdict{Func: f.Name, Header: l.Header.OrigAddr, Covered: true}

	// Coverage: every site inside the loop must have been observed. Blocks
	// are walked in function order, so Reason names the same site, the
	// first uncovered one, on every run.
coverage:
	for _, b := range f.Blocks {
		if !l.Blocks[b] {
			continue
		}
		for _, in := range b.Insts {
			if in.SiteID == 0 {
				continue
			}
			if rec.Site(in.SiteID) == nil {
				v.Covered = false
				v.Reason = fmt.Sprintf("site %d at %#x not covered by the provided inputs", in.SiteID, in.OrigPC)
				break coverage
			}
		}
	}

	a := &analyzer{f: f, loop: l, rec: rec}
	// The loop is non-spinning if SOME exit condition has SOME operand
	// influenced by a local, loop-varying, external-free value (§3.4.2
	// analyzes the operands of each termination condition individually).
	for _, ex := range l.Exits {
		t := ex.From.Term()
		if t == nil {
			continue
		}
		var operands []*ir.Value
		switch t.Op {
		case ir.OpCondBr, ir.OpSwitch:
			c := t.Args[0]
			if c.Op == ir.OpICmp {
				operands = append(operands, c.Args...)
			} else {
				operands = append(operands, c)
			}
		default:
			continue // unconditional exit (br out of loop): no condition
		}
		for _, c := range operands {
			res := a.influence(c, map[*ir.Value]bool{}, 0)
			if res.varying && !res.external {
				v.Spinning = false
				if v.Covered {
					v.Reason = fmt.Sprintf("exit at %#x depends on a loop-varying local value", t.OrigPC)
				}
				return v
			}
		}
	}
	v.Spinning = true
	if v.Reason == "" {
		v.Reason = "no exit condition has a loop-varying, external-free influence"
	}
	return v
}

// influenceResult is the instruction-influence classification of a value
// with respect to the analyzed loop.
type influenceResult struct {
	varying  bool // influenced by a loop-modified local value
	external bool // depends on a shared-memory access / call / atomic
}

type analyzer struct {
	f    *ir.Func
	loop *ir.Loop
	rec  *Recording
}

const maxDepth = 64

// influence performs the backwards dataflow of §3.4.2 over use-def chains,
// chasing local memory through dynamically recorded locations.
func (a *analyzer) influence(v *ir.Value, visiting map[*ir.Value]bool, depth int) influenceResult {
	if depth > maxDepth {
		return influenceResult{external: true} // give up conservatively
	}
	if visiting[v] {
		return influenceResult{} // neutral on cycles
	}
	visiting[v] = true
	defer delete(visiting, v)

	inLoop := v.Block != nil && a.loop.Blocks[v.Block]

	switch v.Op {
	case ir.OpConst, ir.OpGlobalAddr, ir.OpFuncAddr, ir.OpUndef:
		return influenceResult{}
	case ir.OpPhi:
		res := influenceResult{}
		if inLoop {
			// A loop phi IS a loop-modified value (Listing 3 case (e)).
			res.varying = true
		}
		for _, arg := range v.Args {
			r := a.influence(arg, visiting, depth+1)
			res.varying = res.varying || r.varying
			res.external = res.external || r.external
		}
		return res
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpSRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLshr, ir.OpAshr,
		ir.OpNeg, ir.OpNot, ir.OpICmp, ir.OpSelect:
		res := influenceResult{}
		for _, arg := range v.Args {
			r := a.influence(arg, visiting, depth+1)
			res.varying = res.varying || r.varying
			res.external = res.external || r.external
		}
		return res
	case ir.OpAtomicRMW, ir.OpCmpXchg:
		// Atomic accesses are synchronization by definition.
		return influenceResult{external: true}
	case ir.OpCall, ir.OpCallExt:
		return influenceResult{external: true}
	case ir.OpVRegLoad:
		// An entry-state load (argument registers, incoming context) is a
		// plain local value — the paper lifts arguments as parameters.
		if a.isEntryState(v) {
			return influenceResult{}
		}
		// A reload of a callee-saved register after a call observes the
		// value flushed before the call (the ABI round-trip the paper's
		// pre-analysis inlining makes explicit): chase the reaching store.
		if stored := a.reachingVRegStore(v); stored != nil {
			return a.influence(stored, visiting, depth+1)
		}
		return influenceResult{external: true}
	case ir.OpLoad:
		return a.loadInfluence(v, visiting, depth)
	}
	return influenceResult{external: true}
}

// loadInfluence resolves a memory load using the dynamic records: shared
// sites are external dependencies; local sites are chased through the
// intra-loop stores to the same recorded locations (Listing 3 (b)-(d)).
func (a *analyzer) loadInfluence(v *ir.Value, visiting map[*ir.Value]bool, depth int) influenceResult {
	rec := a.rec.Site(v.SiteID)
	if rec == nil {
		return influenceResult{external: true} // uncovered: conservative
	}
	if rec.Class == ClassShared {
		return influenceResult{external: true}
	}
	// Local location: find intra-loop stores whose observed addresses
	// overlap this load's.
	res := influenceResult{}
	for b := range a.loop.Blocks {
		for _, in := range b.Insts {
			if in.Op != ir.OpStore || in.SiteID == 0 {
				continue
			}
			srec := a.rec.Site(in.SiteID)
			if srec == nil {
				continue // store never executed on these inputs
			}
			if !addrsOverlap(rec, srec) {
				continue
			}
			stored := in.Args[1]
			// Listing 3 (c): a constant store does not vary across
			// iterations. (d): a non-constant store is loop-modified,
			// provided it carries no external dependency.
			r := a.influence(stored, visiting, depth+1)
			if r.external {
				res.external = true
				continue
			}
			if stored.Op != ir.OpConst {
				res.varying = true
			}
		}
	}
	return res
}

// reachingVRegStore finds the unique virtual-register store whose value a
// reload observes, walking backwards through the block and unique
// predecessors. Calls are transparent for callee-saved registers (the
// callee restores them); anything ambiguous returns nil.
func (a *analyzer) reachingVRegStore(v *ir.Value) *ir.Value {
	g := v.Global
	if !opt.CalleeSavedVReg(g) {
		return nil
	}
	preds := ir.Preds(a.f)
	b := v.Block
	// Position of v within its block.
	idx := -1
	for i, in := range b.Insts {
		if in == v {
			idx = i
			break
		}
	}
	for hops := 0; hops < 64; hops++ {
		for i := idx - 1; i >= 0; i-- {
			in := b.Insts[i]
			if in.Op == ir.OpVRegStore && in.Global == g {
				return in.Args[0]
			}
			// Calls preserve callee-saved registers; barriers and
			// atomics do not touch them either.
		}
		ps := preds[b]
		if len(ps) != 1 {
			return nil
		}
		b = ps[0]
		idx = len(b.Insts)
	}
	return nil
}

// isEntryState reports whether a vreg load observes only entry state: it
// sits in the entry block with no call preceding it.
func (a *analyzer) isEntryState(v *ir.Value) bool {
	entry := a.f.Entry()
	if v.Block != entry {
		return false
	}
	for _, in := range entry.Insts {
		if in == v {
			return true
		}
		if in.Op == ir.OpCall || in.Op == ir.OpCallExt {
			return false
		}
	}
	return false
}

func addrsOverlap(a, b *SiteRec) bool {
	// Two purely local sites can only alias at equal stack offsets: each
	// thread's accesses stay inside its own (disjoint) stack allocation, so
	// raw-address comparison adds nothing.
	if a.Class == ClassLocal && b.Class == ClassLocal {
		if a.OffsOverflow || b.OffsOverflow {
			return true
		}
		return setsIntersect(a.Offs, b.Offs)
	}
	if a.Overflow || b.Overflow {
		// Exact sets overflowed: compare by the maintained address ranges
		// (accesses are at most 8 bytes wide).
		return a.Min <= b.Max+8 && b.Min <= a.Max+8
	}
	return setsIntersect(a.Addrs, b.Addrs)
}

func setsIntersect(a, b []uint64) bool {
	for _, x := range a {
		if slices.Contains(b, x) {
			return true
		}
	}
	return false
}
