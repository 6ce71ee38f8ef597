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
// Memory-access locality is recorded dynamically: an instrumented build of
// the recompiled binary reports every executed access site to the host
// recorder, which classifies addresses against the per-thread emulated-stack
// allocations it controls (§3.4.2). Uncovered loops leave the verdict
// conservative: fences are preserved (§3.4.3, false negatives).
package spindet

import (
	"fmt"
	"sort"

	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/vm"
)

// ExtRecMem is the instrumentation runtime hook name.
const ExtRecMem = "__polynima_recmem"

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
// recorder controls each thread's stack allocation (§3.4.2), and distinct
// threads' stacks are disjoint, so local-vs-local aliasing is exactly offset
// equality. Shared accesses are recorded by raw address.
type SiteRec struct {
	Class SiteClass
	// Offs holds stack-relative offsets of local accesses.
	Offs         map[uint64]bool
	OffsOverflow bool
	// Addrs holds raw addresses (shared accesses, plus local ones for
	// local-vs-shared comparisons).
	Addrs    map[uint64]bool
	Overflow bool
	// Min/Max bound every raw address ever recorded (maintained even after
	// the exact set overflows, so overflowed sites compare by range).
	Min, Max uint64
}

// Recording maps SiteID -> observation.
type Recording struct {
	Sites map[int]*SiteRec
}

func newSiteRec() *SiteRec {
	return &SiteRec{Class: ClassUnseen, Addrs: map[uint64]bool{}, Offs: map[uint64]bool{},
		Min: ^uint64(0)}
}

func (r *SiteRec) bound(addr uint64) {
	if addr < r.Min {
		r.Min = addr
	}
	if addr > r.Max {
		r.Max = addr
	}
}

// Recorder collects dynamic memory-access records from an instrumented run.
// It supplies the __polynima_recmem external and a thread-aware override of
// the emulated-stack allocator so it knows each thread's stack range.
type Recorder struct {
	rec    *Recording
	stacks map[int][2]uint64 // thread ID -> [base, end) of its emulated stack
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		rec:    &Recording{Sites: map[int]*SiteRec{}},
		stacks: map[int][2]uint64{},
	}
}

// Recording returns the collected records.
func (r *Recorder) Recording() *Recording { return r.rec }

// Exts returns the host functions an instrumented machine needs.
func (r *Recorder) Exts() map[string]vm.ExtFunc {
	return map[string]vm.ExtFunc{
		// Override the runtime's stack allocator so the recorder controls
		// (and remembers) each thread's emulated-stack allocation.
		"__polynima_thread_init": func(m *vm.Machine, t *vm.Thread) error {
			const sz = 1 << 20
			base := m.Malloc(sz)
			r.stacks[t.ID] = [2]uint64{base, base + sz}
			top := (base + sz - 64) &^ 15
			t.Regs[0] = top // rax
			return nil
		},
		ExtRecMem: func(m *vm.Machine, t *vm.Thread) error {
			site := int(int64(t.Regs[7])) // rdi
			addr := t.Regs[6]             // rsi
			rec := r.rec.Sites[site]
			if rec == nil {
				rec = newSiteRec()
				r.rec.Sites[site] = rec
			}
			rng, ok := r.stacks[t.ID]
			local := ok && addr >= rng[0] && addr < rng[1]
			if local {
				if rec.Class == ClassUnseen {
					rec.Class = ClassLocal
				}
				off := addr - rng[0]
				if len(rec.Offs) < maxAddrsPerSite {
					rec.Offs[off] = true
				} else {
					rec.OffsOverflow = true
				}
			} else {
				rec.Class = ClassShared
			}
			rec.bound(addr)
			if len(rec.Addrs) < maxAddrsPerSite {
				rec.Addrs[addr] = true
			} else {
				rec.Overflow = true
			}
			return nil
		},
	}
}

// Instrument inserts a __polynima_recmem call before every original-program
// memory access site (loads, stores, atomics) of the module. It returns the
// number of instrumented sites. Instrument the optimized module Analyze will
// see, or a build identical to it: the recording then covers every site
// Analyze looks up under the same ID, and since no optimization pass runs
// after the calls go in, none blocks forwarding or promotion around an
// access.
func Instrument(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := 0; i < len(b.Insts); i++ {
				v := b.Insts[i]
				if v.SiteID == 0 {
					continue
				}
				switch v.Op {
				case ir.OpLoad, ir.OpStore, ir.OpAtomicRMW, ir.OpCmpXchg:
				default:
					continue
				}
				n++
				id := f.NewValue(ir.OpConst)
				id.Const = int64(v.SiteID)
				call := f.NewValue(ir.OpCallExt)
				call.ExtName = ExtRecMem
				call.SetArgs(id, v.Args[0])
				b.InsertBefore(id, i)
				b.InsertBefore(call, i+1)
				i += 2
			}
		}
	}
	return n
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
			if r := rec.Sites[in.SiteID]; r == nil || r.Class == ClassUnseen {
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
	rec := a.rec.Sites[v.SiteID]
	if rec == nil || rec.Class == ClassUnseen {
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
			srec := a.rec.Sites[in.SiteID]
			if srec == nil || srec.Class == ClassUnseen {
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

func setsIntersect(a, b map[uint64]bool) bool {
	if len(b) < len(a) {
		a, b = b, a
	}
	for x := range a {
		if b[x] {
			return true
		}
	}
	return false
}
