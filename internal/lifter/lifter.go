// Package lifter translates MX64 machine code into PIR, the package ir
// intermediate representation.
//
// The lifted IR emulates execution of each machine instruction against a
// virtual CPU state held in thread_local globals: sixteen general-purpose
// registers, the four flags, and the vector-register lanes (§3.3.2). The
// emulated program stack is ordinary guest memory addressed through the
// virtual rsp. Translation is deliberately verbose and unrefined (§2.2.1) —
// every register read/write becomes a vreg load/store, every flag update is
// materialized — and the optimizer (internal/opt) is responsible for
// refinement, exactly as the paper relies on LLVM passes.
//
// Key translations:
//   - indirect jumps/calls become switch dispatch over the known-target set
//     with a default edge into the control-flow-miss runtime (additive
//     lifting, §3.2);
//   - direct calls push a faithful return-address slot on the emulated
//     stack and call the lifted callee natively; RET pops it;
//   - lock-prefixed instructions map to seq_cst atomicrmw/cmpxchg wrapped in
//     compiler barriers (Listing 2; §3.3.1) — or, in NaiveAtomics mode, to
//     the global-spinlock translation of Listing 1 for the ablation;
//   - SIMD instructions are scalarized through per-lane globals, modelling
//     the QEMU-helper-style lifting whose cost §4.2 discusses;
//   - acquire/release fences are inserted per Lasagne's strategy around
//     original-program loads/stores, except accesses whose address is
//     stack-derived (taint.go; §3.3.4).
package lifter

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/disasm"
	"repro/internal/image"
	"repro/internal/ir"
	"repro/internal/mx"
)

// Runtime external names (bound by the recompiled binary's host runtime).
const (
	ExtMiss   = "__polynima_miss"
	ExtLock   = "__polynima_lock"
	ExtUnlock = "__polynima_unlock"
)

// Options controls lifting.
type Options struct {
	// InsertFences enables Lasagne-style fence insertion (default in the
	// pipeline; disabled only for ablation benchmarks).
	InsertFences bool
	// NaiveAtomics selects the Listing 1 global-lock translation of atomic
	// instructions instead of the optimized Listing 2 mapping.
	NaiveAtomics bool
	// TrapOnMiss replaces the control-flow-miss runtime call with a plain
	// trap: the static-only baseline behavior (unresolved indirect transfer
	// => crash), with no additive recovery.
	TrapOnMiss bool
}

// Lifted is the result of lifting a binary.
type Lifted struct {
	Mod        *ir.Module
	FuncByAddr map[uint64]*ir.Func
	VRegs      [mx.NumRegs]*ir.Global
	Flags      [4]*ir.Global // zf, sf, cf, of
	VLanes     [mx.NumVRegs][mx.VectorWidth]*ir.Global
	Img        *image.Image
	Graph      *cfg.Graph
}

// Flag indices into Lifted.Flags.
const (
	FlagZF = iota
	FlagSF
	FlagCF
	FlagOF
)

// NewSkeleton builds the module skeleton shared by every lifting strategy:
// the virtual CPU state globals, the original image mapped at its original
// addresses, and one empty registered function per CFG function (created in
// ascending entry order so module layout is independent of how — and in what
// order — function bodies are later produced). Bodies are filled in by
// LiftFunc, or replayed from a function cache (internal/core).
func NewSkeleton(img *image.Image, g *cfg.Graph) *Lifted {
	m := ir.NewModule(img.Name)
	lf := &Lifted{Mod: m, FuncByAddr: map[uint64]*ir.Func{}, Img: img, Graph: g}

	// Virtual CPU state.
	for r := mx.Reg(0); r < mx.NumRegs; r++ {
		lf.VRegs[r] = m.NewGlobal("vr_"+r.String(), 8)
		lf.VRegs[r].ThreadLocal = true
	}
	for i, n := range []string{"zf", "sf", "cf", "of"} {
		lf.Flags[i] = m.NewGlobal("fl_"+n, 8)
		lf.Flags[i].ThreadLocal = true
	}
	for v := 0; v < mx.NumVRegs; v++ {
		for l := 0; l < mx.VectorWidth; l++ {
			lf.VLanes[v][l] = m.NewGlobal(fmt.Sprintf("vv%d_%d", v, l), 8)
			lf.VLanes[v][l].ThreadLocal = true
		}
	}

	// The original image mapped at its original addresses (code pointers
	// and data references keep working without relocation info, §3.1).
	for _, s := range img.Sections {
		og := m.NewGlobal("orig"+s.Name, s.Size)
		og.Addr = s.Addr
		og.Init = s.Data
	}

	// Create all functions first so calls can reference them.
	for _, cf := range SortedFuncs(g) {
		f := m.NewFunc(fmt.Sprintf("lifted_%x", cf.Entry))
		f.External = true // conservatively a possible callback entry (§3.3.3)
		f.OrigEntry = cf.Entry
		lf.FuncByAddr[cf.Entry] = f
	}
	return lf
}

// SortedFuncs returns g's functions in lift order (ascending entry address),
// the order skeleton functions are registered in and site-ID bases are
// assigned in.
func SortedFuncs(g *cfg.Graph) []*cfg.Func {
	funcs := append([]*cfg.Func(nil), g.Funcs...)
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Entry < funcs[j].Entry })
	return funcs
}

// LiftFunc lifts the single CFG function cf into its skeleton function,
// numbering memory-access SiteIDs locally from 1, and returns how many sites
// it emitted. It touches only cf's own function and reads the shared
// image/graph/skeleton, so distinct functions may be lifted concurrently;
// FinalizeSites rebases the local site numbers into the module-wide
// numbering once every body exists.
func (lf *Lifted) LiftFunc(cf *cfg.Func, opts Options) (int, error) {
	sites, err := lf.liftFunc(cf, opts)
	if err != nil {
		return 0, fmt.Errorf("lifter: func %#x: %w", cf.Entry, err)
	}
	return sites, nil
}

// FinalizeSites rewrites per-function-local SiteIDs into the global
// numbering: functions are visited in entry order and each gets the running
// total of prior functions' lift-time site counts as its base — exactly the
// IDs a serial whole-module lift assigns. counts maps function entry to the
// site count its body was lifted with (whether lifted now or replayed from
// cache).
//
// Every original-program memory access site (load, store, atomic) thus
// carries a deterministic SiteID: lifting the same (image, graph) twice
// yields identical SiteIDs, so the spinloop analysis finds each site it
// analyzes under the ID the recording run of the same build reported
// (§3.4.2).
func (lf *Lifted) FinalizeSites(counts map[uint64]int) {
	base := 0
	for _, cf := range SortedFuncs(lf.Graph) {
		f := lf.FuncByAddr[cf.Entry]
		if f == nil {
			continue
		}
		if base > 0 {
			for _, b := range f.Blocks {
				for _, v := range b.Insts {
					if v.SiteID > 0 {
						v.SiteID += base
					}
				}
			}
		}
		base += counts[cf.Entry]
	}
}

// Lift translates the program described by g into a PIR module.
func Lift(img *image.Image, g *cfg.Graph, opts Options) (*Lifted, error) {
	lf := NewSkeleton(img, g)
	counts := make(map[uint64]int, len(g.Funcs))
	for _, cf := range SortedFuncs(g) {
		sites, err := lf.LiftFunc(cf, opts)
		if err != nil {
			return nil, err
		}
		counts[cf.Entry] = sites
	}
	lf.FinalizeSites(counts)
	if err := ir.Verify(lf.Mod); err != nil {
		return nil, fmt.Errorf("lifter: verification failed: %w", err)
	}
	return lf, nil
}

// fnLifter lifts one function.
type fnLifter struct {
	lf     *Lifted
	opts   Options
	f      *ir.Func
	cfgF   *cfg.Func
	blocks map[uint64]*ir.Block
	taint  map[uint64]regMask

	cur     *ir.Block
	derived regMask
	pc      uint64 // current original instruction address
	nextPC  uint64
	dead    bool // an unreachable was emitted; skip the rest of the block
	naux    int
	sites   int // function-local site counter; rebased by FinalizeSites

	// lastFlag tracks, within a block, the operation that last set the
	// flags, so conditions can be lifted as direct comparisons on the SSA
	// operands instead of reloading materialized flag globals — the
	// instcombine-style cleanup LLVM performs on flag-emulating lifted IR.
	// The flag globals are still written at every flag-setting instruction;
	// the dead-store eliminator removes the unread ones.
	lastFlag flagState
}

// flagKind classifies the instruction that last set the flags.
type flagKind uint8

const (
	flagsUnknown flagKind = iota
	flagsSub              // CMP/SUB/NEG: full a-vs-b semantics
	flagsLogic            // AND/OR/XOR/TEST: ZF/SF from result, CF=OF=0
	flagsZS               // ADD/IMUL/SHIFT/...: only ZF/SF valid via result
	flagsBool             // CMPXCHG: ZF holds a known 0/1 value
)

type flagState struct {
	kind flagKind
	a, b *ir.Value // flagsSub operands
	r    *ir.Value // result value (flagsSub/flagsLogic/flagsZS)
	v    *ir.Value // flagsBool 0/1 value
}

func (lf *Lifted) liftFunc(cf *cfg.Func, opts Options) (int, error) {
	f := lf.FuncByAddr[cf.Entry]
	taint, err := stackTaint(lf.Img, lf.Graph, cf)
	if err != nil {
		return 0, err
	}
	n := &fnLifter{lf: lf, opts: opts, f: f, cfgF: cf, taint: taint,
		blocks: map[uint64]*ir.Block{}}

	// Entry block first, then the rest in address order.
	addrs := append([]uint64(nil), cf.Blocks...)
	sort.Slice(addrs, func(i, j int) bool {
		if addrs[i] == cf.Entry {
			return true
		}
		if addrs[j] == cf.Entry {
			return false
		}
		return addrs[i] < addrs[j]
	})
	for _, a := range addrs {
		b := f.NewBlock(fmt.Sprintf("b_%x", a))
		b.OrigAddr = a
		n.blocks[a] = b
	}
	for _, a := range addrs {
		if err := n.liftBlock(a); err != nil {
			return 0, err
		}
	}
	return n.sites, nil
}

// --- small emission helpers -------------------------------------------------

func (n *fnLifter) emit(op ir.Op, args ...*ir.Value) *ir.Value {
	v := n.cur.Append(op, args...)
	v.OrigPC = n.pc
	return v
}

func (n *fnLifter) c(x int64) *ir.Value {
	v := n.emit(ir.OpConst)
	v.Const = x
	return v
}

func (n *fnLifter) ld(r mx.Reg) *ir.Value {
	v := n.emit(ir.OpVRegLoad)
	v.Global = n.lf.VRegs[r]
	return v
}

func (n *fnLifter) st(r mx.Reg, val *ir.Value) {
	v := n.emit(ir.OpVRegStore, val)
	v.Global = n.lf.VRegs[r]
}

func (n *fnLifter) ldFlag(i int) *ir.Value {
	v := n.emit(ir.OpVRegLoad)
	v.Global = n.lf.Flags[i]
	return v
}

func (n *fnLifter) stFlag(i int, val *ir.Value) {
	v := n.emit(ir.OpVRegStore, val)
	v.Global = n.lf.Flags[i]
}

func (n *fnLifter) ldLane(vr mx.Reg, lane int) *ir.Value {
	v := n.emit(ir.OpVRegLoad)
	v.Global = n.lf.VLanes[vr][lane]
	return v
}

func (n *fnLifter) stLane(vr mx.Reg, lane int, val *ir.Value) {
	v := n.emit(ir.OpVRegStore, val)
	v.Global = n.lf.VLanes[vr][lane]
}

func (n *fnLifter) icmp(p ir.Pred, a, b *ir.Value) *ir.Value {
	v := n.emit(ir.OpICmp, a, b)
	v.Pred = p
	return v
}

func (n *fnLifter) fence(o ir.Order) {
	v := n.emit(ir.OpFence)
	v.Order = o
}

func (n *fnLifter) barrier() { n.emit(ir.OpBarrier) }

func (n *fnLifter) newSite() int {
	n.sites++
	return n.sites
}

// gload emits an original-program memory load with fence insertion.
func (n *fnLifter) gload(addr *ir.Value, width int, sext, stackLocal bool) *ir.Value {
	v := n.emit(ir.OpLoad, addr)
	v.Width = width
	v.SignExt = sext
	v.StackLocal = stackLocal
	v.SiteID = n.newSite()
	if n.opts.InsertFences && !stackLocal {
		n.fence(ir.OrderAcquire)
	}
	return v
}

// gstore emits an original-program memory store with fence insertion.
func (n *fnLifter) gstore(addr, val *ir.Value, width int, stackLocal bool) {
	if n.opts.InsertFences && !stackLocal {
		n.fence(ir.OrderRelease)
	}
	v := n.emit(ir.OpStore, addr, val)
	v.Width = width
	v.StackLocal = stackLocal
	v.SiteID = n.newSite()
}

// memAddr computes the effective address of a Mem-layout operand.
func (n *fnLifter) memAddr(inst mx.Inst) (*ir.Value, bool) {
	addr := n.ld(inst.Base)
	if inst.Disp != 0 {
		addr = n.emit(ir.OpAdd, addr, n.c(int64(inst.Disp)))
	}
	return addr, n.derived.has(inst.Base)
}

// memAddrIdx computes the effective address of a MemIdx-layout operand.
// Indexed addressing is never "directly" stack-derived (§3.3.4).
func (n *fnLifter) memAddrIdx(inst mx.Inst) *ir.Value {
	base := n.ld(inst.Base)
	idx := n.ld(inst.Idx)
	if inst.Scale > 1 {
		sh := int64(0)
		for s := inst.Scale; s > 1; s >>= 1 {
			sh++
		}
		idx = n.emit(ir.OpShl, idx, n.c(sh))
	}
	addr := n.emit(ir.OpAdd, base, idx)
	if inst.Disp != 0 {
		addr = n.emit(ir.OpAdd, addr, n.c(int64(inst.Disp)))
	}
	return addr
}

// --- flags -------------------------------------------------------------------

func (n *fnLifter) setZS(r *ir.Value) {
	n.stFlag(FlagZF, n.icmp(ir.PredEQ, r, n.c(0)))
	n.stFlag(FlagSF, n.icmp(ir.PredSLT, r, n.c(0)))
	n.lastFlag = flagState{kind: flagsZS, r: r}
}

func (n *fnLifter) clearCFOF(r *ir.Value) {
	n.stFlag(FlagCF, n.c(0))
	n.stFlag(FlagOF, n.c(0))
	n.lastFlag = flagState{kind: flagsLogic, r: r}
}

func (n *fnLifter) setAddFlags(a, b, r *ir.Value) {
	n.setZS(r)
	n.stFlag(FlagCF, n.icmp(ir.PredULT, r, a))
	sa := n.icmp(ir.PredSLT, a, n.c(0))
	sb := n.icmp(ir.PredSLT, b, n.c(0))
	sr := n.icmp(ir.PredSLT, r, n.c(0))
	same := n.icmp(ir.PredEQ, sa, sb)
	diff := n.icmp(ir.PredNE, sr, sa)
	n.stFlag(FlagOF, n.emit(ir.OpAnd, same, diff))
}

func (n *fnLifter) setSubFlags(a, b, r *ir.Value) {
	n.setZS(r)
	n.stFlag(FlagCF, n.icmp(ir.PredULT, a, b))
	sa := n.icmp(ir.PredSLT, a, n.c(0))
	sb := n.icmp(ir.PredSLT, b, n.c(0))
	sr := n.icmp(ir.PredSLT, r, n.c(0))
	diffAB := n.icmp(ir.PredNE, sa, sb)
	diffRA := n.icmp(ir.PredNE, sr, sa)
	n.stFlag(FlagOF, n.emit(ir.OpAnd, diffAB, diffRA))
	n.lastFlag = flagState{kind: flagsSub, a: a, b: b, r: r}
}

// condValue materializes an MX64 condition as a 0/1 value — directly from
// the SSA operands of the last flag-setting instruction when it is known in
// this block, otherwise from the materialized flag globals.
func (n *fnLifter) condValue(cc mx.Cond) *ir.Value {
	if v := n.condDirect(cc); v != nil {
		return v
	}
	return n.condFromFlags(cc)
}

// condDirect lowers a condition against the tracked flag source, or returns
// nil when it cannot.
func (n *fnLifter) condDirect(cc mx.Cond) *ir.Value {
	fs := n.lastFlag
	switch fs.kind {
	case flagsSub:
		preds := map[mx.Cond]ir.Pred{
			mx.CondE: ir.PredEQ, mx.CondNE: ir.PredNE,
			mx.CondL: ir.PredSLT, mx.CondLE: ir.PredSLE,
			mx.CondG: ir.PredSGT, mx.CondGE: ir.PredSGE,
			mx.CondB: ir.PredULT, mx.CondBE: ir.PredULE,
			mx.CondA: ir.PredUGT, mx.CondAE: ir.PredUGE,
		}
		if p, ok := preds[cc]; ok {
			return n.icmp(p, fs.a, fs.b)
		}
		switch cc {
		case mx.CondS:
			return n.icmp(ir.PredSLT, fs.r, n.c(0))
		case mx.CondNS:
			return n.icmp(ir.PredSGE, fs.r, n.c(0))
		}
	case flagsLogic:
		// CF = OF = 0; ZF/SF from the result.
		switch cc {
		case mx.CondE, mx.CondBE:
			return n.icmp(ir.PredEQ, fs.r, n.c(0))
		case mx.CondNE, mx.CondA:
			return n.icmp(ir.PredNE, fs.r, n.c(0))
		case mx.CondS, mx.CondL:
			return n.icmp(ir.PredSLT, fs.r, n.c(0))
		case mx.CondNS, mx.CondGE:
			return n.icmp(ir.PredSGE, fs.r, n.c(0))
		case mx.CondLE:
			return n.icmp(ir.PredSLE, fs.r, n.c(0))
		case mx.CondG:
			return n.icmp(ir.PredSGT, fs.r, n.c(0))
		case mx.CondB:
			return n.c(0)
		case mx.CondAE:
			return n.c(1)
		}
	case flagsZS:
		switch cc {
		case mx.CondE:
			return n.icmp(ir.PredEQ, fs.r, n.c(0))
		case mx.CondNE:
			return n.icmp(ir.PredNE, fs.r, n.c(0))
		case mx.CondS:
			return n.icmp(ir.PredSLT, fs.r, n.c(0))
		case mx.CondNS:
			return n.icmp(ir.PredSGE, fs.r, n.c(0))
		}
	case flagsBool:
		switch cc {
		case mx.CondE:
			return fs.v
		case mx.CondNE:
			return n.icmp(ir.PredEQ, fs.v, n.c(0))
		}
	}
	return nil
}

// condFromFlags materializes a condition from the flag globals.
func (n *fnLifter) condFromFlags(cc mx.Cond) *ir.Value {
	not := func(v *ir.Value) *ir.Value { return n.icmp(ir.PredEQ, v, n.c(0)) }
	switch cc {
	case mx.CondE:
		return n.ldFlag(FlagZF)
	case mx.CondNE:
		return not(n.ldFlag(FlagZF))
	case mx.CondL:
		return n.icmp(ir.PredNE, n.ldFlag(FlagSF), n.ldFlag(FlagOF))
	case mx.CondLE:
		l := n.icmp(ir.PredNE, n.ldFlag(FlagSF), n.ldFlag(FlagOF))
		return n.emit(ir.OpOr, n.ldFlag(FlagZF), l)
	case mx.CondG:
		ge := n.icmp(ir.PredEQ, n.ldFlag(FlagSF), n.ldFlag(FlagOF))
		return n.emit(ir.OpAnd, not(n.ldFlag(FlagZF)), ge)
	case mx.CondGE:
		return n.icmp(ir.PredEQ, n.ldFlag(FlagSF), n.ldFlag(FlagOF))
	case mx.CondB:
		return n.ldFlag(FlagCF)
	case mx.CondBE:
		return n.emit(ir.OpOr, n.ldFlag(FlagCF), n.ldFlag(FlagZF))
	case mx.CondA:
		return n.emit(ir.OpAnd, not(n.ldFlag(FlagCF)), not(n.ldFlag(FlagZF)))
	case mx.CondAE:
		return not(n.ldFlag(FlagCF))
	case mx.CondS:
		return n.ldFlag(FlagSF)
	case mx.CondNS:
		return not(n.ldFlag(FlagSF))
	}
	return n.c(0)
}

// --- block lifting -----------------------------------------------------------

func (n *fnLifter) liftBlock(addr uint64) error {
	cb := n.lf.Graph.Blocks[addr]
	if cb == nil {
		return fmt.Errorf("missing cfg block %#x", addr)
	}
	insts, pcs, err := disasm.DecodeBlock(n.lf.Img, cb)
	if err != nil {
		return err
	}
	n.cur = n.blocks[addr]
	n.derived = n.taint[addr]
	n.dead = false
	n.lastFlag = flagState{}

	for i, inst := range insts {
		n.pc = pcs[i]
		n.nextPC = n.pc + uint64(inst.Len())
		if n.dead {
			break
		}
		if err := n.liftInst(inst, cb); err != nil {
			return fmt.Errorf("at %#x (%s): %w", n.pc, inst, err)
		}
		n.derived = taintTransfer(inst, n.derived)
	}
	// Unterminated IR block: the cfg block fell through (split or callext).
	if !n.dead && n.cur.Term() == nil {
		fall := cb.Fall
		if fall == 0 {
			fall = addr + cb.Size
		}
		if fb, ok := n.blocks[fall]; ok {
			n.emit(ir.OpBr).Targets = []*ir.Block{fb}
		} else {
			n.missTo(n.c(int64(fall)))
		}
	}
	return nil
}

// missTo terminates the current block with a control-flow-miss runtime call
// (the additive-lifting hook): record the dynamic target, then stop. Under
// TrapOnMiss it emits a bare trap instead (static-only baselines).
func (n *fnLifter) missTo(target *ir.Value) {
	if !n.opts.TrapOnMiss {
		call := n.emit(ir.OpCallExt, n.c(int64(n.pc)), target)
		call.ExtName = ExtMiss
	}
	n.emit(ir.OpUnreachable)
	n.dead = true
}

// dummyPush writes the return address to the emulated stack before a call,
// preserving the original stack layout (callees may take addresses relative
// to their frame; alignment guarantees are maintained, §3.3.1).
func (n *fnLifter) dummyPush(retAddr uint64) {
	rsp := n.ld(mx.RSP)
	nrsp := n.emit(ir.OpSub, rsp, n.c(8))
	n.st(mx.RSP, nrsp)
	n.gstore(nrsp, n.c(int64(retAddr)), 8, true)
}

func (n *fnLifter) liftInst(inst mx.Inst, cb *cfg.Block) error {
	switch inst.Op {
	case mx.NOP:
	case mx.MOVRR:
		n.st(inst.Dst, n.ld(inst.Src))
	case mx.MOVRI:
		n.st(inst.Dst, n.c(inst.Imm))
	case mx.LEA:
		addr, _ := n.memAddr(inst)
		n.st(inst.Dst, addr)
	case mx.LEAIDX:
		n.st(inst.Dst, n.memAddrIdx(inst))

	case mx.LOAD8, mx.LOAD32, mx.LOAD64:
		addr, sl := n.memAddr(inst)
		w, sext := widthOf(inst.Op)
		n.st(inst.Dst, n.gload(addr, w, sext, sl))
	case mx.STORE8, mx.STORE32, mx.STORE64:
		addr, sl := n.memAddr(inst)
		w, _ := widthOf(inst.Op)
		n.gstore(addr, n.ld(inst.Dst), w, sl)
	case mx.STOREI8, mx.STOREI32, mx.STOREI64:
		addr, sl := n.memAddr(inst)
		w, _ := widthOf(inst.Op)
		n.gstore(addr, n.c(inst.Imm), w, sl)
	case mx.LOADIDX8, mx.LOADIDX32, mx.LOADIDX64:
		addr := n.memAddrIdx(inst)
		w, sext := widthOf(inst.Op)
		n.st(inst.Dst, n.gload(addr, w, sext, false))
	case mx.STOREIDX8, mx.STOREIDX32, mx.STOREIDX64:
		addr := n.memAddrIdx(inst)
		w, _ := widthOf(inst.Op)
		n.gstore(addr, n.ld(inst.Dst), w, false)

	case mx.ADDRR, mx.ADDRI:
		a := n.ld(inst.Dst)
		b := n.aluSrc(inst)
		r := n.emit(ir.OpAdd, a, b)
		n.setAddFlags(a, b, r)
		n.st(inst.Dst, r)
	case mx.SUBRR, mx.SUBRI:
		a := n.ld(inst.Dst)
		b := n.aluSrc(inst)
		r := n.emit(ir.OpSub, a, b)
		n.setSubFlags(a, b, r)
		n.st(inst.Dst, r)
	case mx.CMPRR, mx.CMPRI:
		a := n.ld(inst.Dst)
		b := n.aluSrc(inst)
		r := n.emit(ir.OpSub, a, b)
		n.setSubFlags(a, b, r)
	case mx.ANDRR, mx.ANDRI, mx.ORRR, mx.ORRI, mx.XORRR, mx.XORRI:
		a := n.ld(inst.Dst)
		b := n.aluSrc(inst)
		var r *ir.Value
		switch inst.Op {
		case mx.ANDRR, mx.ANDRI:
			r = n.emit(ir.OpAnd, a, b)
		case mx.ORRR, mx.ORRI:
			r = n.emit(ir.OpOr, a, b)
		default:
			r = n.emit(ir.OpXor, a, b)
		}
		n.setZS(r)
		n.clearCFOF(r)
		n.st(inst.Dst, r)
	case mx.TESTRR, mx.TESTRI:
		a := n.ld(inst.Dst)
		b := n.aluSrc(inst)
		r := n.emit(ir.OpAnd, a, b)
		n.setZS(r)
		n.clearCFOF(r)
	case mx.SHLRR, mx.SHLRI, mx.SHRRR, mx.SHRRI, mx.SARRR, mx.SARRI:
		a := n.ld(inst.Dst)
		b := n.aluSrc(inst)
		var r *ir.Value
		switch inst.Op {
		case mx.SHLRR, mx.SHLRI:
			r = n.emit(ir.OpShl, a, b)
		case mx.SHRRR, mx.SHRRI:
			r = n.emit(ir.OpLshr, a, b)
		default:
			r = n.emit(ir.OpAshr, a, b)
		}
		n.setZS(r)
		n.st(inst.Dst, r)
	case mx.IMULRR, mx.IMULRI:
		a := n.ld(inst.Dst)
		b := n.aluSrc(inst)
		r := n.emit(ir.OpMul, a, b)
		n.setZS(r)
		n.st(inst.Dst, r)
	case mx.DIVRR, mx.MODRR:
		a := n.ld(inst.Dst)
		b := n.ld(inst.Src)
		op := ir.OpSDiv
		if inst.Op == mx.MODRR {
			op = ir.OpSRem
		}
		r := n.emit(op, a, b)
		n.setZS(r)
		n.st(inst.Dst, r)
	case mx.NEG:
		a := n.ld(inst.Dst)
		r := n.emit(ir.OpNeg, a)
		n.setSubFlags(n.c(0), a, r)
		n.st(inst.Dst, r)
	case mx.NOT:
		n.st(inst.Dst, n.emit(ir.OpNot, n.ld(inst.Dst)))
	case mx.SETCC:
		n.st(inst.Dst, n.condValue(inst.Cc))

	case mx.PUSH:
		val := n.ld(inst.Dst)
		rsp := n.ld(mx.RSP)
		nrsp := n.emit(ir.OpSub, rsp, n.c(8))
		n.st(mx.RSP, nrsp)
		n.gstore(nrsp, val, 8, true)
	case mx.POP:
		rsp := n.ld(mx.RSP)
		v := n.gload(rsp, 8, false, true)
		n.st(inst.Dst, v)
		n.st(mx.RSP, n.emit(ir.OpAdd, rsp, n.c(8)))

	case mx.JMP:
		target := uint64(int64(n.nextPC) + int64(inst.Disp))
		if tb, ok := n.blocks[target]; ok {
			n.emit(ir.OpBr).Targets = []*ir.Block{tb}
		} else {
			n.missTo(n.c(int64(target)))
		}
		n.dead = true
	case mx.JCC:
		target := uint64(int64(n.nextPC) + int64(inst.Disp))
		tb, okT := n.blocks[target]
		fb, okF := n.blocks[n.nextPC]
		if !okT || !okF {
			// Partially lifted graph (single-block translation, trace-only
			// baselines): route missing edges through the miss handler.
			cond := n.condValue(inst.Cc)
			takenB := n.newAuxBlock("jcc_t")
			fallB := n.newAuxBlock("jcc_f")
			cbv := n.emit(ir.OpCondBr, cond)
			cbv.Targets = []*ir.Block{takenB, fallB}
			save := n.cur
			n.cur = takenB
			if okT {
				n.emit(ir.OpBr).Targets = []*ir.Block{tb}
			} else {
				n.dead = false
				n.missTo(n.c(int64(target)))
			}
			n.cur = fallB
			if okF {
				n.emit(ir.OpBr).Targets = []*ir.Block{fb}
			} else {
				n.dead = false
				n.missTo(n.c(int64(n.nextPC)))
			}
			n.cur = save
			n.dead = true
			return nil
		}
		cond := n.condValue(inst.Cc)
		cbv := n.emit(ir.OpCondBr, cond)
		cbv.Targets = []*ir.Block{tb, fb}
		n.dead = true
	case mx.JMPR:
		n.liftIndirectJump(n.ld(inst.Dst), cb)
	case mx.JMPM:
		slot := n.memAddrIdx(mx.Inst{Op: mx.LEAIDX, Base: inst.Base, Idx: inst.Idx, Scale: 8, Disp: inst.Disp})
		target := n.gload(slot, 8, false, false)
		n.liftIndirectJump(target, cb)
	case mx.CALL:
		target := uint64(int64(n.nextPC) + int64(inst.Disp))
		callee, ok := n.lf.FuncByAddr[target]
		if !ok {
			n.missTo(n.c(int64(target)))
			return nil
		}
		n.dummyPush(n.nextPC)
		n.emit(ir.OpCall).Fn = callee
		n.brFall(cb)
	case mx.CALLR:
		n.liftIndirectCall(n.ld(inst.Dst), cb)
	case mx.CALLX:
		if int(inst.Ext) >= len(n.lf.Img.Imports) {
			return fmt.Errorf("import #%d out of range", inst.Ext)
		}
		n.liftExternalCall(n.lf.Img.Imports[inst.Ext])
	case mx.RET:
		rsp := n.ld(mx.RSP)
		n.st(mx.RSP, n.emit(ir.OpAdd, rsp, n.c(8)))
		n.emit(ir.OpRet)
		n.dead = true
	case mx.HLT:
		call := n.emit(ir.OpCallExt, n.ld(mx.RDI))
		call.ExtName = "exit"
		n.emit(ir.OpUnreachable)
		n.dead = true
	case mx.SYSCALL, mx.UD2, mx.BAD:
		// Unsupported (§3.1) / trap: the lifted program must never reach
		// here; if it does, stop deterministically.
		n.emit(ir.OpUnreachable)
		n.dead = true
	case mx.TLSBASE:
		// Input binaries do not use TLS directly (pthread-style TLS is
		// behind library calls); only recompiled outputs do.
		n.emit(ir.OpUnreachable)
		n.dead = true

	case mx.MFENCE:
		n.fence(ir.OrderSeqCst)

	case mx.LOCKADD, mx.LOCKSUB, mx.LOCKAND, mx.LOCKOR, mx.LOCKXOR,
		mx.LOCKXADD, mx.LOCKINC, mx.LOCKDEC, mx.XCHG, mx.CMPXCHG:
		if n.opts.NaiveAtomics {
			n.liftAtomicNaive(inst)
		} else {
			n.liftAtomicOptimized(inst)
		}

	case mx.VLOAD:
		addr, sl := n.memAddr(inst)
		for l := 0; l < mx.VectorWidth; l++ {
			la := addr
			if l > 0 {
				la = n.emit(ir.OpAdd, addr, n.c(int64(l*8)))
			}
			n.stLane(inst.Dst, l, n.gload(la, 8, false, sl))
		}
	case mx.VSTORE:
		addr, sl := n.memAddr(inst)
		for l := 0; l < mx.VectorWidth; l++ {
			la := addr
			if l > 0 {
				la = n.emit(ir.OpAdd, addr, n.c(int64(l*8)))
			}
			n.gstore(la, n.ldLane(inst.Dst, l), 8, sl)
		}
	case mx.VADD, mx.VMUL:
		op := ir.OpAdd
		if inst.Op == mx.VMUL {
			op = ir.OpMul
		}
		for l := 0; l < mx.VectorWidth; l++ {
			n.stLane(inst.Dst, l, n.emit(op, n.ldLane(inst.Dst, l), n.ldLane(inst.Src, l)))
		}
	case mx.VBCAST:
		v := n.ld(inst.Src)
		for l := 0; l < mx.VectorWidth; l++ {
			n.stLane(inst.Dst, l, v)
		}
	case mx.VHADD:
		sum := n.ldLane(inst.Src, 0)
		for l := 1; l < mx.VectorWidth; l++ {
			sum = n.emit(ir.OpAdd, sum, n.ldLane(inst.Src, l))
		}
		n.st(inst.Dst, sum)

	default:
		return fmt.Errorf("unhandled opcode %v", inst.Op)
	}
	return nil
}

func widthOf(op mx.Op) (int, bool) {
	switch op {
	case mx.LOAD8, mx.STORE8, mx.STOREI8, mx.LOADIDX8, mx.STOREIDX8:
		return 1, false
	case mx.LOAD32, mx.STORE32, mx.STOREI32, mx.LOADIDX32, mx.STOREIDX32:
		return 4, true
	default:
		return 8, false
	}
}

func (n *fnLifter) aluSrc(inst mx.Inst) *ir.Value {
	if mx.LayoutOf(inst.Op) == mx.LayoutRI {
		return n.c(inst.Imm)
	}
	return n.ld(inst.Src)
}

// brFall terminates the current block with a branch to the fallthrough.
func (n *fnLifter) brFall(cb *cfg.Block) {
	if fb, ok := n.blocks[cb.Fall]; ok {
		n.emit(ir.OpBr).Targets = []*ir.Block{fb}
	} else {
		n.missTo(n.c(int64(cb.Fall)))
	}
	n.dead = true
}

// liftIndirectJump dispatches a dynamic jump target over the block's known
// target set (switch over the emulated PC, §3.2), with the default edge
// calling into the miss runtime.
func (n *fnLifter) liftIndirectJump(target *ir.Value, cb *cfg.Block) {
	missB := n.newAuxBlock("miss")
	sw := n.emit(ir.OpSwitch, target)
	sw.Targets = []*ir.Block{missB}
	for _, t := range cb.Targets {
		if tb, ok := n.blocks[t]; ok {
			sw.Targets = append(sw.Targets, tb)
			sw.SwitchVals = append(sw.SwitchVals, int64(t))
		}
	}
	save := n.cur
	n.cur = missB
	call := n.emit(ir.OpCallExt, n.c(int64(n.pc)), target)
	call.ExtName = ExtMiss
	n.emit(ir.OpUnreachable)
	n.cur = save
	n.dead = true
}

// liftIndirectCall dispatches a dynamic call target over the known callee
// set; each case calls the lifted callee then rejoins the fallthrough.
func (n *fnLifter) liftIndirectCall(target *ir.Value, cb *cfg.Block) {
	n.dummyPush(cb.Addr + cb.Size)
	missB := n.newAuxBlock("miss")
	contB := n.blocks[cb.Fall]
	sw := n.emit(ir.OpSwitch, target)
	sw.Targets = []*ir.Block{missB}
	save := n.cur
	for _, t := range cb.Targets {
		callee, ok := n.lf.FuncByAddr[t]
		if !ok {
			continue
		}
		caseB := n.newAuxBlock(fmt.Sprintf("call_%x", t))
		sw.Targets = append(sw.Targets, caseB)
		sw.SwitchVals = append(sw.SwitchVals, int64(t))
		n.cur = caseB
		n.emit(ir.OpCall).Fn = callee
		if contB != nil {
			n.emit(ir.OpBr).Targets = []*ir.Block{contB}
		} else {
			n.missTo(n.c(int64(cb.Fall)))
			n.dead = false
		}
	}
	n.cur = missB
	call := n.emit(ir.OpCallExt, n.c(int64(n.pc)), target)
	call.ExtName = ExtMiss
	n.emit(ir.OpUnreachable)
	n.cur = save
	n.dead = true
}

// liftExternalCall marshals the virtual argument registers into an external
// call and stores the result back to the virtual rax. External calls execute
// on the native stack; the host library never interprets the emulated stack,
// so no explicit stack switching is required in this execution model (§3.1's
// stack-switching concern is about callees that read caller stack memory).
func (n *fnLifter) liftExternalCall(name string) {
	args := []*ir.Value{
		n.ld(mx.RDI), n.ld(mx.RSI), n.ld(mx.RDX),
		n.ld(mx.RCX), n.ld(mx.R8), n.ld(mx.R9),
	}
	call := n.emit(ir.OpCallExt, args...)
	call.ExtName = name
	n.st(mx.RAX, call)
}

func (n *fnLifter) newAuxBlock(tag string) *ir.Block {
	n.naux++
	b := n.f.NewBlock(fmt.Sprintf("aux_%x_%s%d", n.pc, tag, n.naux))
	return b
}

// --- atomics -----------------------------------------------------------------

// liftAtomicOptimized emits the Listing 2 translation: seq_cst atomic IR
// operations surrounded by compiler barriers, with flag/register effects
// reconstructed from the returned old value.
func (n *fnLifter) liftAtomicOptimized(inst mx.Inst) {
	n.barrier()
	addr, _ := n.memAddr(inst)
	switch inst.Op {
	case mx.LOCKADD, mx.LOCKSUB, mx.LOCKAND, mx.LOCKOR, mx.LOCKXOR:
		v := n.ld(inst.Dst)
		kind := map[mx.Op]ir.RMWKind{
			mx.LOCKADD: ir.RMWAdd, mx.LOCKSUB: ir.RMWSub, mx.LOCKAND: ir.RMWAnd,
			mx.LOCKOR: ir.RMWOr, mx.LOCKXOR: ir.RMWXor,
		}[inst.Op]
		old := n.emit(ir.OpAtomicRMW, addr, v)
		old.RMW = kind
		old.SiteID = n.newSite()
		var res *ir.Value
		switch kind {
		case ir.RMWAdd:
			res = n.emit(ir.OpAdd, old, v)
		case ir.RMWSub:
			res = n.emit(ir.OpSub, old, v)
		case ir.RMWAnd:
			res = n.emit(ir.OpAnd, old, v)
		case ir.RMWOr:
			res = n.emit(ir.OpOr, old, v)
		default:
			res = n.emit(ir.OpXor, old, v)
		}
		n.setZS(res)
	case mx.LOCKXADD:
		v := n.ld(inst.Dst)
		old := n.emit(ir.OpAtomicRMW, addr, v)
		old.RMW = ir.RMWAdd
		n.st(inst.Dst, old)
	case mx.LOCKINC, mx.LOCKDEC:
		one := n.c(1)
		old := n.emit(ir.OpAtomicRMW, addr, one)
		var res *ir.Value
		if inst.Op == mx.LOCKINC {
			old.RMW = ir.RMWAdd
			res = n.emit(ir.OpAdd, old, one)
		} else {
			old.RMW = ir.RMWSub
			res = n.emit(ir.OpSub, old, one)
		}
		n.setZS(res)
	case mx.XCHG:
		v := n.ld(inst.Dst)
		old := n.emit(ir.OpAtomicRMW, addr, v)
		old.RMW = ir.RMWXchg
		n.st(inst.Dst, old)
	case mx.CMPXCHG:
		exp := n.ld(mx.RAX)
		newv := n.ld(inst.Dst)
		old := n.emit(ir.OpCmpXchg, addr, exp, newv)
		old.SiteID = n.newSite()
		succ := n.icmp(ir.PredEQ, old, exp)
		n.stFlag(FlagZF, succ)
		n.lastFlag = flagState{kind: flagsBool, v: succ}
		// On success rax is unchanged (and equals old); on failure rax
		// receives the observed value — storing old covers both.
		n.st(mx.RAX, old)
	}
	n.barrier()
}

// liftAtomicNaive emits the Listing 1 translation: every atomic decomposes
// into plain loads/stores under one global runtime lock. Correct, but every
// thread executing any atomic serializes on the same lock.
func (n *fnLifter) liftAtomicNaive(inst mx.Inst) {
	lock := n.emit(ir.OpCallExt)
	lock.ExtName = ExtLock
	addr, _ := n.memAddr(inst)
	mem := n.gload(addr, 8, false, false)
	switch inst.Op {
	case mx.LOCKADD, mx.LOCKSUB, mx.LOCKAND, mx.LOCKOR, mx.LOCKXOR:
		v := n.ld(inst.Dst)
		var res *ir.Value
		switch inst.Op {
		case mx.LOCKADD:
			res = n.emit(ir.OpAdd, mem, v)
		case mx.LOCKSUB:
			res = n.emit(ir.OpSub, mem, v)
		case mx.LOCKAND:
			res = n.emit(ir.OpAnd, mem, v)
		case mx.LOCKOR:
			res = n.emit(ir.OpOr, mem, v)
		default:
			res = n.emit(ir.OpXor, mem, v)
		}
		n.gstore(addr, res, 8, false)
		n.setZS(res)
	case mx.LOCKXADD:
		v := n.ld(inst.Dst)
		res := n.emit(ir.OpAdd, mem, v)
		n.gstore(addr, res, 8, false)
		n.st(inst.Dst, mem)
	case mx.LOCKINC, mx.LOCKDEC:
		op := ir.OpAdd
		if inst.Op == mx.LOCKDEC {
			op = ir.OpSub
		}
		res := n.emit(op, mem, n.c(1))
		n.gstore(addr, res, 8, false)
		n.setZS(res)
	case mx.XCHG:
		v := n.ld(inst.Dst)
		n.gstore(addr, v, 8, false)
		n.st(inst.Dst, mem)
	case mx.CMPXCHG:
		exp := n.ld(mx.RAX)
		newv := n.ld(inst.Dst)
		succ := n.icmp(ir.PredEQ, mem, exp)
		n.stFlag(FlagZF, succ)
		n.lastFlag = flagState{kind: flagsBool, v: succ}
		store := n.emit(ir.OpSelect, succ, newv, mem)
		n.gstore(addr, store, 8, false)
		n.st(mx.RAX, mem)
	}
	unlock := n.emit(ir.OpCallExt)
	unlock.ExtName = ExtUnlock
}

// TranslateBlock lifts one basic block in isolation into a throwaway module
// (edges to unlifted blocks route through the miss/trap path). The
// BinRec-like baseline uses it to reproduce emulator-coupled per-block
// translation cost; it returns the number of IR instructions produced.
func TranslateBlock(img *image.Image, b *cfg.Block) (int, error) {
	g := cfg.NewGraph(b.Addr)
	f := g.AddFunc(b.Addr)
	nb := *b
	nb.Targets = append([]uint64(nil), b.Targets...)
	g.Blocks[b.Addr] = &nb
	g.AddBlockToFunc(f, b.Addr)
	lf, err := Lift(img, g, Options{TrapOnMiss: true})
	if err != nil {
		return 0, err
	}
	n := 0
	for _, fn := range lf.Mod.Funcs {
		for _, blk := range fn.Blocks {
			n += len(blk.Insts)
		}
	}
	return n, nil
}
