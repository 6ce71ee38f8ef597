package vm

import (
	"encoding/binary"

	"repro/internal/mx"
)

// This file implements the VM's one execution engine: threaded code over
// predecoded pages. Each page carries a handler pointer per byte offset,
// filled in when the offset first dispatches (compileAt), so dispatch is an
// indirect call per instruction — Go's idiom for computed-goto dispatch —
// and opHandlers is the only definition of MX64 instruction semantics. Two
// loops run the handlers:
//
//   - stepBatchCounted, the per-step reference: one instruction per
//     dispatch with eager accounting, run when machine counters are on;
//   - stepBatchFast, run with counters off, which stacks three tiers on the
//     handler table: flat runs of "simple" instructions (no control
//     transfer, no external call, no hook site) through an inline micro-op
//     table, retiring with one precomputed insts/cycles sum applied at the
//     next flush point and an exact per-prefix fallback when a run exits
//     early; inline same-page control flow; and fused CMP/TEST/SUB+JCC
//     pairs (selected when the flag setter compiles).
//
// On weak machines (weak.go) the micro-op table's 64-bit plain and indexed
// loads and stores work on the thread's store buffer inline, with the
// handlers' forwarding and drain points; every other memory access goes
// through the weak handlers.
//
// A machine recording memory accesses (record.go) swaps each tagged
// offset's handler for one that reports the access and then runs the
// original. Tagged offsets stay in their flat runs but leave the inline
// micro-op table, so both loops reach every access through that handler.
//
// The fast loop must match the per-step loop bit for bit: same faults at
// the same PCs, same hook call sites, and — because batching is provably
// equivalent to the per-step scheduler fast path — the same interleavings
// at every seed. Deviations are bugs; the identity matrix in
// dispatch_test.go and fuzz_test.go is the enforcement, and record_test.go
// holds recording machines to it too.

// handler executes one predecoded instruction. pc is the
// instruction address, next the fallthrough address; t.PC == next on entry.
// The return value is the "fallthrough" the batch loop compares t.PC against
// for the generic OnBlock site: handlers that must suppress that check (host
// frame resume, thread exit) return the final t.PC instead.
type handler func(m *Machine, t *Thread, cp *codePage, i *mx.Inst, pc, next uint64) uint64

// dispatchEnt is the per-offset dispatch record: handler, length, retire
// class, micro-op, flat-run length and precomputed cost, 24 bytes with
// padding, so one entry load gives the batch loop everything it needs
// without touching insts.Op or costs[]. A nil handler marks an offset not
// compiled yet; its zero retire class is retireFault, whose branch
// compiles it.
type dispatchEnt struct {
	h handler
	// n is the encoded instruction length; 0 marks a fetch hole.
	n uint8
	// retire classifies the dispatch; see the retire* constants.
	retire uint8
	// mop is the dense micro-op code for the flat-run loop's inline
	// dispatch tier (mopCall routes through h); see the mop* constants.
	mop uint8
	// flat is the length of the straight-line run of simple instructions
	// starting at this offset (all within this page); 0 or 1 means the
	// offset dispatches singly.
	flat uint16
	// runCost is the precomputed cycle cost of the flat run starting here
	// (prefix costs of early-exited runs fall out as runCost differences
	// along the chain). For offsets outside flat runs it is the single
	// instruction's own cost — the pair sum for a fused offset.
	runCost uint32
}

// retire classes: how the fast loop retires disp[off]. The per-step loop
// ignores them and calls h, which always retires exactly one instruction.
const (
	// retireFault marks a fetch hole or predecoded BAD instruction: the
	// sentinel handler faults and retires nothing. It is also the class of
	// an offset not compiled yet (nil handler).
	retireFault = iota
	retireOne
	// retireFused is a fusable flag setter followed by a same-page JCC: the
	// fast loop retires the pair inline, or the flag setter alone through
	// h when its grant has one instruction left.
	retireFused
	// retireCallX is an external call: the one dispatch that must settle
	// deferred accounting first (the clock external reads machine cycles).
	retireCallX
	// retireJmp is a direct jump whose target is in the same page (and not
	// its own fallthrough): the fast batch loop takes it without a handler
	// call or fault/exit checks, since a jump cannot fault, block, or
	// write memory. The counted loop dispatches it generically through h.
	retireJmp
	// retireJcc is a conditional branch with a non-zero displacement: pure,
	// so the fast loop evaluates it inline and fires the block hook on
	// both edges (matching hJcc's untaken call plus the generic taken
	// site). The counted loop dispatches it generically through h.
	retireJcc
	// retireCall and retireRet mark direct same-page calls (non-zero
	// displacement) and returns on mx64 pages; the fast loop hand-inlines
	// their stack-slot TLB probe and falls back to the generic handler for
	// misses, watched stacks, and magic return addresses.
	retireCall
	retireRet
)

// Micro-op codes for the flat-run loop's inline dispatch tier: the densest
// simple opcodes execute through an inline jump table instead of an indirect
// handler call, which is worth several cycles per instruction on the hot
// path. mopCall (zero) falls back to disp.h. Each inline body must mirror
// the corresponding handler exactly; the fast-vs-per-step identity matrix is
// the enforcement. The mx64 memory micro-ops (mopLoad64 through mopPop)
// access memory directly; weak pages use weakMopOf instead, which maps the
// 64-bit plain and indexed loads and stores to the store-buffer micro-ops
// (mopWLoad64 onward) and sends PUSH and POP through their handlers.
const (
	mopCall = iota
	mopMovRR
	mopMovRI
	mopLea
	mopLeaIdx
	mopAddRR
	mopAddRI
	mopSubRR
	mopSubRI
	mopCmpRR
	mopCmpRI
	mopAndRR
	mopAndRI
	mopOrRR
	mopOrRI
	mopXorRR
	mopXorRI
	mopTestRR
	mopTestRI
	mopLoad64
	mopStore64
	mopLoadIdx64
	mopStoreIdx64
	mopPush
	mopPop
	mopWLoad64
	mopWStore64
	mopWLoadIdx64
	mopWStoreIdx64
)

// mopOf maps opcodes to their inline micro-op on mx64 pages, weakMopOf on
// weak pages; zero (mopCall) everywhere else.
var mopOf, weakMopOf [mx.NumOps]uint8

func init() {
	for op, mop := range map[mx.Op]uint8{
		mx.MOVRR:      mopMovRR,
		mx.MOVRI:      mopMovRI,
		mx.LEA:        mopLea,
		mx.LEAIDX:     mopLeaIdx,
		mx.ADDRR:      mopAddRR,
		mx.ADDRI:      mopAddRI,
		mx.SUBRR:      mopSubRR,
		mx.SUBRI:      mopSubRI,
		mx.CMPRR:      mopCmpRR,
		mx.CMPRI:      mopCmpRI,
		mx.ANDRR:      mopAndRR,
		mx.ANDRI:      mopAndRI,
		mx.ORRR:       mopOrRR,
		mx.ORRI:       mopOrRI,
		mx.XORRR:      mopXorRR,
		mx.XORRI:      mopXorRI,
		mx.TESTRR:     mopTestRR,
		mx.TESTRI:     mopTestRI,
		mx.LOAD64:     mopLoad64,
		mx.STORE64:    mopStore64,
		mx.LOADIDX64:  mopLoadIdx64,
		mx.STOREIDX64: mopStoreIdx64,
		mx.PUSH:       mopPush,
		mx.POP:        mopPop,
	} {
		mopOf[op] = mop
	}
	weakMopOf = mopOf
	for op, mop := range map[mx.Op]uint8{
		mx.LOAD64:     mopWLoad64,
		mx.STORE64:    mopWStore64,
		mx.LOADIDX64:  mopWLoadIdx64,
		mx.STOREIDX64: mopWStoreIdx64,
		mx.PUSH:       mopCall,
		mx.POP:        mopCall,
	} {
		weakMopOf[op] = mop
	}
}

var (
	opHandlers [mx.NumOps]handler
	// simpleOps marks instructions eligible for flat runs: always fall
	// through, never call hooks or externals, never end the step loop.
	simpleOps [mx.NumOps]bool
	// fuses marks the flag-setting opcodes compileOne fuses with a following
	// same-page JCC; stepBatchFast inlines all six pairs.
	fuses = [mx.NumOps]bool{mx.CMPRR: true, mx.CMPRI: true, mx.TESTRR: true,
		mx.TESTRI: true, mx.SUBRR: true, mx.SUBRI: true}
)

func init() {
	for i := range opHandlers {
		opHandlers[i] = hUnimplemented
	}
	reg := func(op mx.Op, h handler, simple bool) {
		opHandlers[op] = h
		simpleOps[op] = simple
	}
	reg(mx.NOP, hNop, true)
	reg(mx.MOVRR, hMovRR, true)
	reg(mx.MOVRI, hMovRI, true)
	reg(mx.LEA, hLea, true)
	reg(mx.LEAIDX, hLeaIdx, true)
	reg(mx.LOAD8, hLoad8, true)
	reg(mx.LOAD32, hLoad32, true)
	reg(mx.LOAD64, hLoad64, true)
	reg(mx.STORE8, hStore8, true)
	reg(mx.STORE32, hStore32, true)
	reg(mx.STORE64, hStore64, true)
	reg(mx.STOREI8, hStoreI8, true)
	reg(mx.STOREI32, hStoreI32, true)
	reg(mx.STOREI64, hStoreI64, true)
	reg(mx.LOADIDX8, hLoadIdx8, true)
	reg(mx.LOADIDX32, hLoadIdx32, true)
	reg(mx.LOADIDX64, hLoadIdx64, true)
	reg(mx.STOREIDX8, hStoreIdx8, true)
	reg(mx.STOREIDX32, hStoreIdx32, true)
	reg(mx.STOREIDX64, hStoreIdx64, true)
	reg(mx.ADDRR, hAddRR, true)
	reg(mx.ADDRI, hAddRI, true)
	reg(mx.SUBRR, hSubRR, true)
	reg(mx.SUBRI, hSubRI, true)
	reg(mx.CMPRR, hCmpRR, true)
	reg(mx.CMPRI, hCmpRI, true)
	reg(mx.ANDRR, hAndRR, true)
	reg(mx.ANDRI, hAndRI, true)
	reg(mx.ORRR, hOrRR, true)
	reg(mx.ORRI, hOrRI, true)
	reg(mx.XORRR, hXorRR, true)
	reg(mx.XORRI, hXorRI, true)
	reg(mx.TESTRR, hTestRR, true)
	reg(mx.TESTRI, hTestRI, true)
	reg(mx.SHLRR, hShlRR, true)
	reg(mx.SHLRI, hShlRI, true)
	reg(mx.SHRRR, hShrRR, true)
	reg(mx.SHRRI, hShrRI, true)
	reg(mx.SARRR, hSarRR, true)
	reg(mx.SARRI, hSarRI, true)
	reg(mx.IMULRR, hImulRR, true)
	reg(mx.IMULRI, hImulRI, true)
	reg(mx.DIVRR, hDivRR, true)
	reg(mx.MODRR, hModRR, true)
	reg(mx.NEG, hNeg, true)
	reg(mx.NOT, hNot, true)
	reg(mx.SETCC, hSetcc, true)
	reg(mx.JMP, hJmp, false)
	reg(mx.JCC, hJcc, false)
	reg(mx.JMPR, hJmpR, false)
	reg(mx.JMPM, hJmpM, false)
	reg(mx.CALL, hCall, false)
	reg(mx.CALLR, hCallR, false)
	reg(mx.RET, hRet, false)
	reg(mx.CALLX, hCallX, false)
	reg(mx.SYSCALL, hSyscall, false)
	reg(mx.HLT, hHlt, false)
	reg(mx.UD2, hUd2, false)
	reg(mx.PUSH, hPush, true)
	reg(mx.POP, hPop, true)
	reg(mx.LOCKADD, hLockAdd, true)
	reg(mx.LOCKSUB, hLockSub, true)
	reg(mx.LOCKAND, hLockAnd, true)
	reg(mx.LOCKOR, hLockOr, true)
	reg(mx.LOCKXOR, hLockXor, true)
	reg(mx.LOCKXADD, hLockXadd, true)
	reg(mx.LOCKINC, hLockInc, true)
	reg(mx.LOCKDEC, hLockDec, true)
	reg(mx.XCHG, hXchg, true)
	reg(mx.CMPXCHG, hCmpxchg, true)
	reg(mx.MFENCE, hMfence, true)
	reg(mx.TLSBASE, hTlsBase, true)
	reg(mx.VLOAD, hVload, true)
	reg(mx.VSTORE, hVstore, true)
	reg(mx.VADD, hVadd, true)
	reg(mx.VMUL, hVmul, true)
	reg(mx.VBCAST, hVbcast, true)
	reg(mx.VHADD, hVhadd, true)

	initWeakHandlers()
}

// compileAt compiles the offset off of cp, the page at base, on its first
// dispatch, together with the flat run that starts there. It walks the
// fallthrough chain forward, compiling each instruction, while each one is a
// flat-run member (simple, and not the head of a fused pair), through the
// first instruction outside the run; the walk also stops where the chain
// leaves the page or reaches an offset already compiled, whose run extends
// this one. It then sets each new member's flat and runCost: a member's run
// is itself plus the run after it, the values a backward pass over the
// whole page would give.
//
// The write-watch invalidation contract needs no extra work here: stores
// into code drop the whole codePage, handler table, fusion choices and all.
func (m *Machine) compileAt(cp *codePage, base uint64, off int) {
	start := off
	members, run, cost := 0, 0, uint32(0)
	for {
		d := &cp.disp[off]
		m.compileOne(cp, base, off)
		if d.retire != retireOne || !simpleOps[cp.insts[off].Op] {
			break // the chain end dispatches singly
		}
		members++
		run++
		cost += d.runCost
		if off += int(d.n); off >= pageSize {
			break
		}
		if nd := &cp.disp[off]; nd.h != nil {
			if nd.flat > 0 {
				run += int(nd.flat)
				cost += nd.runCost
			}
			break
		}
	}
	for off = start; members > 0; members-- {
		d := &cp.disp[off]
		own := d.runCost
		d.flat, d.runCost = uint16(run), cost
		run--
		cost -= own
		off += int(d.n)
	}
}

// compileOne decodes the instruction at off and fills its dispatch entry:
// handler, length, retire class, micro-op and its own cost. A fusable flag
// setter decodes one instruction ahead for a same-page JCC and stores it
// for the fast loop's inline pair. A recording machine then tags the offset
// (record.go).
//
// Weak machines install weakHandlers and weakMopOf: the 64-bit plain and
// indexed loads and stores keep inline micro-ops, the store-buffer ones,
// and every other memory access dispatches through its weak handler. The
// PUSH/POP micro-ops and the inline CALL/RET paths, which touch memory
// directly, stay off, so no mx64 micro-op or handler checks for a store
// buffer (push and pop, below the stack-op handlers, drain one that
// overlaps their slot).
func (m *Machine) compileOne(cp *codePage, base uint64, off int) {
	d := &cp.disp[off]
	inst, n := cp.decode(off)
	cp.insts[off] = inst
	d.n = uint8(n)
	if n == 0 {
		d.h, d.retire = hFetchHole, retireFault
		return
	}
	op := inst.Op
	if op == mx.BAD {
		d.h, d.retire = hIllegal, retireFault
		return
	}
	if m.weak {
		d.h, d.mop = weakHandlers[op], weakMopOf[op]
	} else {
		d.h, d.mop = opHandlers[op], mopOf[op]
	}
	d.retire = retireOne
	d.runCost = uint32(costs[op])
	switch op {
	case mx.CALLX:
		d.retire = retireCallX
	case mx.JMP:
		// Promote same-page jumps (excluding the degenerate
		// jump-to-fallthrough, whose untaken-looking edge must skip the
		// block hook exactly like the generic fall==PC check).
		if tgt := int64(off) + int64(n) + int64(inst.Disp); tgt >= 0 && tgt < pageSize && inst.Disp != 0 {
			d.retire = retireJmp
		}
	case mx.JCC:
		if inst.Disp != 0 {
			d.retire = retireJcc
		}
	case mx.CALL:
		if tgt := int64(off) + int64(n) + int64(inst.Disp); !m.weak && tgt >= 0 && tgt < pageSize && inst.Disp != 0 {
			d.retire = retireCall
		}
	case mx.RET:
		if !m.weak {
			d.retire = retireRet
		}
	default:
		if off2 := off + n; fuses[op] && off2 < pageSize {
			if j, n2 := cp.decode(off2); n2 != 0 && j.Op == mx.JCC {
				cp.insts[off2] = j
				d.retire = retireFused
				d.runCost = uint32(costs[op] + costs[mx.JCC])
			}
		}
	}
	if m.recFn != nil {
		m.tagAccess(cp, base, off)
	}
}

// jccLen is the encoded length of every JCC, the trailing half of a fused
// pair.
var jccLen = uint64(mx.EncodedLen(mx.JCC))

// stepBatch executes up to budget instructions of t's current scheduling
// grant and returns how many retired. budget is the
// remainder of t's time slice (clamped to remaining fuel), so one batch is
// equivalent to budget iterations of the per-step loop: the scheduler's
// fast path grants exactly these picks without consuming randomness, and
// the batch ends early exactly where the per-step loop would switch away
// (fault, block, exit) or re-decide (preemption boundary).
//
// Counters mode runs the per-step loop — per-instruction fetch attribution
// (ICache hits), opcode-class counts, and per-thread cycle deltas are part
// of the Counters exactness contract — while the fast loop defers
// insts/cycles sums to flush points. The only mid-run observer of machine
// totals is the clock external, so a flush is owed exactly before CALLX
// (and at every batch exit, so Run and Result always see settled totals).
func (m *Machine) stepBatch(t *Thread, budget int) int {
	if m.ctr == nil {
		return m.stepBatchFast(t, budget)
	}
	return m.stepBatchCounted(t, budget)
}

// extendGrant is the fast batch loop's inline scheduler slow path. When a
// batch exhausts its scheduling grant but t is the machine's only runnable
// thread, the per-step scheduler's next pick is forced: it consumes one rng
// draw (whose value cannot change the pick) and grants t a fresh quantum.
// Emulating that boundary here lets the batch continue without the
// per-quantum flush/Run/pickThread round trip — the dominant fixed cost on
// single-threaded phases. The moment a second thread is runnable (or fuel is
// spent, matching Run's loop condition — pendI is the batch's unflushed
// instruction count, which fuel must see) it declines without drawing, and
// the real scheduler decides, and draws, as usual. Every budget-exhaustion
// site in stepBatchFast may call this because those sites are only reached
// with t runnable and no fault or exit pending.
func (m *Machine) extendGrant(t *Thread, budget *int, ran int, pendI uint64) bool {
	if m.insts+pendI >= m.runFuel {
		return false
	}
	// A sole-runnable batch never returns to Run's loop, so the cancel
	// signal must also be polled here (at most once per granted quantum);
	// declining sends the batch back to Run, which observes the
	// cancellation. Declines before the rng draw, like the
	// second-thread-runnable case, so an uncancelled run's draws are
	// untouched.
	if m.cancelled() {
		return false
	}
	for _, o := range m.threads {
		if o != t && o.State == Runnable {
			return false
		}
	}
	m.rng.Intn(8) // the skip draw pickThread's slow path consumes
	g := m.quantum
	if rem := m.runFuel - (m.insts + pendI); uint64(g) > rem {
		g = int(rem)
	}
	m.extFrom = ran
	*budget += g
	return true
}

// stepBatchFast is the uninstrumented batch loop: an outer iteration per
// page entered, an inner iteration per dispatch within that page, and block
// accounting for both flat runs and single dispatches, flushed before CALLX
// and on every exit path.
func (m *Machine) stepBatchFast(t *Thread, budget int) int {
	extra := m.ExtraCostPerInst
	ran := 0
	var pendI, pendC uint64 // block accounting deferred to the next flush point
	pc := t.PC
	for ran < budget {
		base := pc &^ (pageSize - 1)
		cp := m.icPage
		if base != m.icBase {
			cp = m.icache[base]
			if cp == nil {
				cp = m.fillCodePage(base)
				m.icache[base] = cp
			}
			m.icBase, m.icPage = base, cp
		}
		// Same-page dispatch loop: fall out to the outer loop only when
		// control leaves the page or a store invalidated it.
	page:
		for {
			off := pc & (pageSize - 1)
			d := &cp.disp[off]

			// Flat run: retire a straight line of simple instructions with
			// one precomputed block sum. The densest micro-ops execute
			// through the inline jump table (bodies mirror their handlers);
			// the rest dispatch through the handler pointer.
			if r := int(d.flat); r > 0 {
				if max := budget - ran; r > max {
					r = max
				}
				start := off
				k := 0
				for {
					next := pc + uint64(d.n)
					t.PC = next
					i := &cp.insts[off]
					switch d.mop {
					case mopMovRR:
						t.Regs[i.Dst] = t.Regs[i.Src]
					case mopMovRI:
						t.Regs[i.Dst] = uint64(i.Imm)
					case mopLea:
						t.Regs[i.Dst] = t.ea(i)
					case mopLeaIdx:
						t.Regs[i.Dst] = t.eaIdx(i)
					case mopAddRR:
						a, b := t.Regs[i.Dst], t.Regs[i.Src]
						v := a + b
						t.setAddFlags(a, b, v)
						t.Regs[i.Dst] = v
					case mopAddRI:
						a, b := t.Regs[i.Dst], uint64(i.Imm)
						v := a + b
						t.setAddFlags(a, b, v)
						t.Regs[i.Dst] = v
					case mopSubRR:
						a, b := t.Regs[i.Dst], t.Regs[i.Src]
						v := a - b
						t.setSubFlags(a, b, v)
						t.Regs[i.Dst] = v
					case mopSubRI:
						a, b := t.Regs[i.Dst], uint64(i.Imm)
						v := a - b
						t.setSubFlags(a, b, v)
						t.Regs[i.Dst] = v
					case mopCmpRR:
						a, b := t.Regs[i.Dst], t.Regs[i.Src]
						t.setSubFlags(a, b, a-b)
					case mopCmpRI:
						a, b := t.Regs[i.Dst], uint64(i.Imm)
						t.setSubFlags(a, b, a-b)
					case mopAndRR:
						v := t.Regs[i.Dst] & t.Regs[i.Src]
						t.setZS(v)
						t.CF, t.OF = false, false
						t.Regs[i.Dst] = v
					case mopAndRI:
						v := t.Regs[i.Dst] & uint64(i.Imm)
						t.setZS(v)
						t.CF, t.OF = false, false
						t.Regs[i.Dst] = v
					case mopOrRR:
						v := t.Regs[i.Dst] | t.Regs[i.Src]
						t.setZS(v)
						t.CF, t.OF = false, false
						t.Regs[i.Dst] = v
					case mopOrRI:
						v := t.Regs[i.Dst] | uint64(i.Imm)
						t.setZS(v)
						t.CF, t.OF = false, false
						t.Regs[i.Dst] = v
					case mopXorRR:
						v := t.Regs[i.Dst] ^ t.Regs[i.Src]
						t.setZS(v)
						t.CF, t.OF = false, false
						t.Regs[i.Dst] = v
					case mopXorRI:
						v := t.Regs[i.Dst] ^ uint64(i.Imm)
						t.setZS(v)
						t.CF, t.OF = false, false
						t.Regs[i.Dst] = v
					case mopTestRR:
						v := t.Regs[i.Dst] & t.Regs[i.Src]
						t.setZS(v)
						t.CF, t.OF = false, false
					case mopTestRI:
						v := t.Regs[i.Dst] & uint64(i.Imm)
						t.setZS(v)
						t.CF, t.OF = false, false
					// The memory micro-ops hand-inline Memory's TLB-hit
					// fast path: counters are off in this engine by
					// construction (stepBatch routes counter runs to
					// stepBatchCounted, and Mem.ctr is only ever set
					// together with m.ctr), so a hit needs no attribution,
					// and stores only need the write-watch envelope check.
					// Misses, straddles, and watched stores take the same
					// slow path as the handlers.
					case mopLoad64:
						addr := t.ea(i)
						e := &m.Mem.tlb[tlbIndex(addr)]
						o := addr & (pageSize - 1)
						if e.pg != nil && e.base == addr-o && o <= pageSize-8 {
							t.Regs[i.Dst] = binary.LittleEndian.Uint64(e.pg[o:])
						} else if v, ok := m.loadMem64(t, pc, addr); ok {
							t.Regs[i.Dst] = v
						}
					case mopStore64:
						addr := t.ea(i)
						mem := m.Mem
						e := &mem.tlb[tlbIndex(addr)]
						o := addr & (pageSize - 1)
						if e.pg != nil && e.base == addr-o && o <= pageSize-8 &&
							(mem.onWrite == nil || addr >= mem.watchHi || addr+8 <= mem.watchLo) {
							binary.LittleEndian.PutUint64(e.pg[o:], t.Regs[i.Dst])
						} else {
							m.storeMem64(t, pc, addr, t.Regs[i.Dst])
						}
					case mopLoadIdx64:
						addr := t.eaIdx(i)
						e := &m.Mem.tlb[tlbIndex(addr)]
						o := addr & (pageSize - 1)
						if e.pg != nil && e.base == addr-o && o <= pageSize-8 {
							t.Regs[i.Dst] = binary.LittleEndian.Uint64(e.pg[o:])
						} else if v, ok := m.loadMem64(t, pc, addr); ok {
							t.Regs[i.Dst] = v
						}
					case mopStoreIdx64:
						addr := t.eaIdx(i)
						mem := m.Mem
						e := &mem.tlb[tlbIndex(addr)]
						o := addr & (pageSize - 1)
						if e.pg != nil && e.base == addr-o && o <= pageSize-8 &&
							(mem.onWrite == nil || addr >= mem.watchHi || addr+8 <= mem.watchLo) {
							binary.LittleEndian.PutUint64(e.pg[o:], t.Regs[i.Dst])
						} else {
							m.storeMem64(t, pc, addr, t.Regs[i.Dst])
						}
					case mopPush:
						sp := t.Regs[mx.RSP] - 8
						t.Regs[mx.RSP] = sp
						mem := m.Mem
						e := &mem.tlb[tlbIndex(sp)]
						o := sp & (pageSize - 1)
						if e.pg != nil && e.base == sp-o && o <= pageSize-8 &&
							(mem.onWrite == nil || sp >= mem.watchHi || sp+8 <= mem.watchLo) {
							binary.LittleEndian.PutUint64(e.pg[o:], t.Regs[i.Dst])
						} else if !mem.store64(sp, t.Regs[i.Dst]) {
							m.faultf(t, t.PC, "stack overflow: push to unmapped %#x", sp)
						}
					case mopPop:
						sp := t.Regs[mx.RSP]
						e := &m.Mem.tlb[tlbIndex(sp)]
						o := sp & (pageSize - 1)
						if e.pg != nil && e.base == sp-o && o <= pageSize-8 {
							t.Regs[i.Dst] = binary.LittleEndian.Uint64(e.pg[o:])
							t.Regs[mx.RSP] = sp + 8
						} else if v, ok := m.Mem.load64(sp); ok {
							t.Regs[i.Dst] = v
							t.Regs[mx.RSP] = sp + 8
						} else {
							m.faultf(t, t.PC, "pop from unmapped %#x", sp)
						}
					// The weak micro-ops mirror loadMem and storeMem at
					// width 8: a load forwards an exact buffered match,
					// drains on a partial overlap and then reads through the
					// TLB; a store whose target hits the TLB outside the
					// write watch appends to the buffer. Everything else
					// takes the handlers' slow paths.
					case mopWLoad64, mopWLoadIdx64:
						var addr uint64
						if d.mop == mopWLoad64 {
							addr = t.ea(i)
						} else {
							addr = t.eaIdx(i)
						}
						if len(t.sbuf) > 0 {
							v, hit, overlap := t.sbLoad(addr, 8)
							if hit {
								t.Regs[i.Dst] = v
								break
							}
							if overlap {
								m.drainSB(t)
							}
						}
						e := &m.Mem.tlb[tlbIndex(addr)]
						o := addr & (pageSize - 1)
						if e.pg != nil && e.base == addr-o && o <= pageSize-8 {
							t.Regs[i.Dst] = binary.LittleEndian.Uint64(e.pg[o:])
						} else if v, ok := m.loadMem64(t, pc, addr); ok {
							t.Regs[i.Dst] = v
						}
					case mopWStore64, mopWStoreIdx64:
						var addr uint64
						if d.mop == mopWStore64 {
							addr = t.ea(i)
						} else {
							addr = t.eaIdx(i)
						}
						mem := m.Mem
						e := &mem.tlb[tlbIndex(addr)]
						o := addr & (pageSize - 1)
						if e.pg != nil && e.base == addr-o && o <= pageSize-8 &&
							(mem.onWrite == nil || addr >= mem.watchHi || addr+8 <= mem.watchLo) {
							m.sbAppend(t, addr, t.Regs[i.Dst], 8)
						} else {
							m.storeMem(t, pc, addr, t.Regs[i.Dst], 8)
						}
					default:
						d.h(m, t, cp, i, pc, next)
					}
					k++
					if k >= r || m.fault != nil || m.icBase != base {
						break
					}
					pc = next
					off = next & (pageSize - 1)
					d = &cp.disp[off]
				}
				ran += k
				pendI += uint64(k)
				if k == int(cp.disp[start].flat) {
					pendC += uint64(cp.disp[start].runCost) + extra*uint64(k)
				} else {
					// Early exit (grant boundary, fault, or self-modifying-
					// code invalidation): the executed prefix's cost is the
					// chain's runCost minus the unexecuted suffix's. A
					// faulting instruction is charged, matching the per-step
					// loop's account-then-execute order.
					nxt := off + uint64(d.n)
					pendC += uint64(cp.disp[start].runCost-cp.disp[nxt].runCost) + extra*uint64(k)
				}
				if m.fault != nil {
					m.insts += pendI
					m.cycles += pendC
					t.Cycles += pendC
					return ran
				}
				pc = t.PC
				if ran >= budget && !m.extendGrant(t, &budget, ran, pendI) {
					m.insts += pendI
					m.cycles += pendC
					t.Cycles += pendC
					return ran
				}
				if m.icBase != base || pc&^(pageSize-1) != base {
					break
				}
				continue
			}

			// Single dispatch: control flow, externals, fused pairs,
			// fetch holes and illegal instructions.
			next := pc + uint64(d.n)
			switch d.retire {
			case retireFault:
				if d.h == nil {
					// First dispatch at this offset: compile it, with
					// the flat run it starts, and dispatch it again.
					m.compileAt(cp, base, int(off))
					continue
				}
				// Sentinel: faults without retiring (and without moving
				// t.PC), as in the per-step loop.
				m.insts += pendI
				m.cycles += pendC
				t.Cycles += pendC
				d.h(m, t, cp, &cp.insts[off], pc, next)
				return ran
			case retireJmp:
				// Same-page direct jump: no handler call, no fault or
				// exit checks (a jump cannot fault, block, or write
				// memory). The block hook always fires when set — the
				// jump-to-fallthrough case is excluded at compile time.
				pendI++
				pendC += uint64(d.runCost) + extra
				ran++
				pc = next + uint64(int64(cp.insts[off].Disp))
				t.PC = pc
				if m.OnBlock != nil {
					m.OnBlock(t, pc)
				}
				if ran >= budget && !m.extendGrant(t, &budget, ran, pendI) {
					m.insts += pendI
					m.cycles += pendC
					t.Cycles += pendC
					return ran
				}
				if m.icBase != base {
					break page
				}
				continue
			case retireJcc:
				// Conditional branch, non-zero displacement: pure, so no
				// fault or exit checks. The block hook fires on both
				// edges — hJcc calls it on the untaken edge and the
				// generic fall check fires on the taken one — so inline
				// it fires unconditionally when set.
				pendI++
				pendC += uint64(d.runCost) + extra
				ran++
				if t.Eval(cp.insts[off].Cc) {
					pc = next + uint64(int64(cp.insts[off].Disp))
				} else {
					pc = next
				}
				t.PC = pc
				if m.OnBlock != nil {
					m.OnBlock(t, pc)
				}
				if ran >= budget && !m.extendGrant(t, &budget, ran, pendI) {
					m.insts += pendI
					m.cycles += pendC
					t.Cycles += pendC
					return ran
				}
				if m.icBase != base || pc&^(pageSize-1) != base {
					break page
				}
				continue
			case retireCall:
				// Same-page direct call: hand-inline the return-address
				// push when the stack slot is a TLB hit outside the write
				// watch (so it cannot fault or invalidate code); fall back
				// to the generic handler dispatch otherwise.
				sp := t.Regs[mx.RSP] - 8
				mem := m.Mem
				e := &mem.tlb[tlbIndex(sp)]
				o := sp & (pageSize - 1)
				if e.pg != nil && e.base == sp-o && o <= pageSize-8 &&
					(mem.onWrite == nil || sp >= mem.watchHi || sp+8 <= mem.watchLo) {
					pendI++
					pendC += uint64(d.runCost) + extra
					ran++
					t.Regs[mx.RSP] = sp
					binary.LittleEndian.PutUint64(e.pg[o:], next)
					pc = next + uint64(int64(cp.insts[off].Disp))
					t.PC = pc
					if m.OnBlock != nil {
						m.OnBlock(t, pc)
					}
					if ran >= budget && !m.extendGrant(t, &budget, ran, pendI) {
						m.insts += pendI
						m.cycles += pendC
						t.Cycles += pendC
						return ran
					}
					if m.icBase != base {
						break page
					}
					continue
				}
				pendI++
				pendC += uint64(d.runCost) + extra
			case retireRet:
				// Return: hand-inline the TLB-hit pop for ordinary return
				// addresses; magic host/thread-exit frames and misses take
				// the generic handler.
				sp := t.Regs[mx.RSP]
				e := &m.Mem.tlb[tlbIndex(sp)]
				o := sp & (pageSize - 1)
				if e.pg != nil && e.base == sp-o && o <= pageSize-8 {
					if ra := binary.LittleEndian.Uint64(e.pg[o:]); ra != magicThreadExit && ra != magicHostFrame {
						pendI++
						pendC += uint64(d.runCost) + extra
						ran++
						t.Regs[mx.RSP] = sp + 8
						if m.OnIndirect != nil {
							m.OnIndirect(t, pc, ra, KindRet)
						}
						t.PC = ra
						if ra != next && m.OnBlock != nil {
							m.OnBlock(t, ra)
						}
						pc = ra
						if ran >= budget && !m.extendGrant(t, &budget, ran, pendI) {
							m.insts += pendI
							m.cycles += pendC
							t.Cycles += pendC
							return ran
						}
						if m.icBase != base || pc&^(pageSize-1) != base {
							break page
						}
						continue
					}
				}
				pendI++
				pendC += uint64(d.runCost) + extra
			case retireCallX:
				// The external may read m.cycles (clock) and charges its
				// own cost: settle all accounting through this instruction
				// before it runs, in the per-step loop's order.
				m.insts += pendI + 1
				m.cycles += pendC
				t.Cycles += pendC
				pendI, pendC = 0, 0
				m.charge(t, costs[mx.CALLX])
			case retireFused:
				if budget-ran >= 2 {
					// Fused pairs are pure register ops plus a direct
					// branch: they cannot fault, exit, block the thread,
					// or write memory, so the generic post-dispatch
					// checks reduce to the block hook and the page and
					// budget checks. d.mop holds the leading op's
					// micro-op code, one of the six fusable flag setters.
					pendI += 2
					pendC += uint64(d.runCost) + 2*extra
					ran += 2
					fi := &cp.insts[off]
					switch d.mop {
					case mopCmpRR:
						a, b := t.Regs[fi.Dst], t.Regs[fi.Src]
						t.setSubFlags(a, b, a-b)
					case mopCmpRI:
						a, b := t.Regs[fi.Dst], uint64(fi.Imm)
						t.setSubFlags(a, b, a-b)
					case mopTestRR:
						r := t.Regs[fi.Dst] & t.Regs[fi.Src]
						t.setZS(r)
						t.CF, t.OF = false, false
					case mopTestRI:
						r := t.Regs[fi.Dst] & uint64(fi.Imm)
						t.setZS(r)
						t.CF, t.OF = false, false
					case mopSubRR:
						a, b := t.Regs[fi.Dst], t.Regs[fi.Src]
						r := a - b
						t.setSubFlags(a, b, r)
						t.Regs[fi.Dst] = r
					case mopSubRI:
						a, b := t.Regs[fi.Dst], uint64(fi.Imm)
						r := a - b
						t.setSubFlags(a, b, r)
						t.Regs[fi.Dst] = r
					}
					// The trailing JCC, as hJcc plus the generic taken-edge
					// check: the block hook fires on the untaken edge with
					// PC at the fallthrough, and on a taken edge that
					// leaves it.
					off2 := next & (pageSize - 1)
					j := &cp.insts[off2]
					fall := next + jccLen
					if t.Eval(j.Cc) {
						t.PC = fall + uint64(int64(j.Disp))
					} else {
						t.PC = fall
						if m.OnBlock != nil {
							m.OnBlock(t, fall)
						}
					}
					if t.PC != fall && m.OnBlock != nil {
						m.OnBlock(t, t.PC)
					}
					pc = t.PC
					if ran >= budget && !m.extendGrant(t, &budget, ran, pendI) {
						m.insts += pendI
						m.cycles += pendC
						t.Cycles += pendC
						return ran
					}
					if m.icBase != base || pc&^(pageSize-1) != base {
						break page
					}
					continue
				}
				// The pair would overrun the scheduling grant (or fuel):
				// d.h retires the leading instruction alone, so preemption
				// and fuel boundaries stay where per-step dispatch puts
				// them.
				pendI++
				pendC += costs[cp.insts[off].Op] + extra
			default:
				pendI++
				pendC += uint64(d.runCost) + extra
			}
			t.PC = next
			fall := d.h(m, t, cp, &cp.insts[off], pc, next)
			ran++
			if m.fault != nil {
				m.insts += pendI
				m.cycles += pendC
				t.Cycles += pendC
				return ran
			}
			if t.PC != fall && m.OnBlock != nil && t.State == Runnable {
				m.OnBlock(t, t.PC)
			}
			if m.exited || t.State != Runnable {
				m.insts += pendI
				m.cycles += pendC
				t.Cycles += pendC
				return ran
			}
			pc = t.PC
			if ran >= budget && !m.extendGrant(t, &budget, ran, pendI) {
				m.insts += pendI
				m.cycles += pendC
				t.Cycles += pendC
				return ran
			}
			if m.icBase != base || pc&^(pageSize-1) != base {
				break
			}
		}
	}
	m.insts += pendI
	m.cycles += pendC
	t.Cycles += pendC
	return ran
}

// stepBatchCounted is the per-step reference loop, run when machine
// counters are on: one unfused instruction per dispatch through d.h, with
// eager accounting and per-fetch ICache attribution. The identity tests
// compare stepBatchFast against it.
func (m *Machine) stepBatchCounted(t *Thread, budget int) int {
	ctr := m.ctr
	ran := 0
	for ran < budget {
		pc := t.PC
		base := pc &^ (pageSize - 1)
		cp := m.icPage
		if base != m.icBase {
			cp = m.icache[base]
			if cp == nil {
				cp = m.fillCodePage(base)
				m.icache[base] = cp
				ctr.ICacheMisses++
			} else {
				ctr.ICacheHits++
			}
			m.icBase, m.icPage = base, cp
		} else {
			ctr.ICacheHits++
		}
		off := pc & (pageSize - 1)
		d := &cp.disp[off]
		if d.h == nil {
			m.compileAt(cp, base, int(off))
		}
		inst := &cp.insts[off]
		next := pc + uint64(d.n)
		if d.retire == retireFault {
			d.h(m, t, cp, inst, pc, next)
			return ran
		}
		m.insts++
		m.charge(t, costs[inst.Op])
		ctr.count(t.ID, inst)
		t.PC = next
		fall := d.h(m, t, cp, inst, pc, next)
		ran++
		if m.fault != nil {
			return ran
		}
		if m.OnBlock != nil && t.PC != fall && t.State == Runnable {
			m.OnBlock(t, t.PC)
		}
		if m.exited || t.State != Runnable {
			return ran
		}
	}
	return ran
}

// ---- per-opcode handlers -------------------------------------------------
//
// One handler per opcode, with RR/RI source operands specialized into
// separate handlers, defines MX64 semantics; weak pages swap in the
// store-buffer variants of weakHandlers (weak.go) for memory accesses and
// drain points.

// mx64 memory accessors: handlers know their access width statically, so
// the Memory TLB fast path inlines into the handler body instead of going
// through the generic width-switched call chain. Fault messages and
// counter attribution match the weak pages' loadMem/storeMem.

func (m *Machine) loadMem8(t *Thread, pc, addr uint64) (uint64, bool) {
	v, ok := m.Mem.load8(addr)
	if !ok {
		m.faultf(t, pc, "load from unmapped address %#x", addr)
	}
	return v, ok
}

func (m *Machine) loadMem32(t *Thread, pc, addr uint64) (uint64, bool) {
	v, ok := m.Mem.load32(addr)
	if !ok {
		m.faultf(t, pc, "load from unmapped address %#x", addr)
		return 0, false
	}
	return sx32(v), true
}

func (m *Machine) loadMem64(t *Thread, pc, addr uint64) (uint64, bool) {
	v, ok := m.Mem.load64(addr)
	if !ok {
		m.faultf(t, pc, "load from unmapped address %#x", addr)
	}
	return v, ok
}

func (m *Machine) storeMem8(t *Thread, pc, addr, v uint64) bool {
	if !m.Mem.store8(addr, v) {
		m.faultf(t, pc, "store to unmapped address %#x", addr)
		return false
	}
	return true
}

func (m *Machine) storeMem32(t *Thread, pc, addr, v uint64) bool {
	if !m.Mem.store32(addr, v) {
		m.faultf(t, pc, "store to unmapped address %#x", addr)
		return false
	}
	return true
}

func (m *Machine) storeMem64(t *Thread, pc, addr, v uint64) bool {
	if !m.Mem.store64(addr, v) {
		m.faultf(t, pc, "store to unmapped address %#x", addr)
		return false
	}
	return true
}

func hUnimplemented(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	m.faultf(t, pc, "unimplemented opcode %v", i.Op)
	return next
}

// hFetchHole and hIllegal are the retireFault sentinels compileOne installs
// for non-executable offsets and predecoded BAD instructions, so the batch
// loops need no per-dispatch fetch checks: the fault is the dispatch.

func hFetchHole(m *Machine, t *Thread, _ *codePage, _ *mx.Inst, pc, next uint64) uint64 {
	m.faultf(t, pc, "instruction fetch from unmapped or non-executable memory")
	return next
}

func hIllegal(m *Machine, t *Thread, _ *codePage, _ *mx.Inst, pc, next uint64) uint64 {
	m.faultf(t, pc, "illegal instruction")
	return next
}

func hNop(_ *Machine, _ *Thread, _ *codePage, _ *mx.Inst, _, next uint64) uint64 {
	return next
}

func hMovRR(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	t.Regs[i.Dst] = t.Regs[i.Src]
	return next
}

func hMovRI(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	t.Regs[i.Dst] = uint64(i.Imm)
	return next
}

func hLea(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	t.Regs[i.Dst] = t.ea(i)
	return next
}

func hLeaIdx(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	t.Regs[i.Dst] = t.eaIdx(i)
	return next
}

func hLoad8(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	if v, ok := m.loadMem8(t, pc, t.ea(i)); ok {
		t.Regs[i.Dst] = v
	}
	return next
}

func hLoad32(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	if v, ok := m.loadMem32(t, pc, t.ea(i)); ok {
		t.Regs[i.Dst] = v
	}
	return next
}

func hLoad64(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	if v, ok := m.loadMem64(t, pc, t.ea(i)); ok {
		t.Regs[i.Dst] = v
	}
	return next
}

func hStore8(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	m.storeMem8(t, pc, t.ea(i), t.Regs[i.Dst])
	return next
}

func hStore32(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	m.storeMem32(t, pc, t.ea(i), t.Regs[i.Dst])
	return next
}

func hStore64(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	m.storeMem64(t, pc, t.ea(i), t.Regs[i.Dst])
	return next
}

func hStoreI8(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	m.storeMem8(t, pc, t.ea(i), uint64(i.Imm))
	return next
}

func hStoreI32(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	m.storeMem32(t, pc, t.ea(i), uint64(i.Imm))
	return next
}

func hStoreI64(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	m.storeMem64(t, pc, t.ea(i), uint64(i.Imm))
	return next
}

func hLoadIdx8(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	if v, ok := m.loadMem8(t, pc, t.eaIdx(i)); ok {
		t.Regs[i.Dst] = v
	}
	return next
}

func hLoadIdx32(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	if v, ok := m.loadMem32(t, pc, t.eaIdx(i)); ok {
		t.Regs[i.Dst] = v
	}
	return next
}

func hLoadIdx64(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	if v, ok := m.loadMem64(t, pc, t.eaIdx(i)); ok {
		t.Regs[i.Dst] = v
	}
	return next
}

func hStoreIdx8(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	m.storeMem8(t, pc, t.eaIdx(i), t.Regs[i.Dst])
	return next
}

func hStoreIdx32(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	m.storeMem32(t, pc, t.eaIdx(i), t.Regs[i.Dst])
	return next
}

func hStoreIdx64(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	m.storeMem64(t, pc, t.eaIdx(i), t.Regs[i.Dst])
	return next
}

func hAddRR(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	a, b := t.Regs[i.Dst], t.Regs[i.Src]
	r := a + b
	t.setAddFlags(a, b, r)
	t.Regs[i.Dst] = r
	return next
}

func hAddRI(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	a, b := t.Regs[i.Dst], uint64(i.Imm)
	r := a + b
	t.setAddFlags(a, b, r)
	t.Regs[i.Dst] = r
	return next
}

func hSubRR(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	a, b := t.Regs[i.Dst], t.Regs[i.Src]
	r := a - b
	t.setSubFlags(a, b, r)
	t.Regs[i.Dst] = r
	return next
}

func hSubRI(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	a, b := t.Regs[i.Dst], uint64(i.Imm)
	r := a - b
	t.setSubFlags(a, b, r)
	t.Regs[i.Dst] = r
	return next
}

func hCmpRR(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	a, b := t.Regs[i.Dst], t.Regs[i.Src]
	t.setSubFlags(a, b, a-b)
	return next
}

func hCmpRI(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	a, b := t.Regs[i.Dst], uint64(i.Imm)
	t.setSubFlags(a, b, a-b)
	return next
}

func hAndRR(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] & t.Regs[i.Src]
	t.setZS(r)
	t.CF, t.OF = false, false
	t.Regs[i.Dst] = r
	return next
}

func hAndRI(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] & uint64(i.Imm)
	t.setZS(r)
	t.CF, t.OF = false, false
	t.Regs[i.Dst] = r
	return next
}

func hOrRR(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] | t.Regs[i.Src]
	t.setZS(r)
	t.CF, t.OF = false, false
	t.Regs[i.Dst] = r
	return next
}

func hOrRI(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] | uint64(i.Imm)
	t.setZS(r)
	t.CF, t.OF = false, false
	t.Regs[i.Dst] = r
	return next
}

func hXorRR(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] ^ t.Regs[i.Src]
	t.setZS(r)
	t.CF, t.OF = false, false
	t.Regs[i.Dst] = r
	return next
}

func hXorRI(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] ^ uint64(i.Imm)
	t.setZS(r)
	t.CF, t.OF = false, false
	t.Regs[i.Dst] = r
	return next
}

func hTestRR(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] & t.Regs[i.Src]
	t.setZS(r)
	t.CF, t.OF = false, false
	return next
}

func hTestRI(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] & uint64(i.Imm)
	t.setZS(r)
	t.CF, t.OF = false, false
	return next
}

func hShlRR(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] << (t.Regs[i.Src] & 63)
	t.setZS(r)
	t.Regs[i.Dst] = r
	return next
}

func hShlRI(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] << (uint64(i.Imm) & 63)
	t.setZS(r)
	t.Regs[i.Dst] = r
	return next
}

func hShrRR(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] >> (t.Regs[i.Src] & 63)
	t.setZS(r)
	t.Regs[i.Dst] = r
	return next
}

func hShrRI(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] >> (uint64(i.Imm) & 63)
	t.setZS(r)
	t.Regs[i.Dst] = r
	return next
}

func hSarRR(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	r := uint64(int64(t.Regs[i.Dst]) >> (t.Regs[i.Src] & 63))
	t.setZS(r)
	t.Regs[i.Dst] = r
	return next
}

func hSarRI(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	r := uint64(int64(t.Regs[i.Dst]) >> (uint64(i.Imm) & 63))
	t.setZS(r)
	t.Regs[i.Dst] = r
	return next
}

func hImulRR(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	r := uint64(int64(t.Regs[i.Dst]) * int64(t.Regs[i.Src]))
	t.setZS(r)
	t.Regs[i.Dst] = r
	return next
}

func hImulRI(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	r := uint64(int64(t.Regs[i.Dst]) * i.Imm)
	t.setZS(r)
	t.Regs[i.Dst] = r
	return next
}

func hDivRR(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	d := int64(t.Regs[i.Src])
	if d == 0 {
		m.faultf(t, pc, "integer divide by zero")
		return next
	}
	r := uint64(int64(t.Regs[i.Dst]) / d)
	t.setZS(r)
	t.Regs[i.Dst] = r
	return next
}

func hModRR(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	d := int64(t.Regs[i.Src])
	if d == 0 {
		m.faultf(t, pc, "integer divide by zero")
		return next
	}
	r := uint64(int64(t.Regs[i.Dst]) % d)
	t.setZS(r)
	t.Regs[i.Dst] = r
	return next
}

func hNeg(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	r := -t.Regs[i.Dst]
	t.setSubFlags(0, t.Regs[i.Dst], r)
	t.Regs[i.Dst] = r
	return next
}

func hNot(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	t.Regs[i.Dst] = ^t.Regs[i.Dst]
	return next
}

func hSetcc(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	if t.Eval(i.Cc) {
		t.Regs[i.Dst] = 1
	} else {
		t.Regs[i.Dst] = 0
	}
	return next
}

func hJmp(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	t.PC = next + uint64(int64(i.Disp))
	return next
}

func hJcc(m *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	if t.Eval(i.Cc) {
		t.PC = next + uint64(int64(i.Disp))
	} else if m.OnBlock != nil {
		// Block-granularity tracing: the untaken edge also enters a block
		// (the fallthrough), even though PC advances linearly.
		m.OnBlock(t, next)
	}
	return next
}

func hJmpR(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	target := t.Regs[i.Dst]
	if m.OnIndirect != nil {
		m.OnIndirect(t, pc, target, KindJump)
	}
	t.PC = target
	return next
}

func hJmpM(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	slot := t.Regs[i.Base] + t.Regs[i.Idx]*8 + uint64(int64(i.Disp))
	target, ok := m.Mem.load64(slot)
	if !ok {
		m.faultf(t, pc, "jump table load from unmapped %#x", slot)
		return next
	}
	if m.OnIndirect != nil {
		m.OnIndirect(t, pc, target, KindJump)
	}
	t.PC = target
	return next
}

func hCall(m *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	if !m.push(t, next) {
		return next
	}
	t.PC = next + uint64(int64(i.Disp))
	return next
}

func hCallR(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	target := t.Regs[i.Dst]
	if m.OnIndirect != nil {
		m.OnIndirect(t, pc, target, KindCall)
	}
	if !m.push(t, next) {
		return next
	}
	t.PC = target
	return next
}

func hRet(m *Machine, t *Thread, _ *codePage, _ *mx.Inst, pc, next uint64) uint64 {
	retAddr, ok := m.pop(t)
	if !ok {
		return next
	}
	switch retAddr {
	case magicThreadExit:
		m.threadReturned(t)
		// No block-hook site after a thread exit: suppress ours.
		return t.PC
	case magicHostFrame:
		m.resumeHostFrame(t)
		return t.PC
	}
	if m.OnIndirect != nil {
		m.OnIndirect(t, pc, retAddr, KindRet)
	}
	t.PC = retAddr
	return next
}

func hCallX(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	if int(i.Ext) >= len(m.exts) || m.exts[i.Ext] == nil {
		m.faultf(t, pc, "call to unbound import #%d", i.Ext)
		return next
	}
	m.charge(t, m.extCost[i.Ext])
	if err := m.exts[i.Ext](m, t); err != nil {
		m.faultf(t, pc, "external %q: %v", m.Img.Imports[i.Ext], err)
		return next
	}
	if m.OnBlock != nil && t.PC == next && t.State == Runnable {
		// The instruction after an external call starts a new block.
		m.OnBlock(t, next)
	}
	return next
}

func hSyscall(m *Machine, t *Thread, _ *codePage, _ *mx.Inst, pc, next uint64) uint64 {
	m.faultf(t, pc, "raw syscall executed (unsupported)")
	return next
}

func hHlt(m *Machine, t *Thread, _ *codePage, _ *mx.Inst, _, next uint64) uint64 {
	m.exit(int(int64(t.Regs[mx.RDI])))
	return next
}

func hUd2(m *Machine, t *Thread, _ *codePage, _ *mx.Inst, pc, next uint64) uint64 {
	m.faultf(t, pc, "ud2 executed")
	return next
}

func hPush(m *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	m.push(t, t.Regs[i.Dst])
	return next
}

func hPop(m *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	if v, ok := m.pop(t); ok {
		t.Regs[i.Dst] = v
	}
	return next
}

func hLockAdd(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	old, ok := m.loadMem64(t, pc, addr)
	if !ok {
		return next
	}
	r := old + t.Regs[i.Dst]
	if !m.storeMem64(t, pc, addr, r) {
		return next
	}
	t.setZS(r)
	return next
}

func hLockSub(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	old, ok := m.loadMem64(t, pc, addr)
	if !ok {
		return next
	}
	r := old - t.Regs[i.Dst]
	if !m.storeMem64(t, pc, addr, r) {
		return next
	}
	t.setZS(r)
	return next
}

func hLockAnd(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	old, ok := m.loadMem64(t, pc, addr)
	if !ok {
		return next
	}
	r := old & t.Regs[i.Dst]
	if !m.storeMem64(t, pc, addr, r) {
		return next
	}
	t.setZS(r)
	return next
}

func hLockOr(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	old, ok := m.loadMem64(t, pc, addr)
	if !ok {
		return next
	}
	r := old | t.Regs[i.Dst]
	if !m.storeMem64(t, pc, addr, r) {
		return next
	}
	t.setZS(r)
	return next
}

func hLockXor(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	old, ok := m.loadMem64(t, pc, addr)
	if !ok {
		return next
	}
	r := old ^ t.Regs[i.Dst]
	if !m.storeMem64(t, pc, addr, r) {
		return next
	}
	t.setZS(r)
	return next
}

func hLockXadd(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	old, ok := m.loadMem64(t, pc, addr)
	if !ok {
		return next
	}
	if !m.storeMem64(t, pc, addr, old+t.Regs[i.Dst]) {
		return next
	}
	t.Regs[i.Dst] = old
	return next
}

func hLockInc(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	old, ok := m.loadMem64(t, pc, addr)
	if !ok {
		return next
	}
	if !m.storeMem64(t, pc, addr, old+1) {
		return next
	}
	t.setZS(old + 1)
	return next
}

func hLockDec(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	old, ok := m.loadMem64(t, pc, addr)
	if !ok {
		return next
	}
	if !m.storeMem64(t, pc, addr, old-1) {
		return next
	}
	t.setZS(old - 1)
	return next
}

func hXchg(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	old, ok := m.loadMem64(t, pc, addr)
	if !ok {
		return next
	}
	if !m.storeMem64(t, pc, addr, t.Regs[i.Dst]) {
		return next
	}
	t.Regs[i.Dst] = old
	return next
}

func hCmpxchg(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	old, ok := m.loadMem64(t, pc, addr)
	if !ok {
		return next
	}
	if old == t.Regs[mx.RAX] {
		if !m.storeMem64(t, pc, addr, t.Regs[i.Dst]) {
			return next
		}
		t.ZF = true
	} else {
		t.Regs[mx.RAX] = old
		t.ZF = false
	}
	return next
}

func hMfence(_ *Machine, _ *Thread, _ *codePage, _ *mx.Inst, _, next uint64) uint64 {
	// Interpreter execution is sequentially consistent already.
	return next
}

func hTlsBase(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	t.Regs[i.Dst] = t.TLS
	return next
}

func hVload(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	for l := 0; l < mx.VectorWidth; l++ {
		v, ok := m.loadMem64(t, pc, addr+uint64(l*8))
		if !ok {
			return next
		}
		t.VRegs[i.Dst][l] = v
	}
	return next
}

func hVstore(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	for l := 0; l < mx.VectorWidth; l++ {
		if !m.storeMem64(t, pc, addr+uint64(l*8), t.VRegs[i.Dst][l]) {
			return next
		}
	}
	return next
}

func hVadd(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	for l := 0; l < mx.VectorWidth; l++ {
		t.VRegs[i.Dst][l] += t.VRegs[i.Src][l]
	}
	return next
}

func hVmul(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	for l := 0; l < mx.VectorWidth; l++ {
		t.VRegs[i.Dst][l] = uint64(int64(t.VRegs[i.Dst][l]) * int64(t.VRegs[i.Src][l]))
	}
	return next
}

func hVbcast(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	for l := 0; l < mx.VectorWidth; l++ {
		t.VRegs[i.Dst][l] = t.Regs[i.Src]
	}
	return next
}

func hVhadd(_ *Machine, t *Thread, _ *codePage, i *mx.Inst, _, next uint64) uint64 {
	var s uint64
	for l := 0; l < mx.VectorWidth; l++ {
		s += t.VRegs[i.Src][l]
	}
	t.Regs[i.Dst] = s
	return next
}
