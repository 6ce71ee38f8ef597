package vm

import (
	"repro/internal/mx"
)

// Weak-ordering machine mode (the MX64W target's execution model).
//
// An image whose Machine field names a weakly-ordered target runs with a
// per-thread FIFO store buffer: plain stores are buffered and become
// globally visible only when the buffer drains. Drains happen at every
// fence, atomic, external call, jump-table load, syscall/halt, return into
// a host frame (resumeHostFrame), when the buffer reaches capacity, and —
// crucially — whenever the scheduler runs a different thread. The running
// thread forwards its own buffered stores to its own loads (exact-match
// store-to-load forwarding; partially overlapping loads drain first), so
// single-threaded semantics are unchanged, while unfenced cross-thread
// visibility is exactly what the drain points allow.
//
// Because the buffer always drains before any other thread executes an
// instruction and before host code touches guest memory (an external call,
// or a host frame resumed when a guest callback returns), every weak-mode
// execution is observationally equivalent to a sequentially consistent
// interleaving — the same guarantee the TSO machine gives — so a correctly
// fenced program produces byte-identical output on both machines.
// What changes is the contract: on this machine the *target's code
// generator* is responsible for ordering (emitting real fence
// instructions), not the machine, which is what makes emitted-fence counts
// and the fence-optimization pass measurable (§3.4).
//
// Weak mode runs on the same handler table as the TSO machine: every offset
// of a weak machine compiles with weakHandlers, so plain loads and stores go
// through loadMem/storeMem below and drain points drain before their plain
// handler runs. The fast loop runs the 64-bit plain and indexed loads and
// stores, most of what recompiled mx64w code executes, as inline micro-ops
// (step_threaded.go) that mirror loadMem and storeMem at width 8 and append
// through the same sbAppend. PUSH, POP, CALL, CALLR and RET access their
// stack slot directly; push and pop drain the buffer first when it holds a
// store overlapping the slot, so a later drain cannot overwrite a pushed
// value and a pop cannot miss a buffered store. Instruction fetch reads
// memory directly, which stays correct because stores into code write
// through (storeMem).

// sbCap is the store-buffer capacity in entries; reaching it drains the
// whole buffer (modeling limited store-queue depth).
const sbCap = 8

// sbEntry is one buffered store.
type sbEntry struct {
	addr uint64
	val  uint64
	w    uint8
}

// opDrainsSB marks opcodes that drain the executing thread's store buffer
// before the instruction's own memory semantics run: fences (their whole
// point), atomics (globally-visible ordering points on every machine; after
// the drain their plain handler commits the store to memory), external
// calls (the host reads guest memory directly), memory-indirect jumps (the
// jump-table load bypasses loadMem), and machine-stopping ops.
var opDrainsSB = func() [mx.NumOps]bool {
	var t [mx.NumOps]bool
	for op := mx.Op(0); op < mx.NumOps; op++ {
		if (mx.Inst{Op: op}).IsAtomic() {
			t[op] = true
		}
	}
	t[mx.MFENCE] = true
	t[mx.CALLX] = true
	t[mx.JMPM] = true
	t[mx.SYSCALL] = true
	t[mx.HLT] = true
	return t
}()

// drainSB flushes t's buffered stores to memory in FIFO order. Entries were
// validated as mapped when buffered, so the stores cannot fault. The
// width-specialized stores count TLB hits and misses exactly as Store does.
func (m *Machine) drainSB(t *Thread) {
	mem := m.Mem
	for i := range t.sbuf {
		e := &t.sbuf[i]
		switch e.w {
		case 1:
			mem.store8(e.addr, e.val)
		case 4:
			mem.store32(e.addr, e.val)
		default:
			mem.store64(e.addr, e.val)
		}
	}
	t.sbuf = t.sbuf[:0]
	if m.sbOwner == t {
		m.sbOwner = nil
	}
}

// sbAppend buffers t's store of v, already masked to its width w, to the
// validated address addr: it makes t the buffer owner and drains the whole
// buffer once it reaches capacity. storeMem and the fast loop's inline
// 64-bit stores both append through it, so drain policy has one definition.
func (m *Machine) sbAppend(t *Thread, addr, v uint64, w int) {
	t.sbuf = append(t.sbuf, sbEntry{addr: addr, val: v, w: uint8(w)})
	m.sbOwner = t
	if len(t.sbuf) >= sbCap {
		m.drainSB(t)
	}
}

// sbLoad attempts store-to-load forwarding from t's buffer. hit means val
// holds the newest buffered store to exactly (addr, w); overlap means some
// buffered store intersects the loaded range without matching exactly, so
// the caller must drain before loading from memory.
func (t *Thread) sbLoad(addr uint64, w int) (val uint64, hit, overlap bool) {
	end := addr + uint64(w)
	for i := len(t.sbuf) - 1; i >= 0; i-- {
		e := &t.sbuf[i]
		if e.addr == addr && int(e.w) == w {
			return e.val, true, false
		}
		if e.addr < end && addr < e.addr+uint64(e.w) {
			return 0, false, true
		}
	}
	return 0, false, false
}

// loadMem and storeMem are the weak pages' memory accessors. A load
// forwards the newest buffered store to exactly (addr, w) and drains the
// buffer first on a partial overlap; 4-byte loads sign-extend, as every
// MX64 32-bit load does. A store validates its target (fault
// attribution is identical to a direct store) and is buffered; stores into
// watched executable ranges drain and write through instead, so
// self-modifying code invalidates the predecode cache at store time, in
// program order.

func (m *Machine) loadMem(t *Thread, pc, addr uint64, w int) (uint64, bool) {
	if len(t.sbuf) > 0 {
		if v, hit, overlap := t.sbLoad(addr, w); hit {
			if w == 4 {
				v = sx32(v)
			}
			return v, true
		} else if overlap {
			m.drainSB(t)
		}
	}
	v, ok := m.Mem.Load(addr, w)
	if !ok {
		m.faultf(t, pc, "load from unmapped address %#x", addr)
		return 0, false
	}
	if w == 4 {
		v = sx32(v)
	}
	return v, true
}

func (m *Machine) storeMem(t *Thread, pc, addr, v uint64, w int) bool {
	mem := m.Mem
	if mem.onWrite != nil && addr < mem.watchHi && addr+uint64(w) > mem.watchLo {
		m.drainSB(t)
		if !mem.Store(addr, v, w) {
			m.faultf(t, pc, "store to unmapped address %#x", addr)
			return false
		}
		return true
	}
	// A store within one page translates its target, which proves it mapped
	// and fills the TLB entry the drain then hits; a straddling store
	// checks both pages without translating.
	var mapped bool
	if addr&(pageSize-1)+uint64(w) <= pageSize {
		pg, _ := mem.page(addr, false)
		mapped = pg != nil
	} else {
		mapped = mem.Mapped(addr, uint64(w))
	}
	if !mapped {
		m.faultf(t, pc, "store to unmapped address %#x", addr)
		return false
	}
	// Mask to the stored width now, so forwarded loads see exactly what a
	// memory round-trip would have produced.
	switch w {
	case 1:
		v &= 0xff
	case 4:
		v &= 0xffff_ffff
	}
	m.sbAppend(t, addr, v, w)
	return true
}

// drainOverlapping drains t's buffer if it holds a store overlapping the
// 8-byte slot at addr (push and pop, which access the stack directly).
func (m *Machine) drainOverlapping(t *Thread, addr uint64) {
	if len(t.sbuf) > 0 {
		if _, hit, overlap := t.sbLoad(addr, 8); hit || overlap {
			m.drainSB(t)
		}
	}
}

// weakHandlers is the handler table compileOne installs on weak machines:
// opHandlers with plain loads, stores and VLOAD/VSTORE routed through the
// store buffer, and every opDrainsSB op draining before its plain handler.
var weakHandlers [mx.NumOps]handler

func initWeakHandlers() {
	weakHandlers = opHandlers
	for op, drains := range opDrainsSB {
		if h := opHandlers[op]; drains {
			weakHandlers[op] = func(m *Machine, t *Thread, cp *codePage, i *mx.Inst, pc, next uint64) uint64 {
				m.drainSB(t)
				return h(m, t, cp, i, pc, next)
			}
		}
	}
	// load and store build the plain and indexed forms at one width.
	load := func(w int, idx bool) handler {
		return func(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
			addr := t.ea(i)
			if idx {
				addr = t.eaIdx(i)
			}
			if v, ok := m.loadMem(t, pc, addr, w); ok {
				t.Regs[i.Dst] = v
			}
			return next
		}
	}
	store := func(w int, idx, imm bool) handler {
		return func(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
			addr, v := t.ea(i), t.Regs[i.Dst]
			if idx {
				addr = t.eaIdx(i)
			}
			if imm {
				v = uint64(i.Imm)
			}
			m.storeMem(t, pc, addr, v, w)
			return next
		}
	}
	// Each access kind's 8-, 32- and 64-bit opcodes are consecutive.
	for k, w := range []int{1, 4, 8} {
		weakHandlers[mx.LOAD8+mx.Op(k)] = load(w, false)
		weakHandlers[mx.LOADIDX8+mx.Op(k)] = load(w, true)
		weakHandlers[mx.STORE8+mx.Op(k)] = store(w, false, false)
		weakHandlers[mx.STOREI8+mx.Op(k)] = store(w, false, true)
		weakHandlers[mx.STOREIDX8+mx.Op(k)] = store(w, true, false)
	}
	weakHandlers[mx.VLOAD] = func(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
		addr := t.ea(i)
		for l := 0; l < mx.VectorWidth; l++ {
			v, ok := m.loadMem(t, pc, addr+uint64(l*8), 8)
			if !ok {
				return next
			}
			t.VRegs[i.Dst][l] = v
		}
		return next
	}
	weakHandlers[mx.VSTORE] = func(m *Machine, t *Thread, _ *codePage, i *mx.Inst, pc, next uint64) uint64 {
		addr := t.ea(i)
		for l := 0; l < mx.VectorWidth; l++ {
			if !m.storeMem(t, pc, addr+uint64(l*8), t.VRegs[i.Dst][l], 8) {
				return next
			}
		}
		return next
	}
}
