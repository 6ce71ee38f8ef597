package vm

import (
	"repro/internal/mx"
)

// costs is the cycle cost model. Values are chosen so that relative costs
// resemble a modern OoO core at the granularity that matters for the paper's
// ratios: memory ops cost more than ALU ops, locked ops and fences are
// expensive, vector ops amortize over four lanes, external (library) calls
// carry a fixed dispatch cost plus per-function work.
var costs = func() [mx.NumOps]uint64 {
	var c [mx.NumOps]uint64
	for i := range c {
		c[i] = 1
	}
	mem := []mx.Op{mx.LOAD8, mx.LOAD32, mx.LOAD64, mx.STORE8, mx.STORE32,
		mx.STORE64, mx.STOREI8, mx.STOREI32, mx.STOREI64}
	for _, op := range mem {
		c[op] = 2
	}
	memIdx := []mx.Op{mx.LOADIDX8, mx.LOADIDX32, mx.LOADIDX64,
		mx.STOREIDX8, mx.STOREIDX32, mx.STOREIDX64}
	for _, op := range memIdx {
		c[op] = 2
	}
	c[mx.IMULRR], c[mx.IMULRI] = 3, 3
	c[mx.DIVRR], c[mx.MODRR] = 20, 20
	c[mx.CALL], c[mx.CALLR], c[mx.RET] = 2, 3, 2
	c[mx.PUSH], c[mx.POP] = 2, 2
	c[mx.JMPR] = 2
	c[mx.JMPM] = 4
	locked := []mx.Op{mx.LOCKADD, mx.LOCKSUB, mx.LOCKAND, mx.LOCKOR,
		mx.LOCKXOR, mx.LOCKXADD, mx.LOCKINC, mx.LOCKDEC, mx.XCHG, mx.CMPXCHG}
	for _, op := range locked {
		c[op] = 8
	}
	c[mx.MFENCE] = 12
	c[mx.CALLX] = 10 // dispatch cost; per-function work added by the ext
	c[mx.VLOAD], c[mx.VSTORE] = 4, 4
	c[mx.VADD], c[mx.VMUL] = 2, 3
	c[mx.VBCAST], c[mx.VHADD] = 2, 3
	c[mx.TLSBASE] = 1
	return c
}()

func (t *Thread) setZS(v uint64) {
	t.ZF = v == 0
	t.SF = int64(v) < 0
}

func (t *Thread) setAddFlags(a, b, r uint64) {
	t.setZS(r)
	t.CF = r < a
	t.OF = (int64(a) >= 0) == (int64(b) >= 0) && (int64(r) >= 0) != (int64(a) >= 0)
}

func (t *Thread) setSubFlags(a, b, r uint64) {
	t.setZS(r)
	t.CF = a < b
	t.OF = (int64(a) >= 0) != (int64(b) >= 0) && (int64(r) >= 0) != (int64(a) >= 0)
}

// Eval evaluates a condition against the thread's flags.
func (t *Thread) Eval(cc mx.Cond) bool {
	switch cc {
	case mx.CondE:
		return t.ZF
	case mx.CondNE:
		return !t.ZF
	case mx.CondL:
		return t.SF != t.OF
	case mx.CondLE:
		return t.ZF || t.SF != t.OF
	case mx.CondG:
		return !t.ZF && t.SF == t.OF
	case mx.CondGE:
		return t.SF == t.OF
	case mx.CondB:
		return t.CF
	case mx.CondBE:
		return t.CF || t.ZF
	case mx.CondA:
		return !t.CF && !t.ZF
	case mx.CondAE:
		return !t.CF
	case mx.CondS:
		return t.SF
	case mx.CondNS:
		return !t.SF
	}
	return false
}

func sx32(v uint64) uint64 { return uint64(int64(int32(v))) }

// ea computes inst's base+disp effective address.
func (t *Thread) ea(inst *mx.Inst) uint64 {
	return t.Regs[inst.Base] + uint64(int64(inst.Disp))
}

// eaIdx computes inst's base+idx*scale+disp effective address.
func (t *Thread) eaIdx(inst *mx.Inst) uint64 {
	return t.Regs[inst.Base] + t.Regs[inst.Idx]*uint64(inst.Scale) + uint64(int64(inst.Disp))
}

// push and pop access the stack slot in memory directly. In weak mode a
// buffered store overlapping the slot would later overwrite a pushed value
// or be missed by a pop, so they first drain a buffer holding one (weak.go).

func (m *Machine) push(t *Thread, v uint64) bool {
	t.Regs[mx.RSP] -= 8
	m.drainOverlapping(t, t.Regs[mx.RSP])
	if !m.Mem.store64(t.Regs[mx.RSP], v) {
		m.faultf(t, t.PC, "stack overflow: push to unmapped %#x", t.Regs[mx.RSP])
		return false
	}
	return true
}

func (m *Machine) pop(t *Thread) (uint64, bool) {
	m.drainOverlapping(t, t.Regs[mx.RSP])
	v, ok := m.Mem.load64(t.Regs[mx.RSP])
	if !ok {
		m.faultf(t, t.PC, "pop from unmapped %#x", t.Regs[mx.RSP])
		return 0, false
	}
	t.Regs[mx.RSP] += 8
	return v, true
}

// resumeHostFrame re-enters the topmost suspended host state machine. The
// frame reads and writes guest memory directly (qsort's swaps), so a weak
// machine first drains the store buffer, as it does before an external call.
func (m *Machine) resumeHostFrame(t *Thread) {
	if len(t.hostFrames) == 0 {
		m.faultf(t, t.PC, "return to host frame with no frame pending")
		return
	}
	if m.weak {
		m.drainSB(t)
	}
	fr := t.hostFrames[len(t.hostFrames)-1]
	done, err := fr.frame.resume(m, t, t.Regs[mx.RAX])
	if err != nil {
		m.faultf(t, t.PC, "host frame: %v", err)
		return
	}
	if done {
		t.PC = fr.cont
		t.hostFrames = t.hostFrames[:len(t.hostFrames)-1]
	}
}

// callGuest arranges for t to call the guest function at fn with the given
// register arguments, returning control to the host frame when it RETs.
func (m *Machine) callGuest(t *Thread, fn uint64, args ...uint64) {
	if m.OnGuestEntry != nil {
		m.OnGuestEntry(fn)
	}
	argRegs := []mx.Reg{mx.RDI, mx.RSI, mx.RDX, mx.RCX, mx.R8, mx.R9}
	for i, v := range args {
		t.Regs[argRegs[i]] = v
	}
	m.push(t, magicHostFrame)
	t.PC = fn
}
