package vm

import "repro/internal/mx"

// Access recording. A machine given a site table (RecordAccesses) reports
// every execution of a tagged instruction to a host function: the thread,
// the site ID the lowering assigned to the instruction, and its effective
// address, before the access runs. Spinloop detection (internal/spindet)
// records the plain recompiled build this way, the same emulator-hook
// approach the ICFT tracer's OnIndirect takes in place of the paper's Pin
// tool: the guest executes exactly the code it would without recording.
//
// compileOne routes each tagged offset through a handler that reports the
// access and then runs the offset's own handler (the TSO or weak table's).
// Tagged memory ops lose their inline micro-op, so both batch loops reach
// them through that handler; every other offset, and every offset of a
// machine with no table, compiles as before.

// AccessFunc observes one execution of a tagged instruction: the executing
// thread, the instruction's site ID and its effective address. It runs
// before the access, so an access that faults is still reported.
type AccessFunc func(t *Thread, site int, addr uint64)

// RecordAccesses makes the machine report every execution of an
// instruction in sites (code address -> site ID, as lower.Result.Sites
// gives it) to fn. Set it before Run, and leave sites unchanged while the
// machine runs: each offset looks up its tag when it compiles, on its first
// execution.
func (m *Machine) RecordAccesses(sites map[uint64]int, fn AccessFunc) {
	m.recFn, m.recSites = fn, sites
}

// tagAccess installs a recording handler at off if its address is tagged
// and it holds a memory-operand instruction; a tag on anything else is
// ignored.
func (m *Machine) tagAccess(cp *codePage, base uint64, off int) {
	site, ok := m.recSites[base+uint64(off)]
	if !ok {
		return
	}
	d := &cp.disp[off]
	inner, fn := d.h, m.recFn
	switch mx.LayoutOf(cp.insts[off].Op) {
	case mx.LayoutMem:
		d.h = func(m *Machine, t *Thread, cp *codePage, i *mx.Inst, pc, next uint64) uint64 {
			fn(t, site, t.ea(i))
			return inner(m, t, cp, i, pc, next)
		}
	case mx.LayoutMemIdx:
		d.h = func(m *Machine, t *Thread, cp *codePage, i *mx.Inst, pc, next uint64) uint64 {
			fn(t, site, t.eaIdx(i))
			return inner(m, t, cp, i, pc, next)
		}
	default:
		return
	}
	d.mop = mopCall
}
