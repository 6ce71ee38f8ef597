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
// compile() routes each tagged offset through a handler that reports the
// access and then runs the page's own handler (the TSO or weak table's).
// Tagged memory ops lose their inline micro-op, so both batch loops reach
// them through that handler; every other offset, and every page of a
// machine with no table, compiles as before.

// AccessFunc observes one execution of a tagged instruction: the executing
// thread, the instruction's site ID and its effective address. It runs
// before the access, so an access that faults is still reported.
type AccessFunc func(t *Thread, site int, addr uint64)

// accessTag is one tagged instruction of a code page.
type accessTag struct {
	off  uint16
	site int
}

// RecordAccesses makes the machine report every execution of an
// instruction in sites (code address -> site ID, as lower.Result.Sites
// gives it) to fn. Set it before Run: pages compile their tags on first
// execution.
func (m *Machine) RecordAccesses(sites map[uint64]int, fn AccessFunc) {
	m.recFn = fn
	m.recTags = map[uint64][]accessTag{}
	for addr, site := range sites {
		base := addr &^ (pageSize - 1)
		m.recTags[base] = append(m.recTags[base], accessTag{off: uint16(addr - base), site: site})
	}
}

// compile compiles cp, the page at base, for this machine: the handler
// table for its memory ordering, then the recording handlers of its tagged
// offsets. A machine without a site table pays one nil check here and
// nothing per instruction.
func (m *Machine) compile(cp *codePage, base uint64) {
	cp.compile(m.weak)
	if m.recTags != nil {
		m.tagAccesses(cp, m.recTags[base])
	}
}

// tagAccesses installs a recording handler at each tagged offset that holds
// a memory-operand instruction; a tag on anything else is ignored.
func (m *Machine) tagAccesses(cp *codePage, tags []accessTag) {
	fn := m.recFn
	for _, tg := range tags {
		d := &cp.disp[tg.off]
		inner, site := d.h, tg.site
		switch mx.LayoutOf(cp.insts[tg.off].Op) {
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
			continue
		}
		d.mop = mopCall
	}
}
