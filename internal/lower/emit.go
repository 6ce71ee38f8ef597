package lower

import (
	"fmt"

	"repro/internal/mx"
)

// emitter is a two-pass machine-code emitter with label fixups, emitting one
// contiguous code blob at a configurable base address (the recompiled-code
// section lives above the original image, so the package asm builder's fixed
// section layout does not apply).
type emitter struct {
	base  uint64
	items []emitItem
	defs  map[string]int // label -> item index
	tags  []emitTag      // tagged accesses, in emission order
	err   error
}

// emitTag pairs a tagged access's item index with its IR site ID.
type emitTag struct{ item, site int }

type emitFix uint8

const (
	fixNone  emitFix = iota
	fixRel32         // Disp = label - end of instruction
	fixAbs64         // Imm = label address
)

type emitItem struct {
	inst   mx.Inst
	fix    emitFix
	target string
	addr   uint64
}

func newEmitter(base uint64) *emitter {
	return &emitter{base: base, defs: map[string]int{}}
}

func (e *emitter) errf(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("lower: "+format, args...)
	}
}

// label defines a label at the current position.
func (e *emitter) label(name string) {
	if _, dup := e.defs[name]; dup {
		e.errf("duplicate label %q", name)
		return
	}
	e.defs[name] = len(e.items)
}

// freshLabel returns a unique local label.
func (e *emitter) freshLabel(tag string) string {
	return fmt.Sprintf(".%s_%d", tag, len(e.items))
}

func (e *emitter) emit(i mx.Inst) { e.items = append(e.items, emitItem{inst: i}) }

// emitAccess emits the one instruction an IR memory access lowers to,
// tagging it with the access's site ID when it has one.
func (e *emitter) emitAccess(i mx.Inst, site int) {
	if site != 0 {
		e.tags = append(e.tags, emitTag{item: len(e.items), site: site})
	}
	e.emit(i)
}

func (e *emitter) jmp(label string) {
	e.items = append(e.items, emitItem{inst: mx.Inst{Op: mx.JMP}, fix: fixRel32, target: label})
}

func (e *emitter) jcc(cc mx.Cond, label string) {
	e.items = append(e.items, emitItem{inst: mx.Inst{Op: mx.JCC, Cc: cc}, fix: fixRel32, target: label})
}

func (e *emitter) call(label string) {
	e.items = append(e.items, emitItem{inst: mx.Inst{Op: mx.CALL}, fix: fixRel32, target: label})
}

// movSym emits dst <- address-of(label).
func (e *emitter) movSym(dst mx.Reg, label string) {
	e.items = append(e.items, emitItem{inst: mx.Inst{Op: mx.MOVRI, Dst: dst}, fix: fixAbs64, target: label})
}

// assemble resolves labels and returns the code blob, the label addresses
// and the site table (tagged instruction address -> site ID).
func (e *emitter) assemble() ([]byte, map[string]uint64, map[uint64]int, error) {
	if e.err != nil {
		return nil, nil, nil, e.err
	}
	addr := e.base
	for i := range e.items {
		e.items[i].addr = addr
		addr += uint64(e.items[i].inst.Len())
	}
	labels := map[string]uint64{}
	for name, idx := range e.defs {
		if idx < len(e.items) {
			labels[name] = e.items[idx].addr
		} else {
			labels[name] = addr
		}
	}
	var code []byte
	for _, it := range e.items {
		inst := it.inst
		if it.fix != fixNone {
			target, ok := labels[it.target]
			if !ok {
				return nil, nil, nil, fmt.Errorf("lower: undefined label %q", it.target)
			}
			switch it.fix {
			case fixRel32:
				end := it.addr + uint64(inst.Len())
				d := int64(target) - int64(end)
				if int64(int32(d)) != d {
					return nil, nil, nil, fmt.Errorf("lower: branch to %q out of range", it.target)
				}
				inst.Disp = int32(d)
			case fixAbs64:
				inst.Imm = int64(target)
			}
		}
		code = inst.Encode(code)
	}
	sites := make(map[uint64]int, len(e.tags))
	for _, tg := range e.tags {
		sites[e.items[tg.item].addr] = tg.site
	}
	return code, labels, sites, nil
}
