// Package disasm is the static disassembler: the COTS-disassembler stage of
// the pipeline (the paper wraps radare2; we implement the equivalent).
//
// It performs recursive-descent disassembly from the entry point, treating
// calls and jumps as block terminators, discovers additional function entries
// from direct call targets and from address-taken heuristics (immediate
// operands and data words that point into the text section), and resolves
// jump tables with the classic bounded-scan heuristic (find the table base
// register's defining MOVRI, read consecutive code pointers, bound by a
// preceding CMP when present).
//
// Like any static disassembler it overapproximates and can miss targets of
// register-indirect transfers; those are recovered dynamically by the ICFT
// tracer and by additive lifting (§3.2).
package disasm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/image"
	"repro/internal/mx"
)

// maxJumpTable bounds the table-scan heuristic.
const maxJumpTable = 1024

// ErrNoText is Disassemble's only error: the image has no .text section.
var ErrNoText = errors.New("disasm: image has no text section")

// Disassemble recovers the static CFG of img.
func Disassemble(img *image.Image) (*cfg.Graph, error) {
	text := img.Text()
	if text == nil {
		return nil, ErrNoText
	}
	d := &state{
		img:     img,
		text:    text,
		g:       cfg.NewGraph(img.Entry),
		inTable: map[uint64]bool{},
	}
	d.addFunc(img.Entry)
	for {
		progress := false
		// Drain the function worklist.
		for len(d.funcWork) > 0 {
			fe := d.funcWork[len(d.funcWork)-1]
			d.funcWork = d.funcWork[:len(d.funcWork)-1]
			d.exploreFunc(fe)
			progress = true
		}
		// Address-taken heuristics may reveal more entries.
		if d.scanAddressTaken() {
			progress = true
		}
		if !progress {
			break
		}
	}
	return d.g, nil
}

// ExploreFrom integrates newly discovered control flow starting at target
// into an existing graph (the additive-lifting static descent, §3.2:
// "starting at this target, we perform a static recursive descent style
// exploration ... and integrate back all the discovered paths"). The new
// blocks are attached to the function owning fromBlock.
func ExploreFrom(img *image.Image, g *cfg.Graph, fromBlock, target uint64) error {
	text := img.Text()
	if text == nil {
		return ErrNoText
	}
	owner := g.FuncOf(fromBlock)
	if owner == nil {
		return fmt.Errorf("disasm: additive target from unknown block %#x", fromBlock)
	}
	b, ok := g.Blocks[fromBlock]
	if !ok {
		return fmt.Errorf("disasm: missing source block %#x", fromBlock)
	}
	d := &state{img: img, text: text, g: g, inTable: map[uint64]bool{}}
	if b.Term == cfg.TermCallInd {
		// New indirect-call target: a whole new function.
		b.AddTarget(target)
		d.addFunc(target)
	} else {
		// New jump target: explore within the owning function.
		b.AddTarget(target)
		d.exploreBlocks(owner, []uint64{target})
	}
	for len(d.funcWork) > 0 {
		fe := d.funcWork[len(d.funcWork)-1]
		d.funcWork = d.funcWork[:len(d.funcWork)-1]
		d.exploreFunc(fe)
	}
	return nil
}

// AddIndirectTarget integrates one observed indirect transfer from blk to
// target into g: nothing when target is already one of blk's targets, an
// edge when target's block is known, and otherwise ExploreFrom's recursive
// descent. The ICFT tracer, trace-artifact replay and additive lifting all
// integrate through here. It reports whether target was new to blk, also
// when the descent then fails.
func AddIndirectTarget(img *image.Image, g *cfg.Graph, blk *cfg.Block, target uint64) (bool, error) {
	if blk.HasTarget(target) {
		return false, nil
	}
	if _, known := g.Blocks[target]; known {
		blk.AddTarget(target)
		return true, nil
	}
	return true, ExploreFrom(img, g, blk.Addr, target)
}

type state struct {
	img      *image.Image
	text     *image.Section
	g        *cfg.Graph
	funcWork []uint64
	inTable  map[uint64]bool // rodata addresses identified as jump-table slots
}

func (d *state) addFunc(entry uint64) {
	if d.g.Func(entry) != nil {
		return
	}
	if !d.img.InText(entry) {
		return
	}
	d.g.AddFunc(entry)
	d.funcWork = append(d.funcWork, entry)
}

// exploreFunc recursively disassembles the function at entry.
func (d *state) exploreFunc(entry uint64) {
	f := d.g.Func(entry)
	d.exploreBlocks(f, []uint64{entry})
}

// exploreBlocks walks intraprocedural control flow from the given seeds,
// attaching every reached block to f.
func (d *state) exploreBlocks(f *cfg.Func, seeds []uint64) {
	work := append([]uint64(nil), seeds...)
	for len(work) > 0 {
		addr := work[len(work)-1]
		work = work[:len(work)-1]
		if b, ok := d.g.Blocks[addr]; ok {
			// Known block: just claim it for f and follow its edges once.
			if owned := inFunc(f, addr); !owned {
				d.g.AddBlockToFunc(f, addr)
				work = append(work, d.intraSuccs(b)...)
			}
			continue
		}
		// The address may split an existing block.
		if host := d.g.BlockContaining(addr); host != nil && host.Addr != addr {
			if nb := d.splitBlock(host, addr); nb != nil {
				d.g.AddBlockToFunc(f, nb.Addr)
				work = append(work, d.intraSuccs(nb)...)
				continue
			}
			// Split failed: addr is not on an instruction boundary of the
			// host block — overlapping code. Decode it independently.
		}
		b := d.decodeBlock(addr, f)
		if b == nil {
			continue
		}
		d.g.Blocks[addr] = b
		d.g.AddBlockToFunc(f, addr)
		work = append(work, d.intraSuccs(b)...)
	}
}

func inFunc(f *cfg.Func, addr uint64) bool {
	for _, b := range f.Blocks {
		if b == addr {
			return true
		}
	}
	return false
}

// intraSuccs returns the intraprocedural successor addresses of b (and
// queues interprocedural call targets as functions).
func (d *state) intraSuccs(b *cfg.Block) []uint64 {
	var out []uint64
	switch b.Term {
	case cfg.TermJmp, cfg.TermJcc, cfg.TermJmpInd:
		out = append(out, b.Targets...)
	case cfg.TermCall, cfg.TermCallInd:
		for _, t := range b.Targets {
			d.addFunc(t)
		}
	}
	if b.Fall != 0 {
		out = append(out, b.Fall)
	}
	return out
}

// decodeBlock linearly decodes a basic block starting at addr.
func (d *state) decodeBlock(addr uint64, f *cfg.Func) *cfg.Block {
	if !d.img.InText(addr) {
		return nil
	}
	b := &cfg.Block{Addr: addr}
	pc := addr
	var insts []mx.Inst
	var instAddrs []uint64
	for {
		// Stop if we run into an existing block: fall into it.
		if _, exists := d.g.Blocks[pc]; exists && pc != addr {
			b.Term = cfg.TermFall
			b.Fall = pc
			b.Size = pc - addr
			return b
		}
		off := pc - d.text.Addr
		if off >= uint64(len(d.text.Data)) {
			b.Term = cfg.TermHalt
			b.Size = pc - addr
			return b
		}
		inst, n := mx.Decode(d.text.Data[off:])
		if inst.Op == mx.BAD {
			// Undecodable: halt block (lifting will emit a trap here).
			b.Term = cfg.TermHalt
			b.Size = pc - addr + uint64(n)
			return b
		}
		insts = append(insts, inst)
		instAddrs = append(instAddrs, pc)
		next := pc + uint64(n)
		switch {
		case inst.Op == mx.JMP:
			b.Term = cfg.TermJmp
			b.Targets = []uint64{uint64(int64(next) + int64(inst.Disp))}
			b.Size = next - addr
			return b
		case inst.Op == mx.JCC:
			b.Term = cfg.TermJcc
			b.Targets = []uint64{uint64(int64(next) + int64(inst.Disp))}
			b.Fall = next
			b.Size = next - addr
			return b
		case inst.Op == mx.JMPR:
			b.Term = cfg.TermJmpInd
			b.Size = next - addr
			return b
		case inst.Op == mx.JMPM:
			b.Term = cfg.TermJmpInd
			b.Size = next - addr
			b.Targets = d.resolveJumpTable(insts, instAddrs, inst)
			return b
		case inst.Op == mx.CALL:
			b.Term = cfg.TermCall
			b.Targets = []uint64{uint64(int64(next) + int64(inst.Disp))}
			b.Fall = next
			b.Size = next - addr
			return b
		case inst.Op == mx.CALLR:
			b.Term = cfg.TermCallInd
			b.Fall = next
			b.Size = next - addr
			return b
		case inst.Op == mx.CALLX:
			b.Term = cfg.TermCallExt
			b.Ext = inst.Ext
			b.Fall = next
			b.Size = next - addr
			return b
		case inst.Op == mx.RET:
			b.Term = cfg.TermRet
			b.Size = next - addr
			return b
		case inst.Op == mx.HLT || inst.Op == mx.UD2 || inst.Op == mx.SYSCALL:
			b.Term = cfg.TermHalt
			b.Size = next - addr
			return b
		}
		pc = next
	}
}

// splitBlock splits host at addr (which must be an instruction boundary
// strictly inside host). The low half keeps host's address and falls through
// to the new high half, which inherits the terminator.
func (d *state) splitBlock(host *cfg.Block, addr uint64) *cfg.Block {
	// Verify addr is on an instruction boundary by re-decoding.
	pc := host.Addr
	for pc < addr {
		off := pc - d.text.Addr
		inst, n := mx.Decode(d.text.Data[off:])
		if inst.Op == mx.BAD || n == 0 {
			return nil
		}
		pc += uint64(n)
	}
	if pc != addr {
		return nil // overlapping instructions
	}
	hi := &cfg.Block{
		Addr:    addr,
		Size:    host.Addr + host.Size - addr,
		Term:    host.Term,
		Targets: host.Targets,
		Fall:    host.Fall,
		Ext:     host.Ext,
	}
	host.Size = addr - host.Addr
	host.Term = cfg.TermFall
	host.Targets = nil
	host.Fall = addr
	host.Ext = 0
	d.g.Blocks[addr] = hi
	// The new half belongs to every function that owned the host.
	for _, f := range d.g.Funcs {
		if inFunc(f, host.Addr) {
			d.g.AddBlockToFunc(f, addr)
		}
	}
	return hi
}

// resolveJumpTable applies the jump-table heuristic to a JMPM terminator:
// find the defining MOVRI of the base register within the block, then read
// consecutive code pointers from the table, bounded by a preceding CMP on
// the index register when present.
func (d *state) resolveJumpTable(insts []mx.Inst, addrs []uint64, jmp mx.Inst) []uint64 {
	var tableAddr uint64
	bound := -1
	for i := len(insts) - 2; i >= 0; i-- {
		in := insts[i]
		if tableAddr == 0 && in.Op == mx.MOVRI && in.Dst == jmp.Base {
			tableAddr = uint64(in.Imm)
		}
		if bound < 0 && in.Op == mx.CMPRI && in.Dst == jmp.Idx {
			bound = int(in.Imm)
		}
		if tableAddr != 0 && bound >= 0 {
			break
		}
	}
	if tableAddr == 0 {
		return nil
	}
	base := tableAddr + uint64(int64(jmp.Disp))
	sec := d.img.FindSection(base)
	if sec == nil || sec.Exec {
		return nil
	}
	max := maxJumpTable
	if bound >= 0 && bound+1 < max {
		// cmp idx, N; ja default  ==> N+1 entries (the common shape).
		max = bound + 1
	}
	var targets []uint64
	seen := map[uint64]bool{}
	for i := 0; i < max; i++ {
		slot := base + uint64(i)*8
		off := slot - sec.Addr
		if off+8 > uint64(len(sec.Data)) {
			break
		}
		entry := binary.LittleEndian.Uint64(sec.Data[off:])
		if !d.img.InText(entry) {
			break
		}
		d.inTable[slot] = true
		if !seen[entry] {
			seen[entry] = true
			targets = append(targets, entry)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	return targets
}

// scanAddressTaken scans decoded blocks for MOVRI immediates that point into
// text, and data sections for code pointers (excluding identified jump-table
// slots). Hits become candidate function entries. It reports whether any new
// function was queued.
func (d *state) scanAddressTaken() bool {
	before := len(d.funcWork)
	// Immediates inside known blocks.
	for _, b := range d.g.Blocks {
		pc := b.Addr
		for pc < b.Addr+b.Size {
			off := pc - d.text.Addr
			inst, n := mx.Decode(d.text.Data[off:])
			if n == 0 || inst.Op == mx.BAD {
				break
			}
			if inst.Op == mx.MOVRI && d.img.InText(uint64(inst.Imm)) {
				d.addFunc(uint64(inst.Imm))
			}
			pc += uint64(n)
		}
	}
	// Code pointers in data sections.
	for i := range d.img.Sections {
		sec := &d.img.Sections[i]
		if sec.Exec || sec.Data == nil {
			continue
		}
		for off := 0; off+8 <= len(sec.Data); off += 8 {
			slot := sec.Addr + uint64(off)
			if d.inTable[slot] {
				continue
			}
			v := binary.LittleEndian.Uint64(sec.Data[off:])
			if d.img.InText(v) {
				d.addFunc(v)
			}
		}
	}
	return len(d.funcWork) > before
}

// DecodeBlock decodes the instructions of a block from the image (shared by
// the lifter and tests; the CFG stores only extents).
func DecodeBlock(img *image.Image, b *cfg.Block) ([]mx.Inst, []uint64, error) {
	text := img.FindSection(b.Addr)
	if text == nil || !text.Exec {
		return nil, nil, fmt.Errorf("disasm: block %#x not in text", b.Addr)
	}
	var insts []mx.Inst
	var addrs []uint64
	pc := b.Addr
	for pc < b.Addr+b.Size {
		off := pc - text.Addr
		inst, n := mx.Decode(text.Data[off:])
		if n == 0 {
			return nil, nil, fmt.Errorf("disasm: decode failure at %#x", pc)
		}
		insts = append(insts, inst)
		addrs = append(addrs, pc)
		pc += uint64(n)
	}
	return insts, addrs, nil
}

// AddTracedBlock integrates the single basic block executing at pc into g,
// claiming it for f — the per-executed-block CFG construction of dynamic
// lifters (no recursive descent: only realized paths are integrated). If pc
// falls inside an already-decoded block, that block is split.
func AddTracedBlock(img *image.Image, g *cfg.Graph, f *cfg.Func, pc uint64) error {
	text := img.Text()
	if text == nil {
		return ErrNoText
	}
	d := &state{img: img, text: text, g: g, inTable: map[uint64]bool{}}
	if _, ok := g.Blocks[pc]; ok {
		g.AddBlockToFunc(f, pc)
		return nil
	}
	if host := g.BlockContaining(pc); host != nil && host.Addr != pc {
		if nb := d.splitBlock(host, pc); nb != nil {
			g.AddBlockToFunc(f, pc)
			return nil
		}
	}
	b := d.decodeBlock(pc, f)
	if b == nil {
		return fmt.Errorf("disasm: traced pc %#x not in text", pc)
	}
	g.Blocks[pc] = b
	g.AddBlockToFunc(f, pc)
	return nil
}
