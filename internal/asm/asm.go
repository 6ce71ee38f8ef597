// Package asm provides a two-pass programmatic assembler for MX64.
//
// The assembler is how every input binary in this repository is produced: the
// mini-C compiler (internal/cc) emits through a Builder, and tests and
// hand-written workloads (including the paper's overlapping-instruction and
// spinlock examples) use it directly. It resolves labels across text and data
// sections, lays sections out at their conventional PXE addresses, and
// produces a stripped image.Image — no symbol information survives into the
// binary, mirroring the paper's legacy-binary input class.
package asm

import (
	"encoding/binary"
	"fmt"

	"repro/internal/image"
	"repro/internal/mx"
)

// fixupKind says how a label reference is patched in pass two.
type fixupKind uint8

const (
	fixNone   fixupKind = iota
	fixRel32            // Disp = target - end-of-instruction (JMP/JCC/CALL)
	fixAbs64            // Imm = target address (MOVRI of a symbol)
	fixDisp32           // Disp = target address truncated to 32 bits (tables)
)

type item struct {
	inst   mx.Inst
	fix    fixupKind
	target string
	addr   uint64 // assigned in pass one
	raw    []byte // raw bytes emitted verbatim (overlapping-code tests)
}

type dataItem struct {
	bytes []byte
	label string // if non-empty, emit the 8-byte address of this label
}

type dataSection struct {
	items  []dataItem
	labels map[string]uint64 // label -> offset within section
	size   uint64
}

func newDataSection() *dataSection {
	return &dataSection{labels: map[string]uint64{}}
}

// Builder assembles one PXE image.
type Builder struct {
	name    string
	items   []item
	labels  map[string]int // text label -> item index
	rodata  *dataSection
	data    *dataSection
	bss     map[string]uint64 // label -> size
	bssOrd  []string
	entry   string
	imports []string
	tlsSize uint64
	err     error
}

// NewBuilder returns a Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:   name,
		labels: map[string]int{},
		rodata: newDataSection(),
		data:   newDataSection(),
		bss:    map[string]uint64{},
	}
}

func (b *Builder) setErr(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("asm: "+format, args...)
	}
}

// Label defines a text label at the current position.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.setErr("duplicate label %q", name)
		return
	}
	b.labels[name] = len(b.items)
}

// Entry marks the program entry point label.
func (b *Builder) Entry(name string) { b.entry = name }

// SetTLSSize declares the per-thread TLS block size.
func (b *Builder) SetTLSSize(n uint64) { b.tlsSize = n }

// I emits a raw instruction with no label fixups.
func (b *Builder) I(inst mx.Inst) { b.items = append(b.items, item{inst: inst}) }

// Raw emits literal bytes into the text stream (used to construct
// overlapping-instruction and data-in-text test binaries).
func (b *Builder) Raw(bytes []byte) {
	b.items = append(b.items, item{raw: append([]byte(nil), bytes...)})
}

// --- convenience emitters -------------------------------------------------

// MovRR emits dst <- src.
func (b *Builder) MovRR(dst, src mx.Reg) { b.I(mx.Inst{Op: mx.MOVRR, Dst: dst, Src: src}) }

// MovRI emits dst <- imm.
func (b *Builder) MovRI(dst mx.Reg, imm int64) { b.I(mx.Inst{Op: mx.MOVRI, Dst: dst, Imm: imm}) }

// MovSym emits dst <- address-of(label). The label may be in any section.
func (b *Builder) MovSym(dst mx.Reg, label string) {
	b.items = append(b.items, item{
		inst: mx.Inst{Op: mx.MOVRI, Dst: dst}, fix: fixAbs64, target: label,
	})
}

// Jmp emits an unconditional jump to a text label.
func (b *Builder) Jmp(label string) {
	b.items = append(b.items, item{inst: mx.Inst{Op: mx.JMP}, fix: fixRel32, target: label})
}

// Jcc emits a conditional jump to a text label.
func (b *Builder) Jcc(cc mx.Cond, label string) {
	b.items = append(b.items, item{inst: mx.Inst{Op: mx.JCC, Cc: cc}, fix: fixRel32, target: label})
}

// Call emits a direct call to a text label.
func (b *Builder) Call(label string) {
	b.items = append(b.items, item{inst: mx.Inst{Op: mx.CALL}, fix: fixRel32, target: label})
}

// CallExt emits a call to the named external import.
func (b *Builder) CallExt(name string) {
	b.I(mx.Inst{Op: mx.CALLX, Ext: b.importIndex(name)})
}

// Ret emits a return.
func (b *Builder) Ret() { b.I(mx.Inst{Op: mx.RET}) }

func (b *Builder) importIndex(name string) uint16 {
	for i, n := range b.imports {
		if n == name {
			return uint16(i)
		}
	}
	b.imports = append(b.imports, name)
	return uint16(len(b.imports) - 1)
}

// --- data emitters ----------------------------------------------------------

func (s *dataSection) label(name string, b *Builder) {
	if _, dup := s.labels[name]; dup {
		b.setErr("duplicate data label %q", name)
		return
	}
	s.labels[name] = s.size
}

func (s *dataSection) bytes(p []byte) {
	s.items = append(s.items, dataItem{bytes: append([]byte(nil), p...)})
	s.size += uint64(len(p))
}

func (s *dataSection) quadSym(label string) {
	s.items = append(s.items, dataItem{label: label})
	s.size += 8
}

// RodataLabel defines a label in .rodata at the current offset.
func (b *Builder) RodataLabel(name string) { b.rodata.label(name, b) }

// Rodata appends raw bytes to .rodata.
func (b *Builder) Rodata(p []byte) { b.rodata.bytes(p) }

// RodataAddr appends the 8-byte address of a label to .rodata (jump tables,
// function-pointer tables).
func (b *Builder) RodataAddr(label string) { b.rodata.quadSym(label) }

// DataLabel defines a label in .data at the current offset.
func (b *Builder) DataLabel(name string) { b.data.label(name, b) }

// Data appends raw bytes to .data.
func (b *Builder) Data(p []byte) { b.data.bytes(p) }

// DataQuad appends an 8-byte little-endian value to .data.
func (b *Builder) DataQuad(v uint64) {
	b.data.bytes(binary.LittleEndian.AppendUint64(nil, v))
}

// DataAddr appends the 8-byte address of a label to .data.
func (b *Builder) DataAddr(label string) { b.data.quadSym(label) }

// BSS reserves size zeroed bytes in .bss under the given label.
func (b *Builder) BSS(name string, size uint64) {
	if _, dup := b.bss[name]; dup {
		b.setErr("duplicate bss label %q", name)
		return
	}
	b.bss[name] = size
	b.bssOrd = append(b.bssOrd, name)
}

// --- assembly ---------------------------------------------------------------

// Build assembles the program. It returns the image and the symbol table
// (label -> virtual address). The symbol table is NOT part of the image; it
// exists for tests and ground-truth comparisons only.
func (b *Builder) Build() (*image.Image, map[string]uint64, error) {
	if b.err != nil {
		return nil, nil, b.err
	}
	syms := map[string]uint64{}

	// Pass one: assign text addresses.
	addr := image.TextBase
	for i := range b.items {
		b.items[i].addr = addr
		if b.items[i].raw != nil {
			addr += uint64(len(b.items[i].raw))
		} else {
			addr += uint64(b.items[i].inst.Len())
		}
	}
	textEnd := addr
	for name, idx := range b.labels {
		if idx < len(b.items) {
			syms[name] = b.items[idx].addr
		} else {
			syms[name] = textEnd
		}
	}

	// Data section layout.
	align8 := func(v uint64) uint64 { return (v + 7) &^ 7 }
	for name, off := range b.rodata.labels {
		if _, dup := syms[name]; dup {
			return nil, nil, fmt.Errorf("asm: label %q defined in text and rodata", name)
		}
		syms[name] = image.RodataBase + off
	}
	for name, off := range b.data.labels {
		if _, dup := syms[name]; dup {
			return nil, nil, fmt.Errorf("asm: label %q multiply defined", name)
		}
		syms[name] = image.DataBase + off
	}
	bssOff := uint64(0)
	for _, name := range b.bssOrd {
		if _, dup := syms[name]; dup {
			return nil, nil, fmt.Errorf("asm: label %q multiply defined", name)
		}
		syms[name] = image.BSSBase + bssOff
		bssOff = align8(bssOff + b.bss[name])
	}

	// Pass two: encode text with fixups.
	var text []byte
	for _, it := range b.items {
		if it.raw != nil {
			text = append(text, it.raw...)
			continue
		}
		inst := it.inst
		if it.fix != fixNone {
			target, ok := syms[it.target]
			if !ok {
				return nil, nil, fmt.Errorf("asm: undefined label %q", it.target)
			}
			switch it.fix {
			case fixRel32:
				end := it.addr + uint64(inst.Len())
				d := int64(target) - int64(end)
				if int64(int32(d)) != d {
					return nil, nil, fmt.Errorf("asm: branch to %q out of range", it.target)
				}
				inst.Disp = int32(d)
			case fixAbs64:
				inst.Imm = int64(target)
			case fixDisp32:
				inst.Disp = int32(target)
			}
		}
		text = inst.Encode(text)
	}

	// Encode data sections with address fixups.
	encodeData := func(s *dataSection) ([]byte, error) {
		var out []byte
		for _, it := range s.items {
			if it.label != "" {
				target, ok := syms[it.label]
				if !ok {
					return nil, fmt.Errorf("asm: undefined label %q in data", it.label)
				}
				out = binary.LittleEndian.AppendUint64(out, target)
			} else {
				out = append(out, it.bytes...)
			}
		}
		return out, nil
	}
	rodata, err := encodeData(b.rodata)
	if err != nil {
		return nil, nil, err
	}
	data, err := encodeData(b.data)
	if err != nil {
		return nil, nil, err
	}

	im := &image.Image{Name: b.name, Imports: append([]string(nil), b.imports...), TLSSize: b.tlsSize}
	if err := im.AddSection(image.Section{Name: ".text", Addr: image.TextBase, Data: text, Exec: true}); err != nil {
		return nil, nil, err
	}
	if len(rodata) > 0 {
		if err := im.AddSection(image.Section{Name: ".rodata", Addr: image.RodataBase, Data: rodata}); err != nil {
			return nil, nil, err
		}
	}
	if len(data) > 0 {
		if err := im.AddSection(image.Section{Name: ".data", Addr: image.DataBase, Data: data}); err != nil {
			return nil, nil, err
		}
	}
	if bssOff > 0 {
		if err := im.AddSection(image.Section{Name: ".bss", Addr: image.BSSBase, Size: bssOff}); err != nil {
			return nil, nil, err
		}
	}
	if b.entry == "" {
		return nil, nil, fmt.Errorf("asm: no entry point set")
	}
	entry, ok := syms[b.entry]
	if !ok {
		return nil, nil, fmt.Errorf("asm: entry label %q undefined", b.entry)
	}
	im.Entry = entry
	return im, syms, nil
}
