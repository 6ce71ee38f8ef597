package ir

import (
	"encoding/binary"
	"fmt"
)

// Deterministic binary serialization for detached function bodies — the
// persistent form of the stub-global/stub-func convention the in-memory
// function cache used: cross-references leave a body as names and are
// resolved against the destination module on decode. The encoding is the
// artifact-store payload for the "func" namespace, so it must be
// byte-deterministic (same body → same bytes, no maps, no pointers) and a
// decode must reproduce the body bit-exactly: same value IDs, same block
// names, same instruction attributes — a decoded function prints and lowers
// identically to its source, which is what lets a disk-warm recompile emit
// the same image as a cold one.
//
// encMagic versions the format; DecodeFuncInto rejects anything else, and
// callers treat any decode failure as a cache miss.
const encMagic = "PIRF1\n"

// EncodeFunc serializes f's body and attributes. Operand references are
// encoded as instruction ordinals and global/function references by name
// (empty name = nil), so the result is self-contained. It fails if an
// operand is not an instruction of f — such a body is not well-formed SSA
// and cannot be replayed.
func EncodeFunc(f *Func) ([]byte, error) {
	ord := map[*Value]int{}
	n := 0
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			ord[v] = n
			n++
		}
	}
	e := &encoder{buf: make([]byte, 0, 64+n*24)}
	e.str(encMagic)
	var flags byte
	if f.External {
		flags |= 1
	}
	if f.HasResult {
		flags |= 2
	}
	if f.IsWrapper {
		flags |= 4
	}
	e.u8(flags)
	e.uv(uint64(f.NumParams))
	e.uv(f.OrigEntry)
	e.uv(uint64(f.nextID))

	blockIdx := map[*Block]int{}
	e.uv(uint64(len(f.Blocks)))
	for i, b := range f.Blocks {
		blockIdx[b] = i
		e.str(b.Name)
		e.uv(b.OrigAddr)
		e.uv(uint64(len(b.Insts)))
	}
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			e.uv(uint64(v.ID))
			e.u8(byte(v.Op))
			e.uv(uint64(len(v.Args)))
			for _, a := range v.Args {
				o, ok := ord[a]
				if !ok {
					return nil, fmt.Errorf("ir: encode %s: operand v%d of v%d is not an instruction of the function", f.Name, a.ID, v.ID)
				}
				e.uv(uint64(o))
			}
			e.sv(v.Const)
			if v.Global != nil {
				e.str(v.Global.Name)
			} else {
				e.str("")
			}
			if v.Fn != nil {
				e.str(v.Fn.Name)
			} else {
				e.str("")
			}
			e.str(v.ExtName)
			e.u8(byte(v.Width))
			e.bool(v.SignExt)
			e.u8(byte(v.Pred))
			e.u8(byte(v.RMW))
			e.u8(byte(v.Order))
			e.bool(v.StackLocal)
			e.uv(uint64(v.SiteID))
			e.uv(v.OrigPC)
			e.uv(uint64(len(v.Targets)))
			for _, t := range v.Targets {
				ti, ok := blockIdx[t]
				if !ok {
					return nil, fmt.Errorf("ir: encode %s: v%d targets a block outside the function", f.Name, v.ID)
				}
				e.uv(uint64(ti))
			}
			e.uv(uint64(len(v.SwitchVals)))
			for _, sv := range v.SwitchVals {
				e.sv(sv)
			}
			e.uv(uint64(len(v.PhiPreds)))
			for _, pb := range v.PhiPreds {
				pi, ok := blockIdx[pb]
				if !ok {
					return nil, fmt.Errorf("ir: encode %s: phi v%d names a pred outside the function", f.Name, v.ID)
				}
				e.uv(uint64(pi))
			}
		}
	}
	return e.buf, nil
}

// DecodeFuncInto materializes an encoded body into dst, which must be empty
// (a fresh skeleton function). Global and function references are resolved
// by name through the two lookups — the decode-side half of the stub
// convention; a lookup returning nil fails the decode (the destination
// module renamed or dropped the symbol, so the body no longer applies).
// On failure dst is restored to its pre-call state, so the caller can treat
// the error as a cache miss and lift into the same skeleton function — in
// particular the internal value-ID counter is rolled back, keeping a
// post-failure fresh lift byte-identical to one that never tried to decode.
func DecodeFuncInto(dst *Func, data []byte, globalOf func(string) *Global, funcOf func(string) *Func) error {
	saved := *dst
	if err := decodeFuncInto(dst, data, globalOf, funcOf); err != nil {
		*dst = saved
		return err
	}
	return nil
}

func decodeFuncInto(dst *Func, data []byte, globalOf func(string) *Global, funcOf func(string) *Func) error {
	if len(dst.Blocks) != 0 {
		return fmt.Errorf("ir: decode into non-empty function %s", dst.Name)
	}
	d := &decoder{buf: data}
	if d.str() != encMagic {
		return fmt.Errorf("ir: decode %s: bad magic", dst.Name)
	}
	flags := d.u8()
	dst.External = flags&1 != 0
	dst.HasResult = flags&2 != 0
	dst.IsWrapper = flags&4 != 0
	dst.NumParams = int(d.uv())
	dst.OrigEntry = d.uv()
	dst.nextID = int(d.uv())

	nblocks := d.uv()
	if d.err != nil || nblocks > uint64(len(data)) {
		return fmt.Errorf("ir: decode %s: corrupt header", dst.Name)
	}
	ninsts := make([]uint64, nblocks)
	total := uint64(0)
	for i := range ninsts {
		b := dst.NewBlock(d.str())
		b.OrigAddr = d.uv()
		ninsts[i] = d.uv()
		// Every instruction takes at least one byte, so a count above the
		// bytes left is corrupt; checking before adding keeps total from
		// wrapping.
		if d.err != nil || ninsts[i] > uint64(len(data))-total {
			return fmt.Errorf("ir: decode %s: corrupt block table", dst.Name)
		}
		total += ninsts[i]
	}

	// First pass: materialize every value with its scalar attributes and
	// remember each value's operand ordinals; links are patched in a second
	// pass because operands may reference forward (phis).
	values := make([]*Value, 0, total)
	argOrds := make([][]uint64, 0, total)
	for bi, b := range dst.Blocks {
		for range ninsts[bi] {
			v := &Value{Block: b}
			v.ID = int(d.uv())
			v.Op = Op(d.u8())
			nargs := d.uv()
			if nargs > total {
				return fmt.Errorf("ir: decode %s: corrupt arg count", dst.Name)
			}
			ords := make([]uint64, nargs)
			for i := range ords {
				ords[i] = d.uv()
			}
			v.Const = d.sv()
			if gname := d.str(); gname != "" {
				if v.Global = globalOf(gname); v.Global == nil {
					return fmt.Errorf("ir: decode %s: unresolved global %q", dst.Name, gname)
				}
			}
			if fname := d.str(); fname != "" {
				if v.Fn = funcOf(fname); v.Fn == nil {
					return fmt.Errorf("ir: decode %s: unresolved function %q", dst.Name, fname)
				}
			}
			v.ExtName = d.str()
			v.Width = int(d.u8())
			v.SignExt = d.bool()
			v.Pred = Pred(d.u8())
			v.RMW = RMWKind(d.u8())
			v.Order = Order(d.u8())
			v.StackLocal = d.bool()
			v.SiteID = int(d.uv())
			v.OrigPC = d.uv()
			if ntgt := d.uv(); ntgt > 0 {
				if ntgt > nblocks {
					return fmt.Errorf("ir: decode %s: corrupt target count", dst.Name)
				}
				v.Targets = make([]*Block, ntgt)
				for i := range v.Targets {
					ti := d.uv()
					if ti >= nblocks {
						return fmt.Errorf("ir: decode %s: target index out of range", dst.Name)
					}
					v.Targets[i] = dst.Blocks[ti]
				}
			}
			if nsv := d.uv(); nsv > 0 {
				if nsv > uint64(len(data)) {
					return fmt.Errorf("ir: decode %s: corrupt switch table", dst.Name)
				}
				v.SwitchVals = make([]int64, nsv)
				for i := range v.SwitchVals {
					v.SwitchVals[i] = d.sv()
				}
			}
			if npp := d.uv(); npp > 0 {
				if npp > nblocks {
					return fmt.Errorf("ir: decode %s: corrupt phi pred count", dst.Name)
				}
				v.PhiPreds = make([]*Block, npp)
				for i := range v.PhiPreds {
					pi := d.uv()
					if pi >= nblocks {
						return fmt.Errorf("ir: decode %s: phi pred index out of range", dst.Name)
					}
					v.PhiPreds[i] = dst.Blocks[pi]
				}
			}
			b.Insts = append(b.Insts, v)
			values = append(values, v)
			argOrds = append(argOrds, ords)
		}
	}
	if d.err != nil {
		return fmt.Errorf("ir: decode %s: %w", dst.Name, d.err)
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("ir: decode %s: %d trailing bytes", dst.Name, len(d.buf))
	}
	for i, v := range values {
		if len(argOrds[i]) == 0 {
			continue
		}
		args := make([]*Value, len(argOrds[i]))
		for j, o := range argOrds[i] {
			if o >= uint64(len(values)) {
				return fmt.Errorf("ir: decode %s: operand ordinal out of range", dst.Name)
			}
			args[j] = values[o]
		}
		v.SetArgs(args...)
	}
	return nil
}

type encoder struct{ buf []byte }

func (e *encoder) u8(b byte)    { e.buf = append(e.buf, b) }
func (e *encoder) uv(x uint64)  { e.buf = binary.AppendUvarint(e.buf, x) }
func (e *encoder) sv(x int64)   { e.buf = binary.AppendVarint(e.buf, x) }
func (e *encoder) str(s string) { e.uv(uint64(len(s))); e.buf = append(e.buf, s...) }
func (e *encoder) bool(b bool) {
	if b {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// decoder reads the encoder's stream with a sticky error: after the first
// malformed read every accessor returns zero values, and the caller checks
// err at the structural checkpoints above.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("truncated or malformed stream")
	}
	d.buf = nil
}

func (d *decoder) u8() byte {
	if len(d.buf) < 1 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) uv() uint64 {
	x, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return x
}

func (d *decoder) sv() int64 {
	x, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return x
}

func (d *decoder) str() string {
	n := d.uv()
	if n > uint64(len(d.buf)) {
		d.fail()
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) bool() bool { return d.u8() != 0 }
