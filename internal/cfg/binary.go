package cfg

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The binary form is the artifact store's CFG payload: the whole graph in
// fixed-width little-endian fields, with no field names and no indentation.
//
//	entry                                   u64
//	nfuncs                                  u64
//	  per func:   entry, nblocks            u64, u64
//	              block addresses           nblocks × u64
//	nblocks                                 u64
//	  per block, in strictly ascending address order:
//	              addr, size                u64, u64
//	              terminator code           u8 (termCodes index)
//	              ntargets, targets         u64, ntargets × u64
//	              fall, ext                 u64, u16
//
// Slices keep their order, so a decoded graph re-encodes to the same bytes;
// the block map is written in address order, which makes the form canonical.

// termCodes maps terminator kinds to their one-byte codes (the index).
var termCodes = [...]TermKind{TermJmp, TermJcc, TermJmpInd, TermCall, TermCallInd, TermCallExt, TermRet, TermHalt, TermFall}

// termCode returns k's code, or 0xff (which no decoder accepts) for a kind
// outside termCodes.
func termCode(k TermKind) byte {
	for i, t := range termCodes {
		if t == k {
			return byte(i)
		}
	}
	return 0xff
}

const (
	funcMinLen  = 16 // entry, nblocks
	blockMinLen = 35 // addr, size, term, ntargets, fall, ext
)

// EncodeBinary serializes the graph to its binary form.
func (g *Graph) EncodeBinary() []byte {
	n := 16 + len(g.Blocks)*blockMinLen
	for _, f := range g.Funcs {
		n += funcMinLen + 8*len(f.Blocks)
	}
	blocks := g.sortedBlocks()
	for _, b := range blocks {
		n += 8 * len(b.Targets)
	}
	buf := make([]byte, 0, n)
	u64 := func(x uint64) { buf = binary.LittleEndian.AppendUint64(buf, x) }
	u64(g.Entry)
	u64(uint64(len(g.Funcs)))
	for _, f := range g.Funcs {
		u64(f.Entry)
		u64(uint64(len(f.Blocks)))
		for _, a := range f.Blocks {
			u64(a)
		}
	}
	u64(uint64(len(blocks)))
	for _, b := range blocks {
		u64(b.Addr)
		u64(b.Size)
		buf = append(buf, termCode(b.Term))
		u64(uint64(len(b.Targets)))
		for _, t := range b.Targets {
			u64(t)
		}
		u64(b.Fall)
		buf = binary.LittleEndian.AppendUint16(buf, b.Ext)
	}
	return buf
}

var errTruncated = errors.New("cfg: binary graph truncated")

// DecodeBinary parses EncodeBinary's form. The payload may come from a
// shared store, so each count is checked against the bytes left before
// anything is sized by it; an unknown terminator code, blocks out of
// ascending order, trailing bytes, and any graph Validate rejects are
// errors. A graph it returns re-encodes to exactly data.
func DecodeBinary(data []byte) (*Graph, error) {
	if len(data) < 8 {
		return nil, errTruncated
	}
	d := decoder{data: data}
	g := &Graph{Entry: d.u64()}
	nf, err := d.count(funcMinLen)
	if err != nil {
		return nil, err
	}
	if nf > 0 { // nil when empty, as in a fresh graph, so Marshal agrees
		g.Funcs = make([]*Func, nf)
	}
	for i := range g.Funcs {
		if len(d.data) < 8 {
			return nil, errTruncated
		}
		f := &Func{Entry: d.u64()}
		if f.Blocks, err = d.u64s(); err != nil {
			return nil, err
		}
		g.Funcs[i] = f
	}
	nb, err := d.count(blockMinLen)
	if err != nil {
		return nil, err
	}
	g.Blocks = make(map[uint64]*Block, nb)
	var prev *Block
	for i := 0; i < nb; i++ {
		if len(d.data) < 17 {
			return nil, errTruncated
		}
		b := &Block{Addr: d.u64(), Size: d.u64()}
		code := d.data[0]
		d.data = d.data[1:]
		if int(code) >= len(termCodes) {
			return nil, fmt.Errorf("cfg: block %#x: unknown terminator code %d", b.Addr, code)
		}
		b.Term = termCodes[code]
		if b.Targets, err = d.u64s(); err != nil {
			return nil, err
		}
		if len(d.data) < 10 {
			return nil, errTruncated
		}
		b.Fall = d.u64()
		b.Ext = binary.LittleEndian.Uint16(d.data)
		d.data = d.data[2:]
		if prev != nil && b.Addr <= prev.Addr {
			return nil, fmt.Errorf("cfg: block %#x follows block %#x: blocks must be strictly ascending", b.Addr, prev.Addr)
		}
		g.Blocks[b.Addr], prev = b, b
	}
	if len(d.data) != 0 {
		return nil, fmt.Errorf("cfg: %d trailing bytes after binary graph", len(d.data))
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// decoder reads DecodeBinary's fixed-width fields.
type decoder struct{ data []byte }

// u64 reads one field; callers have checked that 8 bytes remain.
func (d *decoder) u64() uint64 {
	x := binary.LittleEndian.Uint64(d.data)
	d.data = d.data[8:]
	return x
}

// count reads a length prefix of items at least size bytes long each; an
// error unless the prefix and that many items fit in what is left.
func (d *decoder) count(size int) (int, error) {
	if len(d.data) < 8 {
		return 0, errTruncated
	}
	n := d.u64()
	if n > uint64(len(d.data)/size) {
		return 0, fmt.Errorf("cfg: count %d exceeds the %d bytes left", n, len(d.data))
	}
	return int(n), nil
}

// u64s reads a length-prefixed list of u64 fields; nil when empty.
func (d *decoder) u64s() ([]uint64, error) {
	n, err := d.count(8)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.u64()
	}
	return out, nil
}
