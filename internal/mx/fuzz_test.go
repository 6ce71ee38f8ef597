package mx

import (
	"bytes"
	"testing"
)

// FuzzDecodePage fuzzes the machine-code decoder every job's image reaches,
// through disassembly and the VM's per-offset predecode, which both call
// Decode. The inputs are a page and the tail of bytes that follow it. At
// every offset of the page nothing may panic, and Decode over the
// page-plus-tail bytes from there must return a length within them. An
// instruction that decodes must re-encode to exactly the n bytes it was
// decoded from, because Decode reads every operand byte its layout has, so
// the encoding is canonical. And a window that ends at the page end, as the
// predecode clamps one at a section end, must decode the same instruction
// when it fits and BAD (length 1) when the page boundary cuts it off. The
// seeds are pageCorpus's mix of encodings and garbage; the committed corpus
// holds the .text of histogram, ck_mcs and memcached_like at O2, split into
// a page and a 9-byte tail.
func FuzzDecodePage(f *testing.F) {
	buf := pageCorpus(256 + MaxEncodedLen - 1)
	f.Add(buf[:256], buf[256:])
	f.Add(buf[:64], []byte(nil))
	f.Fuzz(func(t *testing.T, page, tail []byte) {
		code := append(append([]byte(nil), page...), tail...)
		for i := range page {
			inst, n := Decode(code[i:])
			if n < 1 || n > len(code)-i {
				t.Fatalf("offset %d: Decode length %d outside the %d bytes left", i, n, len(code)-i)
			}
			clamped, cn := Decode(page[i:])
			switch {
			case n <= len(page)-i && (clamped != inst || cn != n):
				t.Fatalf("offset %d: clamped window decodes %+v len %d; full window %+v len %d",
					i, clamped, cn, inst, n)
			case n > len(page)-i && (clamped.Op != BAD || cn != 1):
				t.Fatalf("offset %d: window cut at the page end decodes %+v len %d, want BAD len 1", i, clamped, cn)
			}
			if inst.Op == BAD {
				continue
			}
			if enc := inst.Encode(nil); !bytes.Equal(enc, code[i:i+n]) {
				t.Fatalf("offset %d: %v decodes from % x but encodes to % x", i, inst, code[i:i+n], enc)
			}
		}
	})
}
