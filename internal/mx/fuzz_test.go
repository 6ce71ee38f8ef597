package mx

import (
	"bytes"
	"testing"
)

// FuzzDecodePage fuzzes the machine-code decoders every job's image reaches,
// through disassembly (Decode) and the VM's predecoded page cache
// (DecodePage). For arbitrary page and tail bytes nothing may panic; at
// every offset DecodePage's entry must equal Decode on the page-plus-tail
// bytes from there; and every instruction that decodes must re-encode to
// exactly the n bytes it was decoded from, because Decode reads every
// operand byte its layout has, so the encoding is canonical. The seeds are
// pageCorpus's mix of encodings and garbage; the committed corpus holds the
// .text of histogram, ck_mcs and memcached_like at O2, split into a page
// and a 9-byte tail.
func FuzzDecodePage(f *testing.F) {
	buf := pageCorpus(256 + MaxEncodedLen - 1)
	f.Add(buf[:256], buf[256:])
	f.Add(buf[:64], []byte(nil))
	f.Fuzz(func(t *testing.T, page, tail []byte) {
		insts, lens := DecodePage(page, tail)
		if len(insts) != len(page) || len(lens) != len(page) {
			t.Fatalf("DecodePage sizes = %d/%d, want %d", len(insts), len(lens), len(page))
		}
		code := append(append([]byte(nil), page...), tail...)
		for i := range page {
			inst, n := Decode(code[i:])
			if insts[i] != inst || int(lens[i]) != n {
				t.Fatalf("offset %d: DecodePage = %+v len %d; Decode = %+v len %d",
					i, insts[i], lens[i], inst, n)
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
