package mx

import (
	"math/rand"
	"testing"
)

func TestMaxEncodedLen(t *testing.T) {
	max := 0
	for op := Op(0); op < NumOps; op++ {
		if n := EncodedLen(op); n > max {
			max = n
		}
	}
	if max != MaxEncodedLen {
		t.Fatalf("MaxEncodedLen = %d, but the widest layout encodes to %d", MaxEncodedLen, max)
	}
}

// pageCorpus builds a byte buffer mixing well-formed encodings with random
// garbage, so Decode is checked over valid instructions, BAD bytes, and
// every misaligned suffix in between.
func pageCorpus(size int) []byte {
	rng := rand.New(rand.NewSource(42))
	code := make([]byte, 0, size+MaxEncodedLen)
	for len(code) < size {
		if rng.Intn(4) == 0 {
			code = append(code, byte(rng.Intn(256)))
			continue
		}
		inst := Inst{
			Op:    Op(1 + rng.Intn(int(NumOps)-1)),
			Dst:   Reg(rng.Intn(16)),
			Src:   Reg(rng.Intn(16)),
			Base:  Reg(rng.Intn(16)),
			Idx:   Reg(rng.Intn(16)),
			Scale: uint8(1 << rng.Intn(4)),
			Cc:    Cond(rng.Intn(8)),
			Imm:   rng.Int63n(1 << 20),
			Disp:  int32(rng.Intn(1 << 12)),
		}
		code = inst.Encode(code)
	}
	return code[:size]
}

// TestDecodePageTruncation checks both sides of a page boundary, as the
// VM's predecode sees them: decoding over a window that ends at the page
// (its section ends there) reports an instruction cut off by the boundary
// as BAD, exactly like Decode on any short buffer, and the same offset
// decodes fully once the window runs on into the successor's bytes.
func TestDecodePageTruncation(t *testing.T) {
	var buf []byte
	for len(buf) < 61 {
		buf = Inst{Op: NOP}.Encode(buf)
	}
	straddler := Inst{Op: MOVRI, Dst: RAX, Imm: 0x1122334455667788}
	buf = straddler.Encode(buf) // starts at 61, needs 10 bytes
	page := buf[:64]

	if inst, n := Decode(page[61:]); inst.Op != BAD || n != 1 {
		t.Fatalf("truncated instruction decoded as %v len %d, want BAD len 1", inst.Op, n)
	}
	if inst, n := Decode(buf[61:]); inst != straddler || n != EncodedLen(MOVRI) {
		t.Fatalf("straddling instruction = %+v len %d; want %+v len %d",
			inst, n, straddler, EncodedLen(MOVRI))
	}
}
