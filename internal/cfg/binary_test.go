package cfg_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/cfg"
)

func TestBinaryRoundTrip(t *testing.T) {
	g := buildGraph(t)
	g.Blocks[0x108].Term = cfg.TermCallExt
	g.Blocks[0x108].Ext = 7
	g.Blocks[0x108].Fall = 0x120
	data := g.EncodeBinary()
	g2, err := cfg.DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g2.EncodeBinary(), data) {
		t.Fatal("decoded graph re-encodes differently")
	}
	j1, err := g.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := g2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("binary round trip changed the graph:\n%s\nwant\n%s", j2, j1)
	}
}

// wrappedBlockCount is a 24-byte payload: entry, no funcs, and a block
// count of 2^64-1.
func wrappedBlockCount() []byte {
	data := make([]byte, 24)
	binary.LittleEndian.PutUint64(data[16:], ^uint64(0))
	return data
}

// TestDecodeBinaryRejectsMalformed: counts past the bytes left, truncated
// fields, unknown terminator codes, blocks out of order, trailing bytes and
// graphs Validate rejects are all errors.
func TestDecodeBinaryRejectsMalformed(t *testing.T) {
	good := buildGraph(t).EncodeBinary()
	// Byte offsets in good: entry 0, nfuncs 8, the one func 16 (entry,
	// nblocks 3, three addresses: 40 bytes), nblocks 56, first block 64
	// (its terminator code at 80).
	with := func(off int, b ...byte) []byte {
		out := append([]byte(nil), good...)
		copy(out[off:], b)
		return out
	}
	u64 := func(x uint64) []byte { return binary.LittleEndian.AppendUint64(nil, x) }
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"empty", "truncated", nil},
		{"wrapped block count", "exceeds", wrappedBlockCount()},
		{"wrapped func count", "exceeds", with(8, u64(1<<60)...)},
		{"wrapped func block count", "exceeds", with(24, u64(^uint64(0))...)},
		{"truncated block", "truncated", good[:len(good)-1]},
		{"no block count", "truncated", good[:56]},
		{"unknown terminator", "unknown terminator code", with(80, 0x7f)},
		{"blocks out of order", "strictly ascending", with(64, u64(0x200)...)},
		{"duplicate block", "strictly ascending", with(64, u64(0x108)...)},
		{"trailing byte", "trailing", append(append([]byte(nil), good...), 0)},
		{"missing func block", "missing block", with(32, u64(0x109)...)},
	} {
		if g, err := cfg.DecodeBinary(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: graph %+v, error %v; want an error containing %q", tc.name, g, err, tc.want)
		}
	}
}
