package cfg_test

import (
	"bytes"
	"testing"

	"repro/internal/cfg"
)

// FuzzDecodeBinary fuzzes the cfg artifact decoder: its bytes come from the
// artifact store, and any polynimad client may PUT them. It must return an
// error, or a graph that passes Validate and re-encodes to the same bytes;
// it must never panic. The committed corpus holds the binary encodings of
// the traced graphs of histogram, ck_mcs and memcached_like at O2.
func FuzzDecodeBinary(f *testing.F) {
	good := buildGraph(f).EncodeBinary()
	f.Add(good)
	f.Add(wrappedBlockCount())
	f.Add(good[:len(good)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := cfg.DecodeBinary(data)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoded graph: %v", err)
		}
		if !bytes.Equal(g.EncodeBinary(), data) {
			t.Fatal("decoded graph re-encodes to different bytes")
		}
	})
}

// FuzzUnmarshal fuzzes the JSON CFG decoder behind polynima's -cfg
// checkpoints. It must return an error, or a graph that passes Validate,
// whose binary encoding decodes, and whose Marshal output unmarshals to the
// same Marshal bytes. The committed corpus holds the JSON of the graphs
// FuzzDecodeBinary's corpus encodes.
func FuzzUnmarshal(f *testing.F) {
	for _, in := range unmarshalRejects {
		f.Add([]byte(in.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := cfg.Unmarshal(data)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoded graph: %v", err)
		}
		if _, err := cfg.DecodeBinary(g.EncodeBinary()); err != nil {
			t.Fatalf("binary encoding does not decode: %v", err)
		}
		j1, err := g.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		g2, err := cfg.Unmarshal(j1)
		if err != nil {
			t.Fatalf("Marshal output does not unmarshal: %v", err)
		}
		j2, err := g2.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j1, j2) {
			t.Fatalf("Marshal is not stable across a round trip:\n%s\nthen\n%s", j1, j2)
		}
	})
}
