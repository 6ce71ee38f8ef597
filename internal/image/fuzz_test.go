package image_test

import (
	"bytes"
	"testing"

	"repro/internal/image"
)

// FuzzDecodeBinary fuzzes the image artifact decoder: its bytes come from
// the artifact store, and any polynimad client may PUT them. It must return
// an error, or an image that passes checkSections and re-encodes to the
// same bytes; it must never panic. The committed corpus holds the binary
// encodings of histogram, ck_mcs and memcached_like at O2, each input image
// and its mx64 recompile.
func FuzzDecodeBinary(f *testing.F) {
	good := sampleImage().EncodeBinary()
	f.Add(good)
	f.Add(wrappedSectionCount())
	f.Add(good[:len(good)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := image.DecodeBinary(data)
		if err != nil {
			return
		}
		if err := im.CheckSections(); err != nil {
			t.Fatalf("decoded image: %v", err)
		}
		if !bytes.Equal(im.EncodeBinary(), data) {
			t.Fatal("decoded image re-encodes to different bytes")
		}
	})
}

// FuzzUnmarshal fuzzes the JSON image decoder behind polynimad job bodies.
// It must return an error, or an image that passes checkSections and whose
// binary round trip marshals to the same bytes as the image itself, which
// cross-checks the two codecs. The committed corpus holds the JSON of the
// images FuzzDecodeBinary's corpus encodes.
func FuzzUnmarshal(f *testing.F) {
	for _, tc := range geometryCases {
		data, err := geometryImage(tc.name, tc.sections).Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := image.Unmarshal(data)
		if err != nil {
			return
		}
		if err := im.CheckSections(); err != nil {
			t.Fatalf("decoded image: %v", err)
		}
		back, err := image.DecodeBinary(im.EncodeBinary())
		if err != nil {
			t.Fatalf("binary encoding does not decode: %v", err)
		}
		j1, err := im.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		j2, err := back.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j1, j2) {
			t.Fatalf("binary round trip changed the image:\n%s\nthen\n%s", j1, j2)
		}
	})
}
